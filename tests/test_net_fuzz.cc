/**
 * @file
 * Deterministic byte-level fuzzing of the parsers that face the
 * network: the frame splitter (FrameDecoder), every payload codec,
 * and the admin-plane HTTP request parser.
 *
 * The robustness contract under test is the one net/protocol.hh
 * states: no input may ever crash, assert, or silently desync a
 * parser. Frame-level violations must poison the decoder permanently
 * (the stream cannot be re-synchronized), payload-level violations
 * must fail cleanly with a reason, and anything else must decode.
 *
 * The harness is plain gtest over seeded xorshift mutation of the
 * checked-in corpus (the .hex seeds under tests/data/fuzz) — see
 * fuzz_corpus.hh. The FuzzSocket suites replay the same streams
 * through FrameDecoder::receive() over a socketpair, with seeded
 * random write sizes, and require exactly what feed() makes of them.
 * Every failure is replayable: the assertion message carries the
 * (seed, iteration) pair that derived the offending input. The
 * nightly CI job runs this same binary under ASan+UBSan, where
 * "never crash" tightens to "never touch a byte out of bounds".
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "mat/generate.hh"
#include "net/protocol.hh"
#include "obs/http_admin.hh"
#include "serve/plan_cache.hh"
#include "tests/fuzz_corpus.hh"

namespace sap {
namespace {

using fuzz::CorpusEntry;
using fuzz::Xorshift64;

std::string
corpusDir()
{
    return std::string(SAP_TEST_DATA_DIR) + "/fuzz";
}

bool
isHttpSeed(const CorpusEntry &e)
{
    return e.name.compare(0, 5, "http_") == 0;
}

/** The checked-in seeds, split by which parser they feed. */
std::vector<CorpusEntry>
frameCorpus()
{
    std::vector<CorpusEntry> all = fuzz::loadHexCorpus(corpusDir());
    std::vector<CorpusEntry> frames;
    for (CorpusEntry &e : all)
        if (!isHttpSeed(e))
            frames.push_back(std::move(e));
    return frames;
}

std::vector<CorpusEntry>
httpCorpus()
{
    std::vector<CorpusEntry> all = fuzz::loadHexCorpus(corpusDir());
    std::vector<CorpusEntry> heads;
    for (CorpusEntry &e : all)
        if (isHttpSeed(e))
            heads.push_back(std::move(e));
    return heads;
}

/**
 * Run one decoded frame's payload through the codec its type claims,
 * then through every *other* codec too — a payload is attacker data,
 * so each decoder must survive all of them. Decoders must either
 * succeed or fail with a non-empty reason; which one is not checked
 * (that is the round-trip suite's job, on well-formed inputs).
 */
void
exercisePayloadDecoders(const Frame &frame)
{
    const std::vector<std::uint8_t> &p = frame.payload;
    std::string err;
    ServeRequest req;
    Digest digest = 0;
    WireResponse resp;
    ServerStats stats;
    MetricsSnapshot snap;
    std::string message;

    if (!decodeSubmit(p, &req, &err)) {
        ASSERT_FALSE(err.empty());
    }
    err.clear();
    if (!decodeForward(p, &digest, &req, &err)) {
        ASSERT_FALSE(err.empty());
    }
    err.clear();
    if (!decodeResponse(p, &resp, &err)) {
        ASSERT_FALSE(err.empty());
    }
    err.clear();
    if (!p.empty() && !decodeStats(p, &stats, &err)) {
        ASSERT_FALSE(err.empty());
    }
    err.clear();
    if (!p.empty() && !decodeMetrics(p, &snap, &err)) {
        ASSERT_FALSE(err.empty());
    }
    err.clear();
    if (!decodeError(p, &message, &err)) {
        ASSERT_FALSE(err.empty());
    }
    err.clear();
    std::vector<RequestTrace> traces;
    std::uint64_t total = 0;
    if (!p.empty() && !decodeTraces(p, &traces, &total, &err)) {
        ASSERT_FALSE(err.empty());
    }
}

/**
 * Feed @p bytes to a fresh FrameDecoder in random-sized chunks and
 * pump it dry, checking the poisoned-stream invariant along the way.
 * @return the number of complete frames extracted.
 */
std::size_t
pumpDecoder(const std::vector<std::uint8_t> &bytes, Xorshift64 *rng,
            const std::string &context)
{
    FrameDecoder decoder;
    std::size_t frames = 0;
    std::size_t off = 0;
    bool poisoned = false;
    std::string poison_message;
    while (off < bytes.size() || !poisoned) {
        if (off < bytes.size()) {
            std::size_t n = std::min(bytes.size() - off,
                                     1 + rng->below(97));
            decoder.feed(bytes.data() + off, n);
            off += n;
        }
        for (;;) {
            Frame frame;
            std::string err;
            FrameDecoder::Result res = decoder.next(&frame, &err);
            if (res == FrameDecoder::Result::NeedMore)
                break;
            if (res == FrameDecoder::Result::Malformed) {
                EXPECT_FALSE(err.empty()) << context;
                EXPECT_TRUE(decoder.poisoned()) << context;
                if (poisoned) {
                    // Once poisoned, always poisoned — and for the
                    // original reason, not whatever bytes came later.
                    EXPECT_EQ(err, poison_message) << context;
                }
                poisoned = true;
                poison_message = err;
                break;
            }
            EXPECT_FALSE(poisoned)
                << context << ": frame extracted after poisoning";
            ++frames;
            exercisePayloadDecoders(frame);
        }
        if (off >= bytes.size())
            break;
    }
    return frames;
}

//----------------------------------------------------------------------
// Corpus sanity: the seeds themselves must be healthy, or every
// derived mutation starts from garbage and coverage collapses.
//----------------------------------------------------------------------

TEST(FuzzCorpus, SeedsLoadAndFrameSeedsDecodeCleanly)
{
    std::vector<CorpusEntry> frames = frameCorpus();
    std::vector<CorpusEntry> heads = httpCorpus();
    EXPECT_GE(frames.size(), 8u);
    EXPECT_GE(heads.size(), 2u);

    for (const CorpusEntry &e : frames) {
        FrameDecoder decoder;
        decoder.feed(e.bytes.data(), e.bytes.size());
        Frame frame;
        std::string err;
        ASSERT_EQ(decoder.next(&frame, &err), FrameDecoder::Result::Ok)
            << e.name << ": " << err;
        EXPECT_EQ(decoder.next(&frame, &err),
                  FrameDecoder::Result::NeedMore)
            << e.name << " has trailing bytes";
    }
    for (const CorpusEntry &e : heads) {
        HttpRequest req;
        std::string text(e.bytes.begin(), e.bytes.end());
        EXPECT_EQ(parseHttpRequest(text, &req), HttpParseResult::Ok)
            << e.name;
    }
}

TEST(FuzzCorpus, MutationIsDeterministic)
{
    std::vector<CorpusEntry> corpus = frameCorpus();
    Xorshift64 a(0xfeedbeef), b(0xfeedbeef);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(fuzz::deriveInput(corpus, &a),
                  fuzz::deriveInput(corpus, &b))
            << "iteration " << i;
}

//----------------------------------------------------------------------
// The frame splitter and payload codecs under mutation.
//----------------------------------------------------------------------

TEST(FuzzFrameDecoder, MutatedFramesNeverCrashOrDesync)
{
    const std::uint64_t kSeed = 0x5a01;
    const int kIterations = 4000;
    std::vector<CorpusEntry> corpus = frameCorpus();
    Xorshift64 rng(kSeed);
    std::size_t total_frames = 0;
    for (int i = 0; i < kIterations; ++i) {
        std::vector<std::uint8_t> input =
            fuzz::deriveInput(corpus, &rng);
        total_frames += pumpDecoder(
            input, &rng,
            "seed=" + std::to_string(kSeed) +
                " iteration=" + std::to_string(i));
        if (::testing::Test::HasFailure())
            return;
    }
    // Mutation must not be so destructive that nothing survives
    // framing — that would mean the suite stopped reaching the
    // payload decoders entirely.
    EXPECT_GT(total_frames, 0u);
}

TEST(FuzzFrameDecoder, ConcatenatedMutantsStreamCleanly)
{
    // A TCP stream is many frames back to back; splice several
    // mutants (and occasionally a pristine seed) into one stream so
    // the decoder's consumed-prefix bookkeeping is exercised across
    // frame boundaries, not just from offset zero.
    const std::uint64_t kSeed = 0xc10c;
    std::vector<CorpusEntry> corpus = frameCorpus();
    Xorshift64 rng(kSeed);
    for (int i = 0; i < 400; ++i) {
        std::vector<std::uint8_t> stream;
        std::size_t parts = 2 + rng.below(4);
        for (std::size_t p = 0; p < parts; ++p) {
            std::vector<std::uint8_t> part =
                rng.below(3) == 0
                    ? corpus[rng.below(corpus.size())].bytes
                    : fuzz::deriveInput(corpus, &rng, 4);
            stream.insert(stream.end(), part.begin(), part.end());
        }
        pumpDecoder(stream, &rng,
                    "seed=" + std::to_string(kSeed) +
                        " iteration=" + std::to_string(i));
        if (::testing::Test::HasFailure())
            return;
    }
}

TEST(FuzzPayloads, MutatedPayloadsNeverCrashAnyCodec)
{
    // Strip the 20-byte header off each frame seed and mutate the
    // bare payload: this reaches payload shapes a framed mutation
    // rarely produces (the header soaks up most mutation sites).
    const std::uint64_t kSeed = 0x9a71;
    std::vector<CorpusEntry> corpus = frameCorpus();
    for (CorpusEntry &e : corpus)
        e.bytes.erase(e.bytes.begin(),
                      e.bytes.begin() +
                          std::min<std::ptrdiff_t>(
                              kFrameHeaderBytes,
                              static_cast<std::ptrdiff_t>(
                                  e.bytes.size())));
    Xorshift64 rng(kSeed);
    for (int i = 0; i < 4000; ++i) {
        Frame frame;
        frame.payload = fuzz::deriveInput(corpus, &rng);
        exercisePayloadDecoders(frame);
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << "seed=" << kSeed << " iteration=" << i;
            return;
        }
    }
}

//----------------------------------------------------------------------
// Targeted poisoned-stream invariants (the fuzz loops check these
// opportunistically; these pin them down on crafted inputs).
//----------------------------------------------------------------------

TEST(FuzzPoisoning, BadMagicPoisonsPermanently)
{
    std::vector<std::uint8_t> bad = buildPingFrame(1);
    bad[0] ^= 0xff; // break the magic
    FrameDecoder decoder;
    decoder.feed(bad.data(), bad.size());

    Frame frame;
    std::string first_err, err;
    EXPECT_EQ(decoder.next(&frame, &first_err),
              FrameDecoder::Result::Malformed);
    EXPECT_TRUE(decoder.poisoned());

    // Feeding perfectly valid frames afterwards must not revive it,
    // and the reported reason must stay the original one.
    std::vector<std::uint8_t> good = buildPingFrame(2);
    for (int i = 0; i < 3; ++i) {
        decoder.feed(good.data(), good.size());
        EXPECT_EQ(decoder.next(&frame, &err),
                  FrameDecoder::Result::Malformed);
        EXPECT_EQ(err, first_err);
    }
}

TEST(FuzzPoisoning, OversizedLengthPoisons)
{
    // A length field over the decoder's cap is a frame-level
    // violation even though the bytes never arrive.
    FrameDecoder decoder(1024);
    std::vector<std::uint8_t> frame_bytes = buildPingFrame(1);
    frame_bytes[16] = 0xff; // payloadLen LE bytes 16..19
    frame_bytes[17] = 0xff;
    frame_bytes[18] = 0xff;
    frame_bytes[19] = 0x7f;
    decoder.feed(frame_bytes.data(), frame_bytes.size());
    Frame frame;
    std::string err;
    EXPECT_EQ(decoder.next(&frame, &err),
              FrameDecoder::Result::Malformed);
    EXPECT_TRUE(decoder.poisoned());
}

//----------------------------------------------------------------------
// The in-place SUBMIT pass against the full decode.
//----------------------------------------------------------------------

/** checkSubmit/checkForward must accept exactly when decodeSubmit/
 *  decodeForward do, fail with the same text, and hash an accepted
 *  payload to planDigest of the decoded request. */
void
expectCheckAgreesWithDecode(const std::vector<std::uint8_t> &p,
                            const std::string &context)
{
    ServeRequest req;
    SubmitView view;
    std::string decode_err, check_err;
    const bool decoded = decodeSubmit(p, &req, &decode_err);
    const bool checked =
        checkSubmit(p.data(), p.size(), &view, &check_err);
    ASSERT_EQ(checked, decoded) << context;
    if (decoded) {
        ASSERT_EQ(submitDigest(view), planDigest(req.engine, req.plan))
            << context;
    } else {
        ASSERT_EQ(check_err, decode_err) << context;
    }

    Digest decoded_digest = 0, checked_digest = 0;
    std::size_t offset = 0;
    decode_err.clear();
    check_err.clear();
    const bool fwd_decoded =
        decodeForward(p, &decoded_digest, &req, &decode_err);
    const bool fwd_checked = checkForward(
        p.data(), p.size(), &checked_digest, &view, &offset, &check_err);
    ASSERT_EQ(fwd_checked, fwd_decoded) << context;
    if (fwd_decoded) {
        ASSERT_EQ(checked_digest, decoded_digest) << context;
    } else {
        ASSERT_EQ(check_err, decode_err) << context;
    }
}

TEST(FuzzPayloads, InPlaceSubmitCheckAgreesWithDecode)
{
    // The mutated-payload stream of MutatedPayloadsNeverCrashAnyCodec
    // (same seed and derivation)...
    const std::uint64_t kSeed = 0x9a71;
    std::vector<CorpusEntry> corpus = frameCorpus();
    for (CorpusEntry &e : corpus)
        e.bytes.erase(e.bytes.begin(),
                      e.bytes.begin() +
                          std::min<std::ptrdiff_t>(
                              kFrameHeaderBytes,
                              static_cast<std::ptrdiff_t>(
                                  e.bytes.size())));
    Xorshift64 rng(kSeed);
    for (int i = 0; i < 4000; ++i) {
        expectCheckAgreesWithDecode(
            fuzz::deriveInput(corpus, &rng),
            "seed=" + std::to_string(kSeed) +
                " iteration=" + std::to_string(i));
        if (::testing::Test::HasFailure())
            return;
    }

    // ...and every prefix of a 64² SUBMIT, whole payload included.
    ServeRequest req;
    req.engine = "linear";
    req.plan = EnginePlan::matVec(randomRealDense(64, 64, 1),
                                  randomRealVec(64, 2),
                                  randomRealVec(64, 3), 8);
    const std::vector<std::uint8_t> payload = encodeSubmit(req);
    for (std::size_t len = 0; len <= payload.size(); ++len) {
        expectCheckAgreesWithDecode(
            std::vector<std::uint8_t>(
                payload.begin(),
                payload.begin() + static_cast<std::ptrdiff_t>(len)),
            "prefix len=" + std::to_string(len));
        if (::testing::Test::HasFailure())
            return;
    }
}

//----------------------------------------------------------------------
// The socket receive path: FrameDecoder::receive() over a socketpair.
//----------------------------------------------------------------------

/** What a decoder made of a stream: its frames, then why it was
 *  poisoned ("" when the stream stayed clean). */
struct Decoded
{
    std::vector<Frame> frames;
    std::string poison;
};

/** Drain @p decoder's complete frames into @p out. */
void
drainFrames(FrameDecoder &decoder, Decoded *out)
{
    for (;;) {
        Frame frame;
        std::string err;
        FrameDecoder::Result res = decoder.next(&frame, &err);
        if (res == FrameDecoder::Result::Ok) {
            ASSERT_TRUE(out->poison.empty())
                << "frame extracted after poisoning";
            out->frames.push_back(std::move(frame));
            continue;
        }
        if (res == FrameDecoder::Result::Malformed) {
            if (!out->poison.empty()) {
                ASSERT_EQ(err, out->poison);
            }
            out->poison = err;
        }
        return;
    }
}

/** The reference: the whole stream through feed(). */
Decoded
decodeByFeed(const std::vector<std::uint8_t> &bytes,
             std::uint32_t cap = kDefaultMaxPayloadBytes)
{
    FrameDecoder decoder(cap);
    decoder.feed(bytes.data(), bytes.size());
    Decoded out;
    drainFrames(decoder, &out);
    return out;
}

/**
 * The stream written into a socketpair by a writer thread in chunks
 * of @p chunk_sizes (the last one covers what is left), pausing
 * @p pause between writes when nonzero, and read back through
 * FrameDecoder::receive() the way the servers read: receive until
 * EAGAIN, drain, poll, repeat — past poisoning, until end of stream.
 */
Decoded
decodeBySocket(const std::vector<std::uint8_t> &bytes,
               const std::vector<std::size_t> &chunk_sizes,
               std::uint32_t cap = kDefaultMaxPayloadBytes,
               std::chrono::microseconds pause = {})
{
    Decoded out;
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        ADD_FAILURE() << "socketpair: " << std::strerror(errno);
        return out;
    }
    std::thread writer([&] {
        std::size_t off = 0, chunk = 0;
        while (off < bytes.size()) {
            std::size_t n = chunk < chunk_sizes.size()
                                ? chunk_sizes[chunk++]
                                : bytes.size() - off;
            n = std::min(n, bytes.size() - off);
            std::size_t done = 0;
            while (done < n) {
                ssize_t w = ::send(sv[0], bytes.data() + off + done,
                                   n - done, MSG_NOSIGNAL);
                if (w <= 0)
                    break;
                done += static_cast<std::size_t>(w);
            }
            if (done < n)
                break;
            off += n;
            if (pause.count() > 0)
                std::this_thread::sleep_for(pause);
        }
        ::shutdown(sv[0], SHUT_WR);
    });
    ::fcntl(sv[1], F_SETFL, ::fcntl(sv[1], F_GETFL) | O_NONBLOCK);
    FrameDecoder decoder(cap);
    for (bool eof = false; !eof;) {
        pollfd pfd{sv[1], POLLIN, 0};
        if (::poll(&pfd, 1, 10000) <= 0) {
            ADD_FAILURE() << "socket stream stalled";
            break;
        }
        for (;;) {
            ssize_t n = decoder.receive(sv[1]);
            if (n > 0) {
                drainFrames(decoder, &out);
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            eof = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
            break;
        }
    }
    drainFrames(decoder, &out);
    writer.join();
    ::close(sv[0]);
    ::close(sv[1]);
    return out;
}

/** Seeded write sizes: mostly small, now and then large. */
std::vector<std::size_t>
randomChunks(std::size_t total, Xorshift64 *rng)
{
    std::vector<std::size_t> sizes;
    for (std::size_t sum = 0; sum < total;) {
        const std::size_t n = rng->below(8) == 0
                                  ? 1 + rng->below(200000)
                                  : 1 + rng->below(97);
        sizes.push_back(n);
        sum += n;
    }
    return sizes;
}

void
expectSameDecode(const Decoded &got, const Decoded &want,
                 const std::string &context)
{
    ASSERT_EQ(got.frames.size(), want.frames.size()) << context;
    for (std::size_t i = 0; i < want.frames.size(); ++i) {
        const FrameHeader &g = got.frames[i].header;
        const FrameHeader &w = want.frames[i].header;
        ASSERT_EQ(g.type, w.type) << context << " frame " << i;
        ASSERT_EQ(g.tag, w.tag) << context << " frame " << i;
        ASSERT_EQ(g.payloadLen, w.payloadLen) << context << " frame " << i;
        ASSERT_TRUE(got.frames[i].payload == want.frames[i].payload)
            << context << " frame " << i;
    }
    ASSERT_EQ(got.poison, want.poison) << context;
}

/** A PING-typed frame carrying @p n patterned payload bytes. */
std::vector<std::uint8_t>
patternFrame(std::uint64_t tag, std::size_t n)
{
    std::vector<std::uint8_t> payload(n);
    for (std::size_t i = 0; i < n; ++i)
        payload[i] = static_cast<std::uint8_t>(i * 131 + tag);
    return buildFrame(FrameType::Ping, tag, payload);
}

void
append(std::vector<std::uint8_t> *stream,
       const std::vector<std::uint8_t> &bytes)
{
    stream->insert(stream->end(), bytes.begin(), bytes.end());
}

TEST(FuzzSocket, CorpusReplaysThroughReceive)
{
    const std::uint64_t kSeed = 0x50c7;
    Xorshift64 rng(kSeed);
    for (const CorpusEntry &e : frameCorpus()) {
        expectSameDecode(
            decodeBySocket(e.bytes, randomChunks(e.bytes.size(), &rng)),
            decodeByFeed(e.bytes), e.name);
        if (::testing::Test::HasFailure())
            return;
    }
}

TEST(FuzzSocket, ConcatenatedMutantsStreamThroughReceive)
{
    // ConcatenatedMutantsStreamCleanly's streams, plus now and then a
    // frame far larger than the staging area, over a real socket.
    const std::uint64_t kSeed = 0x50c8;
    std::vector<CorpusEntry> corpus = frameCorpus();
    Xorshift64 rng(kSeed);
    for (int i = 0; i < 200; ++i) {
        std::vector<std::uint8_t> stream;
        std::size_t parts = 2 + rng.below(4);
        for (std::size_t p = 0; p < parts; ++p) {
            switch (rng.below(6)) {
            case 0:
            case 1:
                append(&stream, corpus[rng.below(corpus.size())].bytes);
                break;
            case 2:
                append(&stream,
                       patternFrame(p, FrameDecoder::kStagingBytes +
                                           rng.below(300000)));
                break;
            default:
                append(&stream, fuzz::deriveInput(corpus, &rng, 4));
                break;
            }
        }
        const std::string context = "seed=" + std::to_string(kSeed) +
                                    " iteration=" + std::to_string(i);
        expectSameDecode(
            decodeBySocket(stream, randomChunks(stream.size(), &rng)),
            decodeByFeed(stream), context);
        if (::testing::Test::HasFailure())
            return;
    }
}

TEST(FuzzSocket, LargeFrameThenSmallFramesInOneWrite)
{
    // The large payload is received in place up to its own end; the
    // small frames behind it in the same write must still come out
    // whole and in order.
    std::vector<std::uint8_t> stream =
        patternFrame(1, 3 * FrameDecoder::kStagingBytes + 12345);
    for (std::uint64_t tag = 2; tag < 6; ++tag)
        append(&stream, patternFrame(tag, 40 * tag));
    append(&stream, buildPingFrame(6));
    const Decoded want = decodeByFeed(stream);
    ASSERT_EQ(want.frames.size(), 6u);
    expectSameDecode(decodeBySocket(stream, {stream.size()}), want,
                     "one write");
    // Same stream, split just past the big frame's header.
    expectSameDecode(decodeBySocket(stream, {kFrameHeaderBytes + 3},
                                    kDefaultMaxPayloadBytes,
                                    std::chrono::milliseconds(2)),
                     want, "split after header");
}

TEST(FuzzSocket, HeaderSplitAcrossWrites)
{
    std::vector<std::uint8_t> stream = patternFrame(1, 500);
    append(&stream, patternFrame(2, 2 * FrameDecoder::kStagingBytes));
    append(&stream, buildPingFrame(3));
    const Decoded want = decodeByFeed(stream);
    ASSERT_EQ(want.frames.size(), 3u);
    // Writes end 7 bytes into the first header, then 9 bytes into
    // the second (whose frame is larger than the staging area).
    expectSameDecode(
        decodeBySocket(stream, {7, 13 + 500 + 9, 11},
                       kDefaultMaxPayloadBytes,
                       std::chrono::milliseconds(2)),
        want, "split headers");
}

TEST(FuzzSocket, BadMagicStillPoisonsTheStream)
{
    std::vector<std::uint8_t> bad = buildPingFrame(2);
    bad[0] ^= 0xff;
    std::vector<std::uint8_t> stream = buildPingFrame(1);
    append(&stream, bad);
    append(&stream, buildPingFrame(3));
    append(&stream, patternFrame(4, 100000));
    const Decoded want = decodeByFeed(stream);
    ASSERT_EQ(want.frames.size(), 1u);
    ASSERT_NE(want.poison.find("bad magic"), std::string::npos);
    Xorshift64 rng(0xbad);
    for (int i = 0; i < 20; ++i)
        expectSameDecode(
            decodeBySocket(stream, randomChunks(stream.size(), &rng)),
            want, "iteration " + std::to_string(i));
}

TEST(FuzzSocket, OverCapLengthStillPoisonsTheStream)
{
    // Announced over the cap: poisoned from the header alone, and the
    // payload bytes that do follow change nothing.
    std::vector<std::uint8_t> stream = patternFrame(1, 100);
    append(&stream, patternFrame(2, 5000));
    append(&stream, buildPingFrame(3));
    const Decoded want = decodeByFeed(stream, 1024);
    ASSERT_EQ(want.frames.size(), 1u);
    ASSERT_NE(want.poison.find("exceeds the 1024-byte cap"),
              std::string::npos);
    Xorshift64 rng(0xcab);
    for (int i = 0; i < 20; ++i)
        expectSameDecode(decodeBySocket(stream,
                                        randomChunks(stream.size(), &rng),
                                        1024),
                         want, "iteration " + std::to_string(i));
}

/** Receive until EAGAIN, draining frames. @return bytes received. */
std::size_t
receiveAvailable(FrameDecoder &decoder, int fd, Decoded *out)
{
    std::size_t total = 0;
    for (;;) {
        ssize_t n = decoder.receive(fd);
        if (n > 0) {
            total += static_cast<std::size_t>(n);
            drainFrames(decoder, out);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        return total;
    }
}

TEST(FuzzSocket, SlowSenderPinsOnlyWhatItSent)
{
    // A peer announces a payload at the cap, sends 1 KiB of it and
    // stalls. The decoder must hold memory for the bytes that came,
    // not for the announced length — else every slow sender is a
    // memory amplifier.
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    ::fcntl(sv[0], F_SETFL, ::fcntl(sv[0], F_GETFL) | O_NONBLOCK);
    ::fcntl(sv[1], F_SETFL, ::fcntl(sv[1], F_GETFL) | O_NONBLOCK);
    const std::size_t kAnnounced = kDefaultMaxPayloadBytes;
    std::vector<std::uint8_t> head = buildPingFrame(1);
    for (int i = 0; i < 4; ++i)
        head[16 + i] = static_cast<std::uint8_t>(kAnnounced >> (8 * i));
    head.resize(kFrameHeaderBytes + 1024, 0x42);
    ASSERT_EQ(::send(sv[0], head.data(), head.size(), 0),
              static_cast<ssize_t>(head.size()));

    FrameDecoder decoder;
    Decoded out;
    std::size_t received = receiveAvailable(decoder, sv[1], &out);
    EXPECT_EQ(received, head.size());
    EXPECT_TRUE(out.frames.empty());
    EXPECT_TRUE(out.poison.empty());
    EXPECT_LE(decoder.heldBytes(),
              received + 2 * FrameDecoder::kStagingBytes);

    // Trickling on, the held memory keeps tracking what arrived.
    std::vector<std::uint8_t> piece(100000, 0x42);
    for (int i = 0; i < 30; ++i) {
        std::size_t off = 0;
        while (off < piece.size()) {
            ssize_t n = ::send(sv[0], piece.data() + off,
                               piece.size() - off, 0);
            if (n > 0)
                off += static_cast<std::size_t>(n);
            received += receiveAvailable(decoder, sv[1], &out);
        }
        received += receiveAvailable(decoder, sv[1], &out);
        ASSERT_LE(decoder.heldBytes(),
                  2 * received + 2 * FrameDecoder::kStagingBytes)
            << "after " << received << " bytes";
    }
    EXPECT_TRUE(out.frames.empty());
    EXPECT_LT(decoder.heldBytes(), kAnnounced / 4);
    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(FuzzSocket, IdleDecoderHoldsOnlyUnconsumedBytes)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    ::fcntl(sv[1], F_SETFL, ::fcntl(sv[1], F_GETFL) | O_NONBLOCK);
    std::vector<std::uint8_t> stream = patternFrame(1, 3000);
    append(&stream, patternFrame(2, 200000));
    const std::vector<std::uint8_t> last = buildPingFrame(3);
    append(&stream, std::vector<std::uint8_t>(last.begin(),
                                              last.begin() + 5));
    ASSERT_EQ(::send(sv[0], stream.data(), stream.size(), 0),
              static_cast<ssize_t>(stream.size()));

    FrameDecoder decoder;
    Decoded out;
    receiveAvailable(decoder, sv[1], &out);
    EXPECT_EQ(out.frames.size(), 2u);
    EXPECT_EQ(decoder.heldBytes(), 5u); // the split header, nothing else

    ASSERT_EQ(::send(sv[0], last.data() + 5, last.size() - 5, 0),
              static_cast<ssize_t>(last.size() - 5));
    receiveAvailable(decoder, sv[1], &out);
    ASSERT_EQ(out.frames.size(), 3u);
    EXPECT_EQ(out.frames[2].header.tag, 3u);
    EXPECT_EQ(decoder.heldBytes(), 0u);
    ::close(sv[0]);
    ::close(sv[1]);
}

//----------------------------------------------------------------------
// The admin-plane HTTP parser under mutation.
//----------------------------------------------------------------------

TEST(FuzzHttp, MutatedRequestHeadsNeverCrash)
{
    const std::uint64_t kSeed = 0x4774;
    std::vector<CorpusEntry> corpus = httpCorpus();
    Xorshift64 rng(kSeed);
    std::size_t ok = 0;
    for (int i = 0; i < 4000; ++i) {
        std::vector<std::uint8_t> bytes =
            fuzz::deriveInput(corpus, &rng);
        std::string text(bytes.begin(), bytes.end());
        HttpRequest req;
        HttpParseResult res = parseHttpRequest(text, &req);
        ASSERT_TRUE(res == HttpParseResult::Ok ||
                    res == HttpParseResult::NeedMore ||
                    res == HttpParseResult::Malformed ||
                    res == HttpParseResult::MethodNotAllowed)
            << "seed=" << kSeed << " iteration=" << i;
        if (res == HttpParseResult::Ok) {
            ++ok;
            // A parsed request must uphold the parser's documented
            // strictness: target rooted at '/'.
            ASSERT_FALSE(req.path.empty());
            ASSERT_EQ(req.path[0], '/');
        }
    }
    // Single-byte mutations of a valid head frequently stay valid;
    // if none did, the corpus or parser drifted.
    EXPECT_GT(ok, 0u);
}

} // namespace
} // namespace sap
