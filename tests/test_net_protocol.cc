/**
 * @file
 * Wire-protocol unit and property tests: encode/decode round-trips
 * over randomized requests for all three problem kinds, incremental
 * frame decoding under adversarial chunking, and the malformed-
 * payload catalogue — every bad input must fail cleanly with a
 * reason, never crash or over-read.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include "base/random.hh"
#include "mat/generate.hh"
#include "net/protocol.hh"
#include "serve/plan_cache.hh"

namespace sap {
namespace {

//---------------------------------------------------------------------
// Round-trip properties
//---------------------------------------------------------------------

/** Randomized request shapes per seed, mirroring the property suite. */
class NetRoundTrip : public ::testing::TestWithParam<int>
{
  protected:
    ServeRequest
    drawRequest()
    {
        Rng rng(7000 + GetParam());
        Index n = rng.uniformInt(1, 10);
        Index m = rng.uniformInt(1, 10);
        Index w = rng.uniformInt(1, 4);
        std::uint64_t seed = 7100 + GetParam();
        ServeRequest req;
        req.crossCheck = GetParam() % 2 == 0;
        req.plan.mode = static_cast<ExecMode>(GetParam() % 3);
        switch (GetParam() % 3) {
        case 0:
            req.engine = "linear";
            req.plan = EnginePlan::matVec(
                randomIntDense(n, m, seed), randomIntVec(m, seed + 1),
                randomIntVec(n, seed + 2), w);
            break;
        case 1: {
            Index p = rng.uniformInt(1, 10);
            req.engine = "hex";
            req.plan = EnginePlan::matMul(
                randomIntDense(n, p, seed),
                randomIntDense(p, m, seed + 1),
                randomIntDense(n, m, seed + 2), w);
            break;
        }
        default:
            req.engine = "tri";
            req.plan = EnginePlan::triSolve(
                randomLowerTriangular(n, seed),
                randomIntVec(n, seed + 1), w);
            break;
        }
        return req;
    }
};

TEST_P(NetRoundTrip, SubmitEncodeDecodeIsIdentity)
{
    ServeRequest req = drawRequest();
    ServeRequest back;
    std::string err;
    ASSERT_TRUE(decodeSubmit(encodeSubmit(req), &back, &err)) << err;
    EXPECT_EQ(back.engine, req.engine);
    EXPECT_EQ(back.plan.kind, req.plan.kind);
    EXPECT_EQ(back.plan.w, req.plan.w);
    EXPECT_EQ(back.crossCheck, req.crossCheck);
    EXPECT_EQ(back.plan.mode, req.plan.mode);
    EXPECT_TRUE(back.plan.a == req.plan.a);
    EXPECT_TRUE(back.plan.x == req.plan.x);
    EXPECT_TRUE(back.plan.b == req.plan.b);
    EXPECT_TRUE(back.plan.bmat == req.plan.bmat);
    EXPECT_TRUE(back.plan.e == req.plan.e);
}

TEST_P(NetRoundTrip, ResponseEncodeDecodeIsIdentity)
{
    Rng rng(7300 + GetParam());
    WireResponse resp;
    resp.ok = GetParam() % 4 != 0;
    resp.error = resp.ok ? "" : "engine 'nope' not found";
    resp.cacheHit = GetParam() % 2 == 0;
    resp.crossCheckOk = GetParam() % 3 != 0;
    resp.latencyMicros = rng.uniformReal(0, 1e6);
    resp.simCycles = rng.uniformInt(0, 1 << 20);
    resp.y = randomIntVec(rng.uniformInt(0, 12), 7400 + GetParam());
    resp.c = randomIntDense(rng.uniformInt(1, 6),
                            rng.uniformInt(1, 6), 7500 + GetParam());

    WireResponse back;
    std::string err;
    ASSERT_TRUE(decodeResponse(encodeResponse(resp), &back, &err))
        << err;
    EXPECT_EQ(back.ok, resp.ok);
    EXPECT_EQ(back.error, resp.error);
    EXPECT_EQ(back.cacheHit, resp.cacheHit);
    EXPECT_EQ(back.crossCheckOk, resp.crossCheckOk);
    EXPECT_EQ(back.latencyMicros, resp.latencyMicros);
    EXPECT_EQ(back.simCycles, resp.simCycles);
    EXPECT_TRUE(back.y == resp.y);
    EXPECT_TRUE(back.c == resp.c);
}

TEST_P(NetRoundTrip, FrameSurvivesAdversarialChunking)
{
    // Deliver the frame byte stream in random-sized fragments; the
    // decoder must reassemble the identical frame.
    ServeRequest req = drawRequest();
    std::vector<std::uint8_t> bytes = buildSubmitFrame(
        99 + static_cast<std::uint64_t>(GetParam()), req);

    Rng rng(7600 + GetParam());
    FrameDecoder decoder;
    Frame frame;
    std::string err;
    std::size_t off = 0;
    bool got = false;
    while (off < bytes.size()) {
        std::size_t chunk = static_cast<std::size_t>(rng.uniformInt(
            1, 7));
        chunk = std::min(chunk, bytes.size() - off);
        decoder.feed(bytes.data() + off, chunk);
        off += chunk;
        FrameDecoder::Result res = decoder.next(&frame, &err);
        ASSERT_NE(res, FrameDecoder::Result::Malformed) << err;
        if (res == FrameDecoder::Result::Ok) {
            got = true;
            EXPECT_EQ(off, bytes.size()); // complete exactly at the end
        }
    }
    ASSERT_TRUE(got);
    EXPECT_EQ(frame.header.tag,
              99 + static_cast<std::uint64_t>(GetParam()));
    ServeRequest back;
    ASSERT_TRUE(decodeSubmit(frame.payload, &back, &err)) << err;
    EXPECT_TRUE(back.plan.a == req.plan.a);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetRoundTrip, ::testing::Range(0, 18));

TEST(NetProtocol, StatsEncodeDecodeIsIdentity)
{
    ServerStats stats;
    stats.requests = 1234;
    stats.failures = 5;
    stats.crossCheckFailures = 1;
    stats.planCache = {100, 34, 7, 2};
    stats.latency = {1234, 55.5, 40.0, 200.0, 400.25};
    stats.approximatePercentiles = true;
    for (int g = 0; g < 3; ++g) {
        GroupStats group;
        group.key.engine = g == 0 ? "linear" : (g == 1 ? "hex" : "tri");
        group.key.kind = static_cast<ProblemKind>(g);
        group.key.rows = 8 + g;
        group.key.cols = 8;
        group.key.outCols = g == 1 ? 8 : 0;
        group.key.w = 4;
        group.key.mode = static_cast<ExecMode>(g);
        group.requests = 400 + static_cast<std::uint64_t>(g);
        group.cacheHits = 300;
        group.simCycles = 99999;
        group.latency = {400, 50.0, 45.0, 180.0, 300.0};
        stats.groups.push_back(group);
    }

    ServerStats back;
    std::string err;
    ASSERT_TRUE(decodeStats(encodeStats(stats), &back, &err)) << err;
    EXPECT_EQ(back.requests, stats.requests);
    EXPECT_EQ(back.failures, stats.failures);
    EXPECT_EQ(back.crossCheckFailures, stats.crossCheckFailures);
    EXPECT_EQ(back.planCache.hits, stats.planCache.hits);
    EXPECT_EQ(back.planCache.collisions, stats.planCache.collisions);
    EXPECT_EQ(back.latency.p99, stats.latency.p99);
    EXPECT_TRUE(back.approximatePercentiles);
    ASSERT_EQ(back.groups.size(), stats.groups.size());
    for (std::size_t i = 0; i < back.groups.size(); ++i) {
        EXPECT_EQ(back.groups[i].key.engine,
                  stats.groups[i].key.engine);
        EXPECT_EQ(back.groups[i].key.kind, stats.groups[i].key.kind);
        EXPECT_EQ(back.groups[i].key.mode, stats.groups[i].key.mode);
        EXPECT_EQ(back.groups[i].key.outCols,
                  stats.groups[i].key.outCols);
        EXPECT_EQ(back.groups[i].requests, stats.groups[i].requests);
        EXPECT_EQ(back.groups[i].latency.p50,
                  stats.groups[i].latency.p50);
    }
}

TEST(NetProtocol, ErrorEncodeDecodeIsIdentity)
{
    std::string back, err;
    ASSERT_TRUE(decodeError(encodeError("zero diagonal at 3"), &back,
                            &err))
        << err;
    EXPECT_EQ(back, "zero diagonal at 3");
}

TEST(NetProtocol, MetricsEncodeDecodeIsIdentity)
{
    MetricsSnapshot snap;
    snap.counters["serve_requests_total"] = 1234;
    snap.counters["net_bytes_received_total"] = 9999999;
    snap.gauges["serve_queue_depth"] = {3.5, GaugeAgg::Sum};
    snap.gauges["serve_cycles_formula_drift"] = {0.07, GaugeAgg::Max};
    Histogram h;
    for (double v : {0.5, 12.0, 12.5, 900.0, 1e7})
        h.record(v);
    snap.histograms["serve_latency_micros"] = h.snapshot();
    snap.histograms["empty_micros"] = HistogramSnapshot{};

    MetricsSnapshot back;
    std::string err;
    ASSERT_TRUE(decodeMetrics(encodeMetrics(snap), &back, &err))
        << err;
    EXPECT_EQ(back.counters, snap.counters);
    ASSERT_EQ(back.gauges.size(), snap.gauges.size());
    for (const auto &[name, gv] : snap.gauges) {
        EXPECT_EQ(back.gauges[name].value, gv.value) << name;
        EXPECT_EQ(back.gauges[name].agg, gv.agg) << name;
    }
    ASSERT_EQ(back.histograms.size(), snap.histograms.size());
    for (const auto &[name, hist] : snap.histograms) {
        const HistogramSnapshot &b = back.histograms[name];
        EXPECT_EQ(b.count, hist.count) << name;
        EXPECT_EQ(b.sum, hist.sum) << name;
        EXPECT_EQ(b.min, hist.min) << name;
        EXPECT_EQ(b.max, hist.max) << name;
        EXPECT_EQ(b.bucketIndex, hist.bucketIndex) << name;
        EXPECT_EQ(b.bucketCount, hist.bucketCount) << name;
    }
}

TEST(NetProtocol, EmptyMetricsSnapshotRoundTrips)
{
    MetricsSnapshot back;
    std::string err;
    ASSERT_TRUE(
        decodeMetrics(encodeMetrics(MetricsSnapshot{}), &back, &err))
        << err;
    EXPECT_TRUE(back.counters.empty());
    EXPECT_TRUE(back.gauges.empty());
    EXPECT_TRUE(back.histograms.empty());
}

TEST(NetProtocol, TruncatedMetricsPayloadFailsCleanly)
{
    MetricsSnapshot snap;
    snap.counters["a_total"] = 7;
    snap.gauges["g"] = {1.0, GaugeAgg::Max};
    Histogram h;
    h.record(3.0);
    h.record(77.0);
    snap.histograms["h_micros"] = h.snapshot();

    std::vector<std::uint8_t> payload = encodeMetrics(snap);
    for (std::size_t len = 0; len < payload.size(); ++len) {
        std::vector<std::uint8_t> cut(payload.begin(),
                                      payload.begin() + len);
        MetricsSnapshot out;
        std::string err;
        EXPECT_FALSE(decodeMetrics(cut, &out, &err))
            << "len=" << len;
        EXPECT_FALSE(err.empty()) << "len=" << len;
    }
}

TEST(NetProtocol, MetricsWithCorruptHistogramRejected)
{
    Histogram h;
    h.record(5.0);
    h.record(6.0);
    MetricsSnapshot snap;
    snap.histograms["h_micros"] = h.snapshot();
    std::vector<std::uint8_t> payload = encodeMetrics(snap);

    // Flip the histogram's total count so it disagrees with the
    // bucket sum: the decoder must reject, not trust either number.
    // Layout: u32 counter count (0), u32 gauge count (0), u32 hist
    // count, str name, u64 count <- corrupt the low byte.
    std::size_t at = 4 + 4 + 4 + 4 + std::string("h_micros").size();
    payload[at] ^= 0xFF;
    MetricsSnapshot out;
    std::string err;
    EXPECT_FALSE(decodeMetrics(payload, &out, &err));
    EXPECT_FALSE(err.empty());
}

//---------------------------------------------------------------------
// Frame-level malformations (decoder poisons itself)
//---------------------------------------------------------------------

TEST(NetProtocol, BadMagicPoisonsDecoder)
{
    std::vector<std::uint8_t> bytes = buildPingFrame(1);
    bytes[0] ^= 0xFF;
    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    Frame frame;
    std::string err;
    EXPECT_EQ(decoder.next(&frame, &err),
              FrameDecoder::Result::Malformed);
    EXPECT_NE(err.find("magic"), std::string::npos) << err;
    EXPECT_TRUE(decoder.poisoned());

    // The decoder stays poisoned even across good frames.
    std::vector<std::uint8_t> good = buildPingFrame(2);
    decoder.feed(good.data(), good.size());
    EXPECT_EQ(decoder.next(&frame, &err),
              FrameDecoder::Result::Malformed);
}

TEST(NetProtocol, BadVersionPoisonsDecoder)
{
    std::vector<std::uint8_t> bytes = buildPingFrame(1);
    bytes[4] = 0x7F; // version low byte
    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    Frame frame;
    std::string err;
    EXPECT_EQ(decoder.next(&frame, &err),
              FrameDecoder::Result::Malformed);
    EXPECT_NE(err.find("version"), std::string::npos) << err;
}

TEST(NetProtocol, OversizedLengthPrefixPoisonsDecoder)
{
    // A header promising 4 GiB must be rejected from the header
    // alone — long before any allocation.
    WireWriter w;
    w.u32(kWireMagic);
    w.u16(kWireVersion);
    w.u16(static_cast<std::uint16_t>(FrameType::Submit));
    w.u64(1);
    w.u32(0xFFFFFFFFu);
    std::vector<std::uint8_t> bytes = w.take();

    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    Frame frame;
    std::string err;
    EXPECT_EQ(decoder.next(&frame, &err),
              FrameDecoder::Result::Malformed);
    EXPECT_NE(err.find("cap"), std::string::npos) << err;
}

TEST(NetProtocol, UnknownFrameTypeIsDeliveredNotFatal)
{
    // Unknown types keep framing intact; the application layer
    // answers ERROR but the stream survives.
    std::vector<std::uint8_t> bytes =
        buildFrame(static_cast<FrameType>(77), 5, {1, 2, 3});
    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    Frame frame;
    std::string err;
    ASSERT_EQ(decoder.next(&frame, &err), FrameDecoder::Result::Ok);
    EXPECT_EQ(frame.header.type, 77);
    EXPECT_EQ(frame.payload.size(), 3u);

    std::vector<std::uint8_t> good = buildPingFrame(6);
    decoder.feed(good.data(), good.size());
    ASSERT_EQ(decoder.next(&frame, &err), FrameDecoder::Result::Ok);
    EXPECT_EQ(frame.header.tag, 6u);
}

//---------------------------------------------------------------------
// Payload-level malformations (per-request errors)
//---------------------------------------------------------------------

/** A valid matvec SUBMIT payload to mutate. */
std::vector<std::uint8_t>
goodSubmitPayload()
{
    ServeRequest req;
    req.engine = "linear";
    req.plan = EnginePlan::matVec(randomIntDense(3, 3, 1),
                                  randomIntVec(3, 2),
                                  randomIntVec(3, 3), 2);
    return encodeSubmit(req);
}

TEST(NetProtocol, TruncatedSubmitFailsCleanly)
{
    std::vector<std::uint8_t> payload = goodSubmitPayload();
    // Every prefix must fail with a reason, never crash or succeed.
    for (std::size_t len = 0; len < payload.size(); ++len) {
        std::vector<std::uint8_t> cut(payload.begin(),
                                      payload.begin() +
                                          static_cast<std::ptrdiff_t>(
                                              len));
        ServeRequest out;
        std::string err;
        EXPECT_FALSE(decodeSubmit(cut, &out, &err)) << "len=" << len;
        EXPECT_FALSE(err.empty()) << "len=" << len;
    }
}

TEST(NetProtocol, TrailingBytesRejected)
{
    std::vector<std::uint8_t> payload = goodSubmitPayload();
    payload.push_back(0);
    ServeRequest out;
    std::string err;
    EXPECT_FALSE(decodeSubmit(payload, &out, &err));
    EXPECT_NE(err.find("trailing"), std::string::npos) << err;
}

TEST(NetProtocol, UnknownProblemKindRejected)
{
    // Payload layout: str engine (u32 len + bytes), then the kind
    // byte.
    std::vector<std::uint8_t> payload = goodSubmitPayload();
    payload[4 + 6] = 9; // "linear" is 6 bytes
    ServeRequest out;
    std::string err;
    EXPECT_FALSE(decodeSubmit(payload, &out, &err));
    EXPECT_NE(err.find("unknown problem kind"), std::string::npos)
        << err;
}

TEST(NetProtocol, ZeroDimensionMatrixRejected)
{
    ServeRequest req;
    req.engine = "linear";
    // Bypass EnginePlan::matVec (it asserts): craft the plan by hand.
    req.plan.kind = ProblemKind::MatVec;
    req.plan.w = 2;
    req.plan.a = Dense<Scalar>(0, 3);
    req.plan.x = randomIntVec(3, 1);
    req.plan.b = Vec<Scalar>(0);
    ServeRequest out;
    std::string err;
    EXPECT_FALSE(decodeSubmit(encodeSubmit(req), &out, &err));
    EXPECT_NE(err.find("zero-dimension"), std::string::npos) << err;
}

TEST(NetProtocol, NonPositiveArraySizeRejected)
{
    WireWriter w;
    w.str("linear");
    w.u8(0);  // MatVec
    w.i64(0); // w = 0
    w.u8(0);
    ServeRequest out;
    std::string err;
    EXPECT_FALSE(decodeSubmit(w.take(), &out, &err));
    EXPECT_NE(err.find("array size"), std::string::npos) << err;
}

TEST(NetProtocol, HugeDimensionClaimRejected)
{
    // A dense header claiming 2^40 rows backed by no bytes must be
    // rejected by the reader's remaining-bytes bound.
    WireWriter w;
    w.str("linear");
    w.u8(0);
    w.i64(2);
    w.u8(0);
    w.i64(Index(1) << 40); // rows
    w.i64(4);              // cols
    ServeRequest out;
    std::string err;
    EXPECT_FALSE(decodeSubmit(w.take(), &out, &err));
}

TEST(NetProtocol, NegativeVectorLengthRejected)
{
    WireWriter w;
    w.str("tri");
    w.u8(2); // TriSolve
    w.i64(2);
    w.u8(0);
    w.dense(randomIntDense(2, 2, 1));
    w.i64(-5); // b length
    ServeRequest out;
    std::string err;
    EXPECT_FALSE(decodeSubmit(w.take(), &out, &err));
}

/** A SUBMIT payload with the flags byte replaced by @p flags. */
std::vector<std::uint8_t>
submitPayloadWithFlags(std::uint8_t flags)
{
    std::vector<std::uint8_t> payload = goodSubmitPayload();
    // Layout: str "linear" (4 + 6 bytes), kind u8, w i64, flags.
    payload[4 + 6 + 1 + 8] = flags;
    return payload;
}

TEST(NetProtocol, LegacyCrossCheckByteStillDecodes)
{
    // Old encoders wrote the crossCheck byte as 0x00/0x01; in the
    // flags reading that is bit 0 with mode bits 00 = Simulate.
    ServeRequest out;
    std::string err;
    ASSERT_TRUE(
        decodeSubmit(submitPayloadWithFlags(0x00), &out, &err))
        << err;
    EXPECT_FALSE(out.crossCheck);
    EXPECT_EQ(out.plan.mode, ExecMode::Simulate);
    ASSERT_TRUE(
        decodeSubmit(submitPayloadWithFlags(0x01), &out, &err))
        << err;
    EXPECT_TRUE(out.crossCheck);
    EXPECT_EQ(out.plan.mode, ExecMode::Simulate);
}

TEST(NetProtocol, SubmitModeBitsDecode)
{
    ServeRequest out;
    std::string err;
    ASSERT_TRUE(decodeSubmit(
        submitPayloadWithFlags(
            static_cast<std::uint8_t>(1u << kSubmitModeShift)),
        &out, &err))
        << err;
    EXPECT_EQ(out.plan.mode, ExecMode::Fast);
    ASSERT_TRUE(decodeSubmit(
        submitPayloadWithFlags(
            static_cast<std::uint8_t>(2u << kSubmitModeShift)),
        &out, &err))
        << err;
    EXPECT_EQ(out.plan.mode, ExecMode::Validate);
}

TEST(NetProtocol, UnknownExecutionModeRejected)
{
    ServeRequest out;
    std::string err;
    EXPECT_FALSE(decodeSubmit(
        submitPayloadWithFlags(
            static_cast<std::uint8_t>(3u << kSubmitModeShift)),
        &out, &err));
    EXPECT_NE(err.find("unknown execution mode"), std::string::npos)
        << err;
}

TEST(NetProtocol, RecordTraceOverTheWireRejectedNotDropped)
{
    // A client encoding recordTrace would otherwise silently lose
    // the trace — RESPONSE frames cannot carry it — so the server
    // must refuse the request outright.
    ServeRequest req;
    req.engine = "linear";
    req.plan = EnginePlan::matVec(randomIntDense(3, 3, 1),
                                  randomIntVec(3, 2),
                                  randomIntVec(3, 3), 2);
    req.plan.recordTrace = true;
    ServeRequest out;
    std::string err;
    EXPECT_FALSE(decodeSubmit(encodeSubmit(req), &out, &err));
    EXPECT_NE(err.find("no trace"), std::string::npos) << err;
}

TEST(NetProtocol, ReservedSubmitFlagBitsRejected)
{
    // Bit 4 is the trace-context flag now; 5-7 stay reserved.
    for (std::uint8_t bit = 5; bit < 8; ++bit) {
        ServeRequest out;
        std::string err;
        EXPECT_FALSE(decodeSubmit(
            submitPayloadWithFlags(
                static_cast<std::uint8_t>(1u << bit)),
            &out, &err));
        EXPECT_NE(err.find("reserved"), std::string::npos) << err;
    }
}

TEST(NetProtocol, TruncatedStatsAndErrorPayloadsFailCleanly)
{
    ServerStats stats;
    stats.requests = 10;
    GroupStats g;
    g.key.engine = "linear";
    g.requests = 10;
    stats.groups.push_back(g);
    std::vector<std::uint8_t> payload = encodeStats(stats);
    for (std::size_t len = 0; len < payload.size(); len += 3) {
        std::vector<std::uint8_t> cut(payload.begin(),
                                      payload.begin() +
                                          static_cast<std::ptrdiff_t>(
                                              len));
        ServerStats out;
        std::string err;
        EXPECT_FALSE(decodeStats(cut, &out, &err)) << "len=" << len;
    }
    std::string message, err;
    EXPECT_FALSE(decodeError({1, 2}, &message, &err));
}

//---------------------------------------------------------------------
// Cross-tier trace context and the TRACES payload
//---------------------------------------------------------------------

TraceContext
sampleContext()
{
    TraceContext ctx;
    ctx.traceIdHi = 0x0123456789abcdefull;
    ctx.traceIdLo = 0xfedcba9876543210ull;
    ctx.sampled = true;
    ctx.originNanos = 123456789;
    ctx.attempt = 2;
    return ctx;
}

TEST(NetProtocol, SubmitCarriesTraceContextBehindFlagBit)
{
    ServeRequest req;
    req.engine = "linear";
    req.plan = EnginePlan::matVec(randomIntDense(3, 3, 1),
                                  randomIntVec(3, 2),
                                  randomIntVec(3, 3), 2);
    req.traceContext = sampleContext();
    std::vector<std::uint8_t> payload = encodeSubmit(req);
    ServeRequest back;
    std::string err;
    ASSERT_TRUE(decodeSubmit(payload, &back, &err)) << err;
    EXPECT_EQ(back.traceContext.traceIdHi, req.traceContext.traceIdHi);
    EXPECT_EQ(back.traceContext.traceIdLo, req.traceContext.traceIdLo);
    EXPECT_EQ(back.traceContext.sampled, req.traceContext.sampled);
    EXPECT_EQ(back.traceContext.originNanos,
              req.traceContext.originNanos);
    EXPECT_EQ(back.traceContext.attempt, req.traceContext.attempt);
    // A context-free request encodes without the flag bit and decodes
    // to an invalid (absent) context.
    req.traceContext = TraceContext{};
    ASSERT_TRUE(decodeSubmit(encodeSubmit(req), &back, &err)) << err;
    EXPECT_FALSE(back.traceContext.valid());
}

TEST(NetProtocol, TracedSubmitEveryPrefixFailsCleanly)
{
    ServeRequest req;
    req.engine = "linear";
    req.plan = EnginePlan::matVec(randomIntDense(2, 2, 1),
                                  randomIntVec(2, 2),
                                  randomIntVec(2, 3), 1);
    req.traceContext = sampleContext();
    std::vector<std::uint8_t> payload = encodeSubmit(req);
    for (std::size_t len = 0; len < payload.size(); ++len) {
        std::vector<std::uint8_t> cut(payload.begin(),
                                      payload.begin() +
                                          static_cast<std::ptrdiff_t>(
                                              len));
        ServeRequest out;
        std::string err;
        EXPECT_FALSE(decodeSubmit(cut, &out, &err)) << "len=" << len;
        EXPECT_FALSE(err.empty()) << "len=" << len;
    }
}

/** The ctx block starts right after the flags byte; find it by
 *  layout: str engine + kind u8 + w i64 + flags u8. */
std::size_t
submitCtxOffset()
{
    return 4 + 6 + 1 + 8 + 1;
}

TEST(NetProtocol, ReservedTraceContextFlagBitsRejected)
{
    ServeRequest req;
    req.engine = "linear";
    req.plan = EnginePlan::matVec(randomIntDense(3, 3, 1),
                                  randomIntVec(3, 2),
                                  randomIntVec(3, 3), 2);
    req.traceContext = sampleContext();
    std::vector<std::uint8_t> payload = encodeSubmit(req);
    // ctx layout: u64 hi, u64 lo, u8 flags, ...
    payload[submitCtxOffset() + 16] |= 0x80;
    ServeRequest out;
    std::string err;
    EXPECT_FALSE(decodeSubmit(payload, &out, &err));
    EXPECT_NE(err.find("reserved trace-context"), std::string::npos)
        << err;
}

TEST(NetProtocol, AllZeroTraceIdRejected)
{
    ServeRequest req;
    req.engine = "linear";
    req.plan = EnginePlan::matVec(randomIntDense(3, 3, 1),
                                  randomIntVec(3, 2),
                                  randomIntVec(3, 3), 2);
    req.traceContext = sampleContext();
    std::vector<std::uint8_t> payload = encodeSubmit(req);
    for (std::size_t i = 0; i < 16; ++i)
        payload[submitCtxOffset() + i] = 0;
    ServeRequest out;
    std::string err;
    EXPECT_FALSE(decodeSubmit(payload, &out, &err));
    EXPECT_NE(err.find("all-zero trace id"), std::string::npos)
        << err;
}

/** The payload of a FORWARD frame built over goodSubmitPayload(). */
std::vector<std::uint8_t>
forwardPayload(const TraceContext *ctx)
{
    std::vector<std::uint8_t> frame =
        buildForwardFrame(1, 0x1122334455667788ull,
                          goodSubmitPayload(), ctx);
    return std::vector<std::uint8_t>(frame.begin() + 20, frame.end());
}

TEST(NetProtocol, ForwardRoundTripsWithAndWithoutContext)
{
    Digest digest = 0;
    ServeRequest out;
    std::string err;
    ASSERT_TRUE(
        decodeForward(forwardPayload(nullptr), &digest, &out, &err))
        << err;
    EXPECT_EQ(digest, 0x1122334455667788ull);
    EXPECT_FALSE(out.traceContext.valid());

    TraceContext ctx = sampleContext();
    ASSERT_TRUE(
        decodeForward(forwardPayload(&ctx), &digest, &out, &err))
        << err;
    EXPECT_TRUE(out.traceContext.valid());
    EXPECT_EQ(out.traceContext.traceIdHi, ctx.traceIdHi);
    EXPECT_EQ(out.traceContext.attempt, ctx.attempt);
}

TEST(NetProtocol, ForwardContextOverridesEmbeddedSubmitContext)
{
    // The gateway owns the attempt counter: when both the FORWARD
    // envelope and the embedded SUBMIT carry a context, the
    // envelope's wins.
    ServeRequest req;
    req.engine = "linear";
    req.plan = EnginePlan::matVec(randomIntDense(3, 3, 1),
                                  randomIntVec(3, 2),
                                  randomIntVec(3, 3), 2);
    req.traceContext = sampleContext();
    req.traceContext.attempt = 0;
    TraceContext fwd_ctx = sampleContext();
    fwd_ctx.attempt = 2;
    std::vector<std::uint8_t> frame = buildForwardFrame(
        1, 42, encodeSubmit(req), &fwd_ctx);
    std::vector<std::uint8_t> payload(frame.begin() + 20,
                                      frame.end());
    Digest digest = 0;
    ServeRequest out;
    std::string err;
    ASSERT_TRUE(decodeForward(payload, &digest, &out, &err)) << err;
    EXPECT_EQ(out.traceContext.attempt, 2);
}

TEST(NetProtocol, ForwardBadContextMarkerRejected)
{
    std::vector<std::uint8_t> payload = forwardPayload(nullptr);
    payload[8] = 2; // marker must be 0 or 1
    Digest digest = 0;
    ServeRequest out;
    std::string err;
    EXPECT_FALSE(decodeForward(payload, &digest, &out, &err));
    EXPECT_NE(err.find("trace-context marker"), std::string::npos)
        << err;
}

TEST(NetProtocol, TracedForwardEveryPrefixFailsCleanly)
{
    TraceContext ctx = sampleContext();
    std::vector<std::uint8_t> payload = forwardPayload(&ctx);
    for (std::size_t len = 0; len < payload.size(); ++len) {
        std::vector<std::uint8_t> cut(payload.begin(),
                                      payload.begin() +
                                          static_cast<std::ptrdiff_t>(
                                              len));
        Digest digest = 0;
        ServeRequest out;
        std::string err;
        EXPECT_FALSE(decodeForward(cut, &digest, &out, &err))
            << "len=" << len;
        EXPECT_FALSE(err.empty()) << "len=" << len;
    }
}

std::vector<RequestTrace>
sampleTraces()
{
    std::vector<RequestTrace> traces;
    RequestTrace t1;
    t1.requestId = 7;
    t1.label = "linear mv 4x4";
    t1.kind = "matvec";
    t1.ok = true;
    t1.cacheHit = true;
    t1.tier = TraceTier::Gateway;
    t1.ctx = sampleContext();
    for (std::size_t s = 0; s < kTraceStages; ++s)
        t1.stageNanos[s] = 1000 * (s + 1);
    t1.events.push_back({"resubmit attempt 1", 4500});
    t1.events.push_back({"resubmit budget spent", 5500});
    traces.push_back(std::move(t1));
    RequestTrace t2;
    t2.requestId = 9;
    t2.label = "hex mm 2x2";
    t2.kind = "matmul";
    t2.ok = false;
    t2.tier = TraceTier::Backend;
    t2.stageNanos[0] = 100;
    t2.stageNanos[7] = 900;
    traces.push_back(std::move(t2));
    return traces;
}

TEST(NetProtocol, TracesEncodeDecodeIsIdentity)
{
    std::vector<std::uint8_t> payload = encodeTraces(sampleTraces(),
                                                     31);
    std::vector<RequestTrace> back;
    std::uint64_t total = 0;
    std::string err;
    ASSERT_TRUE(decodeTraces(payload, &back, &total, &err)) << err;
    EXPECT_EQ(total, 31u);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].requestId, 7u);
    EXPECT_EQ(back[0].label, "linear mv 4x4");
    EXPECT_EQ(back[0].kind, "matvec");
    EXPECT_TRUE(back[0].ok);
    EXPECT_TRUE(back[0].cacheHit);
    EXPECT_EQ(back[0].tier, TraceTier::Gateway);
    EXPECT_TRUE(back[0].ctx.valid());
    EXPECT_EQ(back[0].ctx.traceIdLo, sampleContext().traceIdLo);
    EXPECT_EQ(back[0].ctx.attempt, 2);
    for (std::size_t s = 0; s < kTraceStages; ++s)
        EXPECT_EQ(back[0].stageNanos[s], 1000 * (s + 1));
    ASSERT_EQ(back[0].events.size(), 2u);
    EXPECT_EQ(back[0].events[0].name, "resubmit attempt 1");
    EXPECT_EQ(back[0].events[0].nanos, 4500u);
    EXPECT_EQ(back[1].tier, TraceTier::Backend);
    EXPECT_FALSE(back[1].ctx.valid());
    EXPECT_TRUE(back[1].events.empty());
}

TEST(NetProtocol, EmptyTracesSnapshotRoundTrips)
{
    std::vector<RequestTrace> back;
    std::uint64_t total = 99;
    std::string err;
    ASSERT_TRUE(decodeTraces(encodeTraces({}, 0), &back, &total,
                             &err))
        << err;
    EXPECT_TRUE(back.empty());
    EXPECT_EQ(total, 0u);
}

TEST(NetProtocol, TracesEveryPrefixFailsCleanly)
{
    std::vector<std::uint8_t> payload = encodeTraces(sampleTraces(),
                                                     31);
    for (std::size_t len = 0; len < payload.size(); ++len) {
        std::vector<std::uint8_t> cut(payload.begin(),
                                      payload.begin() +
                                          static_cast<std::ptrdiff_t>(
                                              len));
        std::vector<RequestTrace> back;
        std::uint64_t total = 0;
        std::string err;
        EXPECT_FALSE(decodeTraces(cut, &back, &total, &err))
            << "len=" << len;
        EXPECT_FALSE(err.empty()) << "len=" << len;
    }
}

TEST(NetProtocol, TracesTrailingBytesRejected)
{
    std::vector<std::uint8_t> payload = encodeTraces(sampleTraces(),
                                                     31);
    payload.push_back(0);
    std::vector<RequestTrace> back;
    std::uint64_t total = 0;
    std::string err;
    EXPECT_FALSE(decodeTraces(payload, &back, &total, &err));
    EXPECT_NE(err.find("trailing"), std::string::npos) << err;
}

TEST(NetProtocol, TracesBadTierAndCountRejected)
{
    std::vector<std::uint8_t> payload = encodeTraces(sampleTraces(),
                                                     31);
    // Record layout after the 12-byte header: u64 id, str label
    // (4 + 13), str kind (4 + 6), ok u8, cacheHit u8, then tier.
    const std::size_t tier_at = 12 + 8 + 4 + 13 + 4 + 6 + 1 + 1;
    {
        std::vector<std::uint8_t> bad = payload;
        bad[tier_at] = 7;
        std::vector<RequestTrace> back;
        std::uint64_t total = 0;
        std::string err;
        EXPECT_FALSE(decodeTraces(bad, &back, &total, &err));
        EXPECT_NE(err.find("tier"), std::string::npos) << err;
    }
    {
        // A count claiming far more records than the payload holds
        // must be rejected up front, not by allocation.
        std::vector<std::uint8_t> bad = payload;
        bad[8] = 0xff;
        bad[9] = 0xff;
        bad[10] = 0xff;
        bad[11] = 0x7f;
        std::vector<RequestTrace> back;
        std::uint64_t total = 0;
        std::string err;
        EXPECT_FALSE(decodeTraces(bad, &back, &total, &err));
        EXPECT_NE(err.find("exceeds payload"), std::string::npos)
            << err;
    }
}

//---------------------------------------------------------------------
// Bulk operand codec: scalars move as raw little-endian bit patterns
//---------------------------------------------------------------------

/** IEEE-754 values that compare wrongly or not at all under ==: the
 *  codec must carry each one's exact bit pattern. */
std::vector<Scalar>
specialScalars()
{
    auto fromBits = [](std::uint64_t bits) {
        Scalar v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    };
    return {
        -0.0,
        std::numeric_limits<Scalar>::denorm_min(),
        fromBits(0x000DEADBEEF00001ull), // subnormal, arbitrary bits
        std::numeric_limits<Scalar>::infinity(),
        -std::numeric_limits<Scalar>::infinity(),
        fromBits(0x7FF0000000C0FFEEull), // signalling NaN, payload
        fromBits(0xFFF80000DEADBEEFull), // negative quiet NaN, payload
        1.0,
    };
}

/** 2×4 matrix holding every special scalar once. */
Dense<Scalar>
specialDense()
{
    const std::vector<Scalar> v = specialScalars();
    Dense<Scalar> d(2, 4);
    std::memcpy(d.raw(), v.data(), v.size() * sizeof(Scalar));
    return d;
}

Vec<Scalar>
specialVec()
{
    const std::vector<Scalar> v = specialScalars();
    Vec<Scalar> out(static_cast<Index>(v.size()));
    std::memcpy(out.raw(), v.data(), v.size() * sizeof(Scalar));
    return out;
}

/** Bit-for-bit equality; == would call NaN unequal to itself and
 *  −0 equal to +0. */
bool
sameBits(const Dense<Scalar> &a, const Dense<Scalar> &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.raw(), b.raw(),
                       a.data().size() * sizeof(Scalar)) == 0;
}

bool
sameBits(const Vec<Scalar> &a, const Vec<Scalar> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.raw(), b.raw(),
                       a.data().size() * sizeof(Scalar)) == 0;
}

/** A mat-mul SUBMIT whose three matrices are all special scalars. */
ServeRequest
specialSubmit()
{
    ServeRequest req;
    req.engine = "mesh";
    req.plan = EnginePlan::matMul(specialDense(),
                                  specialDense().transposed(),
                                  Dense<Scalar>(2, 2), 2);
    req.plan.e = specialDense().topLeft(2, 2);
    return req;
}

TEST(NetProtocol, SubmitCarriesSpecialScalarsBitForBit)
{
    const ServeRequest req = specialSubmit();
    ServeRequest back;
    std::string err;
    ASSERT_TRUE(decodeSubmit(encodeSubmit(req), &back, &err)) << err;
    EXPECT_TRUE(sameBits(back.plan.a, req.plan.a));
    EXPECT_TRUE(sameBits(back.plan.bmat, req.plan.bmat));
    EXPECT_TRUE(sameBits(back.plan.e, req.plan.e));

    ServeRequest mv;
    mv.engine = "linear";
    mv.plan = EnginePlan::matVec(specialDense(), specialVec().slice(0, 4),
                                 specialVec().slice(4, 2), 2);
    ASSERT_TRUE(decodeSubmit(encodeSubmit(mv), &back, &err)) << err;
    EXPECT_TRUE(sameBits(back.plan.a, mv.plan.a));
    EXPECT_TRUE(sameBits(back.plan.x, mv.plan.x));
    EXPECT_TRUE(sameBits(back.plan.b, mv.plan.b));
}

TEST(NetProtocol, ForwardCarriesSpecialScalarsBitForBit)
{
    const ServeRequest req = specialSubmit();
    const std::vector<std::uint8_t> frame =
        buildForwardFrame(5, 0xABCDull, encodeSubmit(req));
    const std::vector<std::uint8_t> payload(frame.begin() + 20,
                                            frame.end());
    Digest digest = 0;
    ServeRequest back;
    std::string err;
    ASSERT_TRUE(decodeForward(payload, &digest, &back, &err)) << err;
    EXPECT_EQ(digest, 0xABCDull);
    EXPECT_TRUE(sameBits(back.plan.a, req.plan.a));
    EXPECT_TRUE(sameBits(back.plan.bmat, req.plan.bmat));
    EXPECT_TRUE(sameBits(back.plan.e, req.plan.e));
}

TEST(NetProtocol, ResponseCarriesSpecialScalarsBitForBit)
{
    WireResponse resp;
    resp.ok = true;
    resp.y = specialVec();
    resp.c = specialDense();
    WireResponse back;
    std::string err;
    ASSERT_TRUE(decodeResponse(encodeResponse(resp), &back, &err))
        << err;
    EXPECT_TRUE(sameBits(back.y, resp.y));
    EXPECT_TRUE(sameBits(back.c, resp.c));
}

TEST(NetProtocol, BulkSubmitEveryPrefixFailsCleanly)
{
    // A 64² mat-vec: each bulk copy must be bounded by the bytes
    // actually present, wherever the payload is cut.
    ServeRequest req;
    req.engine = "linear";
    req.plan = EnginePlan::matVec(randomRealDense(64, 64, 1),
                                  randomIntVec(64, 2),
                                  randomIntVec(64, 3), 8);
    const std::vector<std::uint8_t> payload = encodeSubmit(req);
    ServeRequest back;
    std::string err;
    ASSERT_TRUE(decodeSubmit(payload, &back, &err)) << err;
    EXPECT_TRUE(sameBits(back.plan.a, req.plan.a));
    for (std::size_t len = 0; len < payload.size(); ++len) {
        const std::vector<std::uint8_t> cut(
            payload.begin(),
            payload.begin() + static_cast<std::ptrdiff_t>(len));
        err.clear();
        ASSERT_FALSE(decodeSubmit(cut, &back, &err)) << "len=" << len;
        ASSERT_FALSE(err.empty()) << "len=" << len;
    }
}


//---------------------------------------------------------------------
// The in-place SUBMIT pass and the gateway's digest
//---------------------------------------------------------------------

/** sameBits, also for the operands a problem kind leaves empty
 *  (whose storage may be null). */
template <typename M>
bool
sameOperand(const M &a, const M &b)
{
    return a.data().empty() ? b.data().empty() : sameBits(a, b);
}

/** The bytes an OutFrame puts on the wire, in order. */
std::vector<std::uint8_t>
flatten(const OutFrame &f)
{
    std::vector<std::uint8_t> bytes = f.head;
    if (f.body)
        bytes.insert(bytes.end(),
                     f.body->begin() +
                         static_cast<std::ptrdiff_t>(f.bodyOffset),
                     f.body->end());
    return bytes;
}

/** Real-valued requests of every kind, non-square where the kind
 *  allows it. */
std::vector<ServeRequest>
digestParityRequests()
{
    std::vector<ServeRequest> reqs;
    ServeRequest mv;
    mv.engine = "linear";
    mv.plan = EnginePlan::matVec(randomRealDense(7, 5, 11),
                                 randomRealVec(5, 12),
                                 randomRealVec(7, 13), 3);
    mv.plan.mode = ExecMode::Fast;
    reqs.push_back(mv);
    ServeRequest mm;
    mm.engine = "hex";
    mm.plan = EnginePlan::matMul(randomRealDense(6, 4, 21),
                                 randomRealDense(4, 3, 22),
                                 randomRealDense(6, 3, 23), 2);
    mm.crossCheck = true;
    reqs.push_back(mm);
    ServeRequest tri;
    tri.engine = "tri";
    tri.plan = EnginePlan::triSolve(randomLowerTriangular(9, 31),
                                    randomRealVec(9, 32), 4);
    tri.plan.mode = ExecMode::Validate;
    reqs.push_back(tri);
    ServeRequest wide;
    wide.engine = "mesh";
    wide.plan = EnginePlan::matMul(randomRealDense(2, 9, 41),
                                   randomRealDense(9, 5, 42),
                                   randomRealDense(2, 5, 43), 3);
    reqs.push_back(wide);
    return reqs;
}

TEST(NetProtocol, GatewayDigestEqualsPlanDigest)
{
    for (ServeRequest req : digestParityRequests()) {
        for (bool traced : {false, true}) {
            req.traceContext =
                traced ? sampleContext() : TraceContext();
            const std::vector<std::uint8_t> payload = encodeSubmit(req);
            ServeRequest decoded;
            std::string err;
            ASSERT_TRUE(decodeSubmit(payload, &decoded, &err)) << err;
            const Digest want =
                planDigest(decoded.engine, decoded.plan);
            ASSERT_EQ(want, planDigest(req.engine, req.plan));

            // A SUBMIT at the edge gateway.
            SubmitView view;
            ASSERT_TRUE(checkSubmit(payload.data(), payload.size(),
                                    &view, &err))
                << err;
            EXPECT_EQ(submitDigest(view), want)
                << req.engine << " traced=" << traced;
            EXPECT_EQ(view.traceContext.valid(), traced);

            // The FORWARD that gateway sends, relayed by a second
            // gateway: its envelope is stripped by offset and the
            // embedded SUBMIT hashes to the same digest.
            TraceContext hop = sampleContext();
            hop.attempt = 1;
            const SharedBytes shared =
                std::make_shared<const std::vector<std::uint8_t>>(
                    payload);
            const std::vector<std::uint8_t> fwd_frame = flatten(
                forwardFrame(7, want, shared, 0, traced ? &hop : nullptr));
            const std::vector<std::uint8_t> fwd(
                fwd_frame.begin() + kFrameHeaderBytes, fwd_frame.end());
            Digest carried = 0;
            std::size_t offset = 0;
            SubmitView relayed;
            ASSERT_TRUE(checkForward(fwd.data(), fwd.size(), &carried,
                                     &relayed, &offset, &err))
                << err;
            EXPECT_EQ(carried, want);
            EXPECT_EQ(submitDigest(relayed), want);
            EXPECT_EQ(offset, 9 + (traced ? kTraceContextBytes : 0));
            EXPECT_EQ(relayed.traceContext.attempt, traced ? 1 : 0);

            // And the second hop's FORWARD (old envelope skipped by
            // offset) decodes at a backend to the same request.
            const SharedBytes fwd_shared =
                std::make_shared<const std::vector<std::uint8_t>>(fwd);
            const std::vector<std::uint8_t> second =
                flatten(forwardFrame(8, carried, fwd_shared, offset));
            EXPECT_EQ(second,
                      buildForwardFrame(8, carried, payload, nullptr));
            Digest at_backend = 0;
            ServeRequest served;
            ASSERT_TRUE(decodeForward(
                std::vector<std::uint8_t>(
                    second.begin() + kFrameHeaderBytes, second.end()),
                &at_backend, &served, &err))
                << err;
            EXPECT_EQ(at_backend, want);
            EXPECT_EQ(planDigest(served.engine, served.plan), want);
            EXPECT_TRUE(sameOperand(served.plan.a, req.plan.a));
            EXPECT_TRUE(sameOperand(served.plan.bmat, req.plan.bmat));
        }
    }
}

TEST(NetProtocol, CheckedViewMaterialisesTheDecodedRequest)
{
    for (const ServeRequest &req : digestParityRequests()) {
        const std::vector<std::uint8_t> payload = encodeSubmit(req);
        SubmitView view;
        std::string err;
        ASSERT_TRUE(
            checkSubmit(payload.data(), payload.size(), &view, &err))
            << err;
        ServeRequest out;
        materialiseSubmit(view, &out);
        EXPECT_EQ(out.engine, req.engine);
        EXPECT_EQ(out.plan.kind, req.plan.kind);
        EXPECT_EQ(out.plan.w, req.plan.w);
        EXPECT_EQ(out.plan.mode, req.plan.mode);
        EXPECT_EQ(out.crossCheck, req.crossCheck);
        EXPECT_TRUE(sameOperand(out.plan.a, req.plan.a));
        EXPECT_TRUE(sameOperand(out.plan.x, req.plan.x));
        EXPECT_TRUE(sameOperand(out.plan.b, req.plan.b));
        EXPECT_TRUE(sameOperand(out.plan.bmat, req.plan.bmat));
        EXPECT_TRUE(sameOperand(out.plan.e, req.plan.e));
    }
}

//---------------------------------------------------------------------
// Frames as header + shared payload
//---------------------------------------------------------------------

TEST(NetOutQueue, ForwardFrameSharesThePayloadBuffer)
{
    // A FORWARD, and every resubmit of it, sends the client's own
    // payload buffer: one buffer, more owners, no second copy.
    const std::vector<std::uint8_t> payload = goodSubmitPayload();
    const SharedBytes shared =
        std::make_shared<const std::vector<std::uint8_t>>(payload);
    const TraceContext ctx = sampleContext();
    TraceContext again = ctx;
    again.attempt = static_cast<std::uint8_t>(ctx.attempt + 1);
    OutFrame first = forwardFrame(3, 0xabcdull, shared, 0, &ctx);
    OutFrame resubmit = forwardFrame(4, 0xabcdull, shared, 0, &again);
    EXPECT_EQ(first.body.get(), shared.get());
    EXPECT_EQ(resubmit.body.get(), shared.get());
    EXPECT_EQ(shared.use_count(), 3);
    EXPECT_EQ(first.head.size(),
              kFrameHeaderBytes + 9 + kTraceContextBytes);
    EXPECT_EQ(flatten(first),
              buildForwardFrame(3, 0xabcdull, payload, &ctx));
    EXPECT_EQ(flatten(resubmit),
              buildForwardFrame(4, 0xabcdull, payload, &again));
}

TEST(NetOutQueue, RelayFrameMovesThePayloadBuffer)
{
    std::vector<std::uint8_t> payload = encodeError("backend said no");
    const std::vector<std::uint8_t> want =
        buildFrame(FrameType::Error, 9, payload);
    const std::uint8_t *bytes = payload.data();
    OutFrame relay = relayFrame(FrameType::Error, 9, std::move(payload));
    EXPECT_EQ(relay.head.size(), kFrameHeaderBytes);
    ASSERT_TRUE(relay.body);
    EXPECT_EQ(relay.body->data(), bytes); // moved, not copied
    EXPECT_EQ(flatten(relay), want);
}

TEST(NetOutQueue, PartialWritesKeepTheQueuedCountExact)
{
    // A small send buffer forces many partial sendmsg() calls that
    // end inside heads, inside the shared body, and between frames.
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    int sndbuf = 4096;
    ::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
    ::fcntl(sv[0], F_SETFL, ::fcntl(sv[0], F_GETFL) | O_NONBLOCK);
    ::fcntl(sv[1], F_SETFL, ::fcntl(sv[1], F_GETFL) | O_NONBLOCK);

    ServeRequest req;
    req.engine = "linear";
    req.plan = EnginePlan::matVec(randomRealDense(48, 48, 5),
                                  randomRealVec(48, 6),
                                  randomRealVec(48, 7), 8);
    const SharedBytes payload =
        std::make_shared<const std::vector<std::uint8_t>>(
            encodeSubmit(req));
    OutQueue q;
    std::vector<std::uint8_t> expected;
    auto push = [&](OutFrame f) {
        const std::vector<std::uint8_t> bytes = flatten(f);
        expected.insert(expected.end(), bytes.begin(), bytes.end());
        q.push(std::move(f));
    };
    push(forwardFrame(1, 77, payload, 0));
    push(buildPingFrame(2));
    push(forwardFrame(3, 78, payload, 0, nullptr));
    push(buildErrorFrame(4, "five"));
    push(relayFrame(FrameType::Response, 5,
                    std::vector<std::uint8_t>(3000, 0x5a)));
    push(forwardFrame(6, 79, payload, 0));
    ASSERT_EQ(q.queuedBytes(), expected.size());

    std::vector<std::uint8_t> received;
    std::size_t sent = 0;
    int partial_writes = 0;
    for (int spins = 0; received.size() < expected.size(); ++spins) {
        ASSERT_LT(spins, 1000000) << "no progress";
        const ssize_t n = q.flush(sv[0]);
        ASSERT_GE(n, 0) << std::strerror(errno);
        sent += static_cast<std::size_t>(n);
        if (n > 0 && !q.empty())
            ++partial_writes;
        ASSERT_EQ(q.queuedBytes(), expected.size() - sent);
        ASSERT_EQ(q.empty(), sent == expected.size());
        std::uint8_t chunk[700];
        const ssize_t got = ::recv(sv[1], chunk, sizeof(chunk), 0);
        if (got > 0)
            received.insert(received.end(), chunk, chunk + got);
    }
    EXPECT_EQ(received, expected);
    EXPECT_GT(partial_writes, 10);
    EXPECT_EQ(payload.use_count(), 1); // sent frames released it
    ::close(sv[0]);
    ::close(sv[1]);
}

} // namespace
} // namespace sap
