#include "net/protocol.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include "base/logging.hh"
#include "serve/plan_cache.hh"

namespace sap {

// Scalars travel as little-endian IEEE-754 bit patterns; on a
// little-endian host that is their in-memory layout, so operands move
// with one bulk copy each (WireWriter::scalars, and the WireReader
// operands located by denseAt/vecAt).
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "the bulk scalar codec assumes a little-endian host");
static_assert(sizeof(Scalar) == 8, "Scalar must be a 64-bit double");

namespace {

/** Set @p error (when non-null) and return false. */
bool
failDecode(std::string *error, const std::string &reason)
{
    if (error)
        *error = reason;
    return false;
}

} // namespace

std::string
frameTypeName(std::uint16_t type)
{
    switch (static_cast<FrameType>(type)) {
    case FrameType::Submit:
        return "SUBMIT";
    case FrameType::Response:
        return "RESPONSE";
    case FrameType::Stats:
        return "STATS";
    case FrameType::Ping:
        return "PING";
    case FrameType::Error:
        return "ERROR";
    case FrameType::Metrics:
        return "METRICS";
    case FrameType::Forward:
        return "FORWARD";
    case FrameType::Traces:
        return "TRACES";
    }
    return "type " + std::to_string(type);
}

//----------------------------------------------------------------------
// WireWriter
//----------------------------------------------------------------------

void
WireWriter::u16(std::uint16_t v)
{
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
}

void
WireWriter::u32(std::uint32_t v)
{
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
}

void
WireWriter::u64(std::uint64_t v)
{
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
}

void
WireWriter::f64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
WireWriter::str(const std::string &s)
{
    u32(static_cast<std::uint32_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void
WireWriter::scalars(const Scalar *p, Index n)
{
    append(reinterpret_cast<const std::uint8_t *>(p),
           static_cast<std::size_t>(n) * sizeof(Scalar));
}

void
WireWriter::vec(const Vec<Scalar> &v)
{
    i64(v.size());
    scalars(v.raw(), v.size());
}

void
WireWriter::dense(const Dense<Scalar> &m)
{
    i64(m.rows());
    i64(m.cols());
    scalars(m.raw(), m.rows() * m.cols());
}

//----------------------------------------------------------------------
// WireReader
//----------------------------------------------------------------------

bool
WireReader::u8(std::uint8_t *out)
{
    if (remaining() < 1)
        return false;
    *out = data_[pos_++];
    return true;
}

bool
WireReader::u16(std::uint16_t *out)
{
    std::uint8_t lo, hi;
    if (!u8(&lo) || !u8(&hi))
        return false;
    *out = static_cast<std::uint16_t>(lo |
                                      (static_cast<unsigned>(hi) << 8));
    return true;
}

bool
WireReader::u32(std::uint32_t *out)
{
    std::uint16_t lo, hi;
    if (!u16(&lo) || !u16(&hi))
        return false;
    *out = lo | (static_cast<std::uint32_t>(hi) << 16);
    return true;
}

bool
WireReader::u64(std::uint64_t *out)
{
    std::uint32_t lo, hi;
    if (!u32(&lo) || !u32(&hi))
        return false;
    *out = lo | (static_cast<std::uint64_t>(hi) << 32);
    return true;
}

bool
WireReader::i64(std::int64_t *out)
{
    std::uint64_t v;
    if (!u64(&v))
        return false;
    *out = static_cast<std::int64_t>(v);
    return true;
}

bool
WireReader::f64(double *out)
{
    std::uint64_t bits;
    if (!u64(&bits))
        return false;
    std::memcpy(out, &bits, sizeof(bits));
    return true;
}

bool
WireReader::str(std::string *out)
{
    std::uint32_t len;
    if (!u32(&len) || len > kMaxWireString || len > remaining())
        return false;
    out->assign(reinterpret_cast<const char *>(data_ + pos_), len);
    pos_ += len;
    return true;
}

bool
WireReader::vecAt(WireOperand *out)
{
    std::int64_t n;
    if (!i64(&n) || n < 0 || n > kMaxWireDim ||
        static_cast<std::uint64_t>(n) > remaining() / sizeof(Scalar))
        return false;
    *out = {data_ + pos_, n, 1};
    pos_ += static_cast<std::size_t>(n) * sizeof(Scalar);
    return true;
}

bool
WireReader::denseAt(WireOperand *out)
{
    std::int64_t rows, cols;
    if (!i64(&rows) || !i64(&cols))
        return false;
    if (rows < 0 || cols < 0 || rows > kMaxWireDim ||
        cols > kMaxWireDim)
        return false;
    // rows*cols fits in 64 bits after the per-dimension caps; the
    // remaining() bound rejects lengths the payload cannot back
    // before anything is allocated.
    std::uint64_t count = static_cast<std::uint64_t>(rows) *
                          static_cast<std::uint64_t>(cols);
    if (count > remaining() / sizeof(Scalar))
        return false;
    *out = {data_ + pos_, rows, cols};
    pos_ += static_cast<std::size_t>(count) * sizeof(Scalar);
    return true;
}

namespace {

/** The elements of a located operand, in one bulk copy. */
void
copyScalars(const WireOperand &op, Scalar *out)
{
    const std::size_t len =
        static_cast<std::size_t>(op.rows * op.cols) * sizeof(Scalar);
    if (len != 0)
        std::memcpy(out, op.data, len);
}

Vec<Scalar>
materialiseVec(const WireOperand &op)
{
    Vec<Scalar> v(op.rows);
    copyScalars(op, v.raw());
    return v;
}

Dense<Scalar>
materialiseDense(const WireOperand &op)
{
    Dense<Scalar> m(op.rows, op.cols);
    copyScalars(op, m.raw());
    return m;
}

} // namespace

bool
WireReader::vec(Vec<Scalar> *out)
{
    WireOperand op;
    if (!vecAt(&op))
        return false;
    *out = materialiseVec(op);
    return true;
}

bool
WireReader::dense(Dense<Scalar> *out)
{
    WireOperand op;
    if (!denseAt(&op))
        return false;
    *out = materialiseDense(op);
    return true;
}

//----------------------------------------------------------------------
// FrameDecoder
//----------------------------------------------------------------------

namespace {

/** Bytes waiting in @p fd's receive queue (0 when unknown). */
std::size_t
queuedOn(int fd)
{
    int n = 0;
    if (::ioctl(fd, FIONREAD, &n) != 0 || n < 0)
        return 0;
    return static_cast<std::size_t>(n);
}

} // namespace

void
FrameDecoder::poison(std::string reason)
{
    poisoned_ = true;
    poison_reason_ = std::move(reason);
    // The stream is dead: hold nothing for it.
    stage_.reset();
    stage_cap_ = 0;
    begin_ = end_ = 0;
    partial_ = Frame();
    partial_have_ = 0;
    partial_active_ = false;
}

bool
FrameDecoder::checkHeader(FrameHeader *out)
{
    WireReader r(stage_.get() + begin_, end_ - begin_);
    FrameHeader h;
    // Reads cannot fail: the caller staged kFrameHeaderBytes.
    r.u32(&h.magic);
    r.u16(&h.version);
    r.u16(&h.type);
    r.u64(&h.tag);
    r.u32(&h.payloadLen);

    if (h.magic != kWireMagic) {
        char hex[16];
        std::snprintf(hex, sizeof(hex), "%08x", h.magic);
        poison("bad magic 0x" + std::string(hex));
    } else if (h.version != kWireVersion) {
        poison("unsupported protocol version " +
               std::to_string(h.version) + " (speaking " +
               std::to_string(kWireVersion) + ")");
    } else if (h.payloadLen > max_payload_) {
        poison("payload length " + std::to_string(h.payloadLen) +
               " exceeds the " + std::to_string(max_payload_) +
               "-byte cap");
    }
    *out = h;
    return !poisoned_;
}

void
FrameDecoder::stageRoom(std::size_t n)
{
    if (begin_ == end_)
        begin_ = end_ = 0;
    if (stage_cap_ - end_ >= n)
        return;
    const std::size_t live = end_ - begin_;
    if (stage_cap_ - live >= n) {
        std::memmove(stage_.get(), stage_.get() + begin_, live);
    } else {
        const std::size_t cap =
            std::max({kStagingBytes, 2 * stage_cap_, live + n});
        // Default-initialized: receive space is never zero-filled.
        std::unique_ptr<std::uint8_t[]> grown(new std::uint8_t[cap]);
        if (live != 0)
            std::memcpy(grown.get(), stage_.get() + begin_, live);
        stage_ = std::move(grown);
        stage_cap_ = cap;
    }
    begin_ = 0;
    end_ = live;
}

void
FrameDecoder::fitStage()
{
    const std::size_t live = end_ - begin_;
    if (live == stage_cap_)
        return;
    std::unique_ptr<std::uint8_t[]> fit;
    if (live != 0) {
        fit.reset(new std::uint8_t[live]);
        std::memcpy(fit.get(), stage_.get() + begin_, live);
    }
    stage_ = std::move(fit);
    stage_cap_ = live;
    begin_ = 0;
    end_ = live;
}

void
FrameDecoder::growPartial(std::size_t extra, int fd)
{
    // Grow with what has arrived — double, or make room for the
    // bytes in hand or already waiting in the socket, at least one
    // staging area — never straight to the announced length, which
    // a stalled peer need never back.
    const std::size_t len = partial_.header.payloadLen;
    const std::size_t have = partial_have_;
    std::size_t step = std::max({have, extra, kStagingBytes});
    if (fd >= 0 && len - have > step)
        step = std::max(step, queuedOn(fd));
    const std::size_t target = std::min<std::size_t>(len, have + step);
    if (target <= partial_.payload.size())
        return;
    partial_.payload.reserve(target);
    partial_.payload.resize(target);
}

void
FrameDecoder::startPartial(int fd)
{
    if (partial_active_ || poisoned_ ||
        end_ - begin_ < kFrameHeaderBytes)
        return;
    FrameHeader h;
    if (!checkHeader(&h))
        return;
    const std::size_t staged = end_ - begin_ - kFrameHeaderBytes;
    if (staged >= h.payloadLen)
        return; // complete: next() takes it from the staging area
    // The staged bytes are all this frame's (it is incomplete), so
    // they move over and the staging area empties.
    partial_.header = h;
    partial_have_ = 0;
    partial_active_ = true;
    growPartial(staged, fd);
    if (staged != 0)
        std::memcpy(partial_.payload.data(),
                    stage_.get() + begin_ + kFrameHeaderBytes, staged);
    partial_have_ = staged;
    begin_ = end_ = 0;
}

void
FrameDecoder::feed(const std::uint8_t *data, std::size_t len)
{
    if (poisoned_)
        return; // the stream is dead; don't accumulate garbage
    if (partial_active_ && partial_have_ < partial_.header.payloadLen) {
        const std::size_t n = std::min<std::size_t>(
            len, partial_.header.payloadLen - partial_have_);
        if (partial_have_ + n > partial_.payload.size())
            growPartial(n, -1);
        std::memcpy(partial_.payload.data() + partial_have_, data, n);
        partial_have_ += n;
        data += n;
        len -= n;
    }
    if (len == 0)
        return;
    stageRoom(len);
    std::memcpy(stage_.get() + end_, data, len);
    end_ += len;
    startPartial(-1);
}

ssize_t
FrameDecoder::receive(int fd)
{
    startPartial(fd);
    ssize_t n;
    if (partial_active_ && partial_have_ < partial_.header.payloadLen) {
        if (partial_have_ == partial_.payload.size())
            growPartial(0, fd);
        // Never past this frame's end: what follows it is staged.
        n = ::recv(fd, partial_.payload.data() + partial_have_,
                   partial_.payload.size() - partial_have_, 0);
        if (n > 0)
            partial_have_ += static_cast<std::size_t>(n);
    } else {
        stageRoom(kStagingBytes / 2);
        n = ::recv(fd, stage_.get() + end_, stage_cap_ - end_, 0);
        if (n > 0 && !poisoned_)
            end_ += static_cast<std::size_t>(n);
    }
    if (n <= 0 || poisoned_) {
        // Nothing more to read for now: an idle connection keeps no
        // staging area beyond its unconsumed bytes (at most a split
        // header once its frames are drained).
        const int saved = errno;
        fitStage();
        errno = saved;
    }
    return n;
}

FrameDecoder::Result
FrameDecoder::next(Frame *out, std::string *error)
{
    if (poisoned_) {
        if (error)
            *error = poison_reason_;
        return Result::Malformed;
    }
    if (partial_active_) {
        if (partial_have_ < partial_.header.payloadLen)
            return Result::NeedMore;
        // Received in place: hand the buffer over, no copy.
        *out = std::move(partial_);
        partial_ = Frame();
        partial_have_ = 0;
        partial_active_ = false;
        return Result::Ok;
    }
    if (end_ - begin_ < kFrameHeaderBytes)
        return Result::NeedMore;
    FrameHeader h;
    if (!checkHeader(&h)) {
        if (error)
            *error = poison_reason_;
        return Result::Malformed;
    }
    if (end_ - begin_ - kFrameHeaderBytes < h.payloadLen)
        return Result::NeedMore;

    out->header = h;
    const std::uint8_t *p = stage_.get() + begin_ + kFrameHeaderBytes;
    out->payload.assign(p, p + h.payloadLen);
    begin_ += kFrameHeaderBytes + h.payloadLen;
    return Result::Ok;
}

//----------------------------------------------------------------------
// OutQueue
//----------------------------------------------------------------------

void
OutQueue::push(OutFrame frame)
{
    const std::size_t n = frame.size();
    if (n == 0)
        return;
    queued_ += n;
    frames_.push_back(std::move(frame));
}

ssize_t
OutQueue::flush(int fd)
{
    constexpr int kMaxIov = 64;
    std::size_t total = 0;
    while (!frames_.empty()) {
        // Gather head and body of as many frames as fit, skipping
        // what an earlier partial write already sent.
        iovec iov[kMaxIov];
        int count = 0;
        std::size_t want = 0;
        std::size_t skip = front_sent_;
        auto add = [&](const std::uint8_t *p, std::size_t len) {
            if (skip >= len) {
                skip -= len;
                return;
            }
            iov[count].iov_base = const_cast<std::uint8_t *>(p + skip);
            iov[count].iov_len = len - skip;
            want += len - skip;
            skip = 0;
            ++count;
        };
        for (auto it = frames_.begin();
             it != frames_.end() && count + 2 <= kMaxIov; ++it) {
            add(it->head.data(), it->head.size());
            if (it->body)
                add(it->body->data() + it->bodyOffset,
                    it->body->size() - it->bodyOffset);
        }
        msghdr msg{};
        msg.msg_iov = iov;
        msg.msg_iovlen = static_cast<std::size_t>(count);
        ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            return -1;
        }
        const std::size_t sent = static_cast<std::size_t>(n);
        total += sent;
        queued_ -= sent;
        front_sent_ += sent;
        while (!frames_.empty() && front_sent_ >= frames_.front().size()) {
            front_sent_ -= frames_.front().size();
            frames_.pop_front();
        }
        if (sent < want)
            break; // the socket buffer is full
    }
    return static_cast<ssize_t>(total);
}

//----------------------------------------------------------------------
// Frame builders
//----------------------------------------------------------------------

namespace {

/** A frame header announcing @p payload_len bytes. */
void
writeHeader(WireWriter &w, FrameType type, std::uint64_t tag,
            std::size_t payload_len)
{
    // The len field is u32; silently wrapping would emit a corrupt
    // frame, so an over-large payload is a caller bug.
    SAP_ASSERT(payload_len <= 0xFFFFFFFFu, "frame payload of ",
               payload_len, " bytes exceeds the u32 length field");
    w.u32(kWireMagic);
    w.u16(kWireVersion);
    w.u16(static_cast<std::uint16_t>(type));
    w.u64(tag);
    w.u32(static_cast<std::uint32_t>(payload_len));
}

/** Set the length field of the header at the front of @p head. */
void
patchLength(std::vector<std::uint8_t> &head, std::size_t payload_len)
{
    SAP_ASSERT(payload_len <= 0xFFFFFFFFu, "frame payload of ",
               payload_len, " bytes exceeds the u32 length field");
    for (int i = 0; i < 4; ++i)
        head[16 + i] = static_cast<std::uint8_t>(payload_len >> (8 * i));
}

/**
 * One encode pass for a whole frame: header, then @p encode writes
 * the payload behind it, then the length field is patched — no
 * payload buffer to concatenate afterwards.
 */
template <typename Encode>
std::vector<std::uint8_t>
framed(FrameType type, std::uint64_t tag, Encode &&encode)
{
    WireWriter w;
    writeHeader(w, type, tag, 0);
    encode(w);
    std::vector<std::uint8_t> frame = w.take();
    patchLength(frame, frame.size() - kFrameHeaderBytes);
    return frame;
}

void
writeSubmit(WireWriter &w, const ServeRequest &req);
void
writeResponse(WireWriter &w, const WireResponse &resp);
void
writeStats(WireWriter &w, const ServerStats &stats);
void
writeMetrics(WireWriter &w, const MetricsSnapshot &snap);
void
writeTraces(WireWriter &w, const std::vector<RequestTrace> &traces,
            std::uint64_t totalCommitted);
void
writeError(WireWriter &w, const std::string &message);

/** The FORWARD envelope: digest, context marker, optional context. */
void
writeForwardEnvelope(WireWriter &w, Digest digest,
                     const TraceContext *ctx)
{
    w.u64(digest);
    if (ctx && ctx->valid()) {
        w.u8(1);
        encodeTraceContext(w, *ctx);
    } else {
        w.u8(0);
    }
}

} // namespace

std::vector<std::uint8_t>
buildFrame(FrameType type, std::uint64_t tag,
           const std::vector<std::uint8_t> &payload)
{
    return framed(type, tag, [&](WireWriter &w) {
        w.reserve(payload.size());
        w.append(payload.data(), payload.size());
    });
}

OutFrame
relayFrame(FrameType type, std::uint64_t tag,
           std::vector<std::uint8_t> payload)
{
    WireWriter w;
    writeHeader(w, type, tag, payload.size());
    OutFrame f(w.take());
    f.body = std::make_shared<const std::vector<std::uint8_t>>(
        std::move(payload));
    return f;
}

OutFrame
forwardFrame(std::uint64_t tag, Digest digest, const SharedBytes &payload,
             std::size_t offset, const TraceContext *ctx)
{
    OutFrame f(framed(FrameType::Forward, tag, [&](WireWriter &w) {
        writeForwardEnvelope(w, digest, ctx);
    }));
    // The header announces envelope + body.
    patchLength(f.head, f.head.size() - kFrameHeaderBytes +
                            payload->size() - offset);
    f.body = payload;
    f.bodyOffset = offset;
    return f;
}

std::vector<std::uint8_t>
buildSubmitFrame(std::uint64_t tag, const ServeRequest &req)
{
    return framed(FrameType::Submit, tag,
                  [&](WireWriter &w) { writeSubmit(w, req); });
}

std::vector<std::uint8_t>
buildResponseFrame(std::uint64_t tag, const WireResponse &resp)
{
    return framed(FrameType::Response, tag,
                  [&](WireWriter &w) { writeResponse(w, resp); });
}

std::vector<std::uint8_t>
buildStatsRequestFrame(std::uint64_t tag)
{
    return framed(FrameType::Stats, tag, [](WireWriter &) {});
}

std::vector<std::uint8_t>
buildStatsFrame(std::uint64_t tag, const ServerStats &stats)
{
    return framed(FrameType::Stats, tag,
                  [&](WireWriter &w) { writeStats(w, stats); });
}

std::vector<std::uint8_t>
buildMetricsRequestFrame(std::uint64_t tag)
{
    return framed(FrameType::Metrics, tag, [](WireWriter &) {});
}

std::vector<std::uint8_t>
buildMetricsFrame(std::uint64_t tag, const MetricsSnapshot &snap)
{
    return framed(FrameType::Metrics, tag,
                  [&](WireWriter &w) { writeMetrics(w, snap); });
}

std::vector<std::uint8_t>
buildForwardFrame(std::uint64_t tag, Digest digest,
                  const std::vector<std::uint8_t> &submit_payload,
                  const TraceContext *ctx)
{
    return framed(FrameType::Forward, tag, [&](WireWriter &w) {
        writeForwardEnvelope(w, digest, ctx);
        w.reserve(submit_payload.size());
        w.append(submit_payload.data(), submit_payload.size());
    });
}

std::vector<std::uint8_t>
buildTracesRequestFrame(std::uint64_t tag)
{
    return framed(FrameType::Traces, tag, [](WireWriter &) {});
}

std::vector<std::uint8_t>
buildTracesFrame(std::uint64_t tag,
                 const std::vector<RequestTrace> &traces,
                 std::uint64_t totalCommitted)
{
    return framed(FrameType::Traces, tag, [&](WireWriter &w) {
        writeTraces(w, traces, totalCommitted);
    });
}

std::vector<std::uint8_t>
buildPingFrame(std::uint64_t tag)
{
    return framed(FrameType::Ping, tag, [](WireWriter &) {});
}

std::vector<std::uint8_t>
buildErrorFrame(std::uint64_t tag, const std::string &message)
{
    return framed(FrameType::Error, tag,
                  [&](WireWriter &w) { writeError(w, message); });
}

//----------------------------------------------------------------------
// Trace-context block
//----------------------------------------------------------------------

void
encodeTraceContext(WireWriter &w, const TraceContext &ctx)
{
    w.u64(ctx.traceIdHi);
    w.u64(ctx.traceIdLo);
    w.u8(ctx.sampled ? kTraceCtxFlagSampled : 0);
    w.u64(ctx.originNanos);
    w.u8(ctx.attempt);
}

bool
decodeTraceContext(WireReader &r, TraceContext *out, const char *what,
                   std::string *error)
{
    TraceContext ctx;
    std::uint8_t flags;
    if (!r.u64(&ctx.traceIdHi) || !r.u64(&ctx.traceIdLo) ||
        !r.u8(&flags) || !r.u64(&ctx.originNanos) ||
        !r.u8(&ctx.attempt))
        return failDecode(error, std::string("truncated ") + what +
                                     ": trace context");
    if ((flags & ~kTraceCtxFlagSampled) != 0)
        return failDecode(error,
                          std::string("reserved trace-context flag "
                                      "bits set in ") +
                              what);
    ctx.sampled = (flags & kTraceCtxFlagSampled) != 0;
    if (!ctx.valid())
        return failDecode(error, std::string("all-zero trace id in ") +
                                     what);
    *out = ctx;
    return true;
}

//----------------------------------------------------------------------
// SUBMIT payload
//----------------------------------------------------------------------

namespace {

/** Encoded SUBMIT size of @p req's operands (for one reservation). */
std::size_t
submitOperandBytes(const EnginePlan &plan)
{
    auto dense = [](const Dense<Scalar> &m) {
        return 16 + static_cast<std::size_t>(m.rows() * m.cols()) * 8;
    };
    auto vec = [](const Vec<Scalar> &v) {
        return 8 + static_cast<std::size_t>(v.size()) * 8;
    };
    switch (plan.kind) {
    case ProblemKind::MatVec:
        return dense(plan.a) + vec(plan.x) + vec(plan.b);
    case ProblemKind::MatMul:
        return dense(plan.a) + dense(plan.bmat) + dense(plan.e);
    case ProblemKind::TriSolve:
        return dense(plan.a) + vec(plan.b);
    }
    return 0;
}

void
writeSubmit(WireWriter &w, const ServeRequest &req)
{
    w.reserve(4 + req.engine.size() + 10 + kTraceContextBytes +
              submitOperandBytes(req.plan));
    w.str(req.engine);
    w.u8(static_cast<std::uint8_t>(req.plan.kind));
    w.i64(req.plan.w);
    // Flags byte. recordTrace is encoded even though no RESPONSE
    // frame could carry the trace back: the server rejects the bit
    // with a clear error instead of silently dropping the data a
    // client asked for.
    std::uint8_t flags = 0;
    if (req.crossCheck)
        flags |= kSubmitFlagCrossCheck;
    flags |= static_cast<std::uint8_t>(
        static_cast<std::uint8_t>(req.plan.mode) << kSubmitModeShift);
    if (req.plan.recordTrace)
        flags |= kSubmitFlagRecordTrace;
    if (req.traceContext.valid())
        flags |= kSubmitFlagTraceContext;
    w.u8(flags);
    if (req.traceContext.valid())
        encodeTraceContext(w, req.traceContext);
    switch (req.plan.kind) {
    case ProblemKind::MatVec:
        w.dense(req.plan.a);
        w.vec(req.plan.x);
        w.vec(req.plan.b);
        break;
    case ProblemKind::MatMul:
        w.dense(req.plan.a);
        w.dense(req.plan.bmat);
        w.dense(req.plan.e);
        break;
    case ProblemKind::TriSolve:
        w.dense(req.plan.a);
        w.vec(req.plan.b);
        break;
    }
}

} // namespace

std::vector<std::uint8_t>
encodeSubmit(const ServeRequest &req)
{
    WireWriter w;
    writeSubmit(w, req);
    return w.take();
}

bool
checkSubmit(const std::uint8_t *data, std::size_t size, SubmitView *out,
            std::string *error)
{
    WireReader r(data, size);
    SubmitView v;
    if (!r.str(&v.engine))
        return failDecode(error, "truncated SUBMIT: engine name");
    std::uint8_t kind_byte;
    if (!r.u8(&kind_byte))
        return failDecode(error, "truncated SUBMIT: problem kind");
    if (kind_byte > static_cast<std::uint8_t>(ProblemKind::TriSolve))
        return failDecode(error, "unknown problem kind " +
                                     std::to_string(kind_byte));
    v.kind = static_cast<ProblemKind>(kind_byte);
    if (!r.i64(&v.w))
        return failDecode(error, "truncated SUBMIT: array size");
    if (v.w < 1 || v.w > kMaxWireDim)
        return failDecode(error, "array size w=" + std::to_string(v.w) +
                                     " out of range");
    std::uint8_t flags;
    if (!r.u8(&flags))
        return failDecode(error, "truncated SUBMIT: flags");
    v.crossCheck = (flags & kSubmitFlagCrossCheck) != 0;
    const std::uint8_t mode_bits =
        (flags >> kSubmitModeShift) & kSubmitModeMask;
    if (mode_bits > static_cast<std::uint8_t>(ExecMode::Validate))
        return failDecode(error, "unknown execution mode " +
                                     std::to_string(mode_bits));
    v.mode = static_cast<ExecMode>(mode_bits);
    if ((flags & kSubmitFlagRecordTrace) != 0)
        return failDecode(error,
                          "SUBMIT requests recordTrace, but RESPONSE "
                          "frames carry no trace");
    if ((flags & ~kSubmitFlagsKnown) != 0)
        return failDecode(error, "reserved SUBMIT flag bits set");
    if ((flags & kSubmitFlagTraceContext) != 0 &&
        !decodeTraceContext(r, &v.traceContext, "SUBMIT", error))
        return false;

    if (!r.denseAt(&v.a))
        return failDecode(error, "truncated SUBMIT: matrix A");
    if (v.a.rows == 0 || v.a.cols == 0)
        return failDecode(error, "zero-dimension matrix A (" +
                                     std::to_string(v.a.rows) + "x" +
                                     std::to_string(v.a.cols) + ")");
    switch (v.kind) {
    case ProblemKind::MatVec:
        if (!r.vecAt(&v.x))
            return failDecode(error, "truncated SUBMIT: vector x");
        if (!r.vecAt(&v.b))
            return failDecode(error, "truncated SUBMIT: vector b");
        break;
    case ProblemKind::MatMul:
        if (!r.denseAt(&v.bmat))
            return failDecode(error, "truncated SUBMIT: matrix B");
        if (v.bmat.rows == 0 || v.bmat.cols == 0)
            return failDecode(error, "zero-dimension matrix B");
        if (!r.denseAt(&v.e))
            return failDecode(error, "truncated SUBMIT: matrix E");
        break;
    case ProblemKind::TriSolve:
        if (!r.vecAt(&v.b))
            return failDecode(error, "truncated SUBMIT: vector b");
        break;
    }
    if (r.remaining() != 0)
        return failDecode(error,
                          std::to_string(r.remaining()) +
                              " trailing bytes after SUBMIT payload");
    *out = std::move(v);
    return true;
}

void
materialiseSubmit(const SubmitView &v, ServeRequest *out)
{
    ServeRequest req;
    req.engine = v.engine;
    req.crossCheck = v.crossCheck;
    req.traceContext = v.traceContext;
    req.plan.kind = v.kind;
    req.plan.w = v.w;
    req.plan.mode = v.mode;
    req.plan.a = materialiseDense(v.a);
    switch (v.kind) {
    case ProblemKind::MatVec:
        req.plan.x = materialiseVec(v.x);
        req.plan.b = materialiseVec(v.b);
        break;
    case ProblemKind::MatMul:
        req.plan.bmat = materialiseDense(v.bmat);
        req.plan.e = materialiseDense(v.e);
        break;
    case ProblemKind::TriSolve:
        req.plan.b = materialiseVec(v.b);
        break;
    }
    *out = std::move(req);
}

Digest
submitDigest(const SubmitView &v)
{
    // Wire operands are little-endian f64, row-major: on this
    // (little-endian) host exactly the bytes fingerprintDense hashes.
    return combinePlanDigest(
        v.engine, v.kind, v.w,
        fingerprintDenseBytes(v.a.data, v.a.rows, v.a.cols),
        v.kind == ProblemKind::MatMul
            ? fingerprintDenseBytes(v.bmat.data, v.bmat.rows,
                                    v.bmat.cols)
            : 0);
}

bool
decodeSubmit(const std::vector<std::uint8_t> &payload,
             ServeRequest *out, std::string *error)
{
    SubmitView v;
    if (!checkSubmit(payload.data(), payload.size(), &v, error))
        return false;
    materialiseSubmit(v, out);
    return true;
}

bool
checkForward(const std::uint8_t *data, std::size_t size, Digest *digest,
             SubmitView *out, std::size_t *submit_offset,
             std::string *error)
{
    WireReader r(data, size);
    std::uint64_t d;
    if (!r.u64(&d))
        return failDecode(error, "truncated FORWARD: digest");
    std::uint8_t ctx_present;
    if (!r.u8(&ctx_present))
        return failDecode(error,
                          "truncated FORWARD: trace-context marker");
    if (ctx_present > 1)
        return failDecode(error, "bad FORWARD trace-context marker " +
                                     std::to_string(ctx_present));
    TraceContext ctx;
    if (ctx_present == 1 &&
        !decodeTraceContext(r, &ctx, "FORWARD", error))
        return false;
    const std::size_t offset = r.offset();
    if (!checkSubmit(data + offset, size - offset, out, error))
        return false;
    // The gateway's FORWARD-level context wins over any context the
    // client embedded in the SUBMIT (the gateway owns the attempt
    // counter).
    if (ctx_present == 1)
        out->traceContext = ctx;
    *digest = d;
    *submit_offset = offset;
    return true;
}

bool
decodeForward(const std::vector<std::uint8_t> &payload, Digest *digest,
              ServeRequest *out, std::string *error)
{
    SubmitView v;
    std::size_t offset = 0;
    if (!checkForward(payload.data(), payload.size(), digest, &v,
                      &offset, error))
        return false;
    materialiseSubmit(v, out);
    return true;
}

//----------------------------------------------------------------------
// TRACES payload
//----------------------------------------------------------------------

namespace {

void
writeTraces(WireWriter &w, const std::vector<RequestTrace> &traces,
            std::uint64_t totalCommitted)
{
    w.u64(totalCommitted);
    w.u32(static_cast<std::uint32_t>(traces.size()));
    for (const RequestTrace &t : traces) {
        w.u64(t.requestId);
        w.str(t.label);
        w.str(t.kind);
        w.u8(t.ok ? 1 : 0);
        w.u8(t.cacheHit ? 1 : 0);
        w.u8(static_cast<std::uint8_t>(t.tier));
        if (t.ctx.valid()) {
            w.u8(1);
            encodeTraceContext(w, t.ctx);
        } else {
            w.u8(0);
        }
        for (std::size_t i = 0; i < kTraceStages; ++i)
            w.u64(t.stageNanos[i]);
        w.u32(static_cast<std::uint32_t>(t.events.size()));
        for (const TracePoint &e : t.events) {
            w.str(e.name);
            w.u64(e.nanos);
        }
    }
}

} // namespace

std::vector<std::uint8_t>
encodeTraces(const std::vector<RequestTrace> &traces,
             std::uint64_t totalCommitted)
{
    WireWriter w;
    writeTraces(w, traces, totalCommitted);
    return w.take();
}

bool
decodeTraces(const std::vector<std::uint8_t> &payload,
             std::vector<RequestTrace> *out,
             std::uint64_t *totalCommitted, std::string *error)
{
    WireReader r(payload);
    std::uint64_t total;
    std::uint32_t count;
    if (!r.u64(&total) || !r.u32(&count))
        return failDecode(error, "truncated TRACES payload");
    // Each trace record is at least 8+4+4+4+1+64+4 = 89 bytes (empty
    // strings, no context, no events); /88 stays conservative.
    if (count > r.remaining() / 88)
        return failDecode(error, "TRACES count " +
                                     std::to_string(count) +
                                     " exceeds payload");
    std::vector<RequestTrace> traces;
    traces.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        RequestTrace t;
        std::uint8_t ok_byte, hit_byte, tier_byte, ctx_present;
        if (!r.u64(&t.requestId) || !r.str(&t.label) ||
            !r.str(&t.kind) || !r.u8(&ok_byte) || !r.u8(&hit_byte) ||
            !r.u8(&tier_byte) || !r.u8(&ctx_present))
            return failDecode(error, "truncated TRACES record " +
                                         std::to_string(i));
        if (tier_byte >
            static_cast<std::uint8_t>(TraceTier::Gateway))
            return failDecode(error, "unknown trace tier " +
                                         std::to_string(tier_byte) +
                                         " in TRACES record");
        t.tier = static_cast<TraceTier>(tier_byte);
        if (ctx_present > 1)
            return failDecode(error,
                              "bad TRACES trace-context marker " +
                                  std::to_string(ctx_present));
        if (ctx_present == 1 &&
            !decodeTraceContext(r, &t.ctx, "TRACES", error))
            return false;
        t.ok = ok_byte != 0;
        t.cacheHit = hit_byte != 0;
        for (std::size_t s = 0; s < kTraceStages; ++s)
            if (!r.u64(&t.stageNanos[s]))
                return failDecode(error, "truncated TRACES record " +
                                             std::to_string(i) +
                                             ": stage nanos");
        std::uint32_t event_count;
        if (!r.u32(&event_count))
            return failDecode(error, "truncated TRACES record " +
                                         std::to_string(i) +
                                         ": event count");
        // Each event is at least 12 bytes (empty name + u64 nanos).
        if (event_count > r.remaining() / 12)
            return failDecode(error, "TRACES event count " +
                                         std::to_string(event_count) +
                                         " exceeds payload");
        t.events.reserve(event_count);
        for (std::uint32_t e = 0; e < event_count; ++e) {
            TracePoint ev;
            if (!r.str(&ev.name) || !r.u64(&ev.nanos))
                return failDecode(error, "truncated TRACES event " +
                                             std::to_string(e));
            t.events.push_back(std::move(ev));
        }
        traces.push_back(std::move(t));
    }
    if (r.remaining() != 0)
        return failDecode(error,
                          "trailing bytes after TRACES payload");
    *out = std::move(traces);
    *totalCommitted = total;
    return true;
}

//----------------------------------------------------------------------
// RESPONSE payload
//----------------------------------------------------------------------

WireResponse
WireResponse::of(ServeResponse resp)
{
    WireResponse wire;
    wire.ok = resp.ok;
    wire.error = std::move(resp.error);
    wire.cacheHit = resp.cacheHit;
    wire.crossCheckOk = resp.crossCheckOk;
    wire.latencyMicros = resp.latencyMicros;
    wire.simCycles = resp.result.stats.cycles;
    wire.y = std::move(resp.result.y);
    wire.c = std::move(resp.result.c);
    return wire;
}

namespace {

void
writeResponse(WireWriter &w, const WireResponse &resp)
{
    w.reserve(47 + resp.error.size() +
              8 * static_cast<std::size_t>(resp.y.size() +
                                           resp.c.rows() * resp.c.cols()));
    w.u8(resp.ok ? 1 : 0);
    w.str(resp.error);
    w.u8(resp.cacheHit ? 1 : 0);
    w.u8(resp.crossCheckOk ? 1 : 0);
    w.f64(resp.latencyMicros);
    w.i64(resp.simCycles);
    w.vec(resp.y);
    w.dense(resp.c);
}

} // namespace

std::vector<std::uint8_t>
encodeResponse(const WireResponse &resp)
{
    WireWriter w;
    writeResponse(w, resp);
    return w.take();
}

bool
decodeResponse(const std::vector<std::uint8_t> &payload,
               WireResponse *out, std::string *error)
{
    WireReader r(payload);
    WireResponse resp;
    std::uint8_t ok, hit, cross;
    if (!r.u8(&ok) || !r.str(&resp.error) || !r.u8(&hit) ||
        !r.u8(&cross) || !r.f64(&resp.latencyMicros) ||
        !r.i64(&resp.simCycles) || !r.vec(&resp.y) ||
        !r.dense(&resp.c))
        return failDecode(error, "truncated RESPONSE payload");
    if (r.remaining() != 0)
        return failDecode(error,
                          "trailing bytes after RESPONSE payload");
    resp.ok = ok != 0;
    resp.cacheHit = hit != 0;
    resp.crossCheckOk = cross != 0;
    *out = std::move(resp);
    return true;
}

//----------------------------------------------------------------------
// STATS payload
//----------------------------------------------------------------------

namespace {

void
encodeLatency(WireWriter &w, const LatencySummary &l)
{
    w.u64(l.samples);
    w.f64(l.mean);
    w.f64(l.p50);
    w.f64(l.p99);
    w.f64(l.max);
}

bool
decodeLatency(WireReader &r, LatencySummary *l)
{
    return r.u64(&l->samples) && r.f64(&l->mean) && r.f64(&l->p50) &&
           r.f64(&l->p99) && r.f64(&l->max);
}

} // namespace

namespace {

void
writeStats(WireWriter &w, const ServerStats &stats)
{
    w.u64(stats.requests);
    w.u64(stats.failures);
    w.u64(stats.crossCheckFailures);
    w.u64(stats.planCache.hits);
    w.u64(stats.planCache.misses);
    w.u64(stats.planCache.evictions);
    w.u64(stats.planCache.collisions);
    encodeLatency(w, stats.latency);
    w.u8(stats.approximatePercentiles ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(stats.groups.size()));
    for (const GroupStats &g : stats.groups) {
        w.str(g.key.engine);
        w.u8(static_cast<std::uint8_t>(g.key.kind));
        w.u8(static_cast<std::uint8_t>(g.key.mode));
        w.i64(g.key.rows);
        w.i64(g.key.cols);
        w.i64(g.key.outCols);
        w.i64(g.key.w);
        w.u64(g.requests);
        w.u64(g.cacheHits);
        w.i64(g.simCycles);
        encodeLatency(w, g.latency);
    }
}

} // namespace

std::vector<std::uint8_t>
encodeStats(const ServerStats &stats)
{
    WireWriter w;
    writeStats(w, stats);
    return w.take();
}

bool
decodeStats(const std::vector<std::uint8_t> &payload, ServerStats *out,
            std::string *error)
{
    WireReader r(payload);
    ServerStats stats;
    std::uint32_t group_count;
    std::uint8_t approx_byte;
    if (!r.u64(&stats.requests) || !r.u64(&stats.failures) ||
        !r.u64(&stats.crossCheckFailures) ||
        !r.u64(&stats.planCache.hits) ||
        !r.u64(&stats.planCache.misses) ||
        !r.u64(&stats.planCache.evictions) ||
        !r.u64(&stats.planCache.collisions) ||
        !decodeLatency(r, &stats.latency) || !r.u8(&approx_byte) ||
        !r.u32(&group_count))
        return failDecode(error, "truncated STATS payload");
    stats.approximatePercentiles = approx_byte != 0;
    // Each group is at least 51 bytes (the /50 bound stays
    // conservative); reject counts the payload cannot possibly back
    // before reserving anything.
    if (group_count > r.remaining() / 50)
        return failDecode(error, "STATS group count " +
                                     std::to_string(group_count) +
                                     " exceeds payload");
    stats.groups.reserve(group_count);
    for (std::uint32_t i = 0; i < group_count; ++i) {
        GroupStats g;
        std::uint8_t kind_byte, mode_byte;
        if (!r.str(&g.key.engine) || !r.u8(&kind_byte) ||
            !r.u8(&mode_byte) || !r.i64(&g.key.rows) ||
            !r.i64(&g.key.cols) || !r.i64(&g.key.outCols) ||
            !r.i64(&g.key.w) || !r.u64(&g.requests) ||
            !r.u64(&g.cacheHits) || !r.i64(&g.simCycles) ||
            !decodeLatency(r, &g.latency))
            return failDecode(error, "truncated STATS group " +
                                         std::to_string(i));
        if (kind_byte >
            static_cast<std::uint8_t>(ProblemKind::TriSolve))
            return failDecode(error, "unknown problem kind " +
                                         std::to_string(kind_byte) +
                                         " in STATS group");
        g.key.kind = static_cast<ProblemKind>(kind_byte);
        if (mode_byte > static_cast<std::uint8_t>(ExecMode::Validate))
            return failDecode(error, "unknown execution mode " +
                                         std::to_string(mode_byte) +
                                         " in STATS group");
        g.key.mode = static_cast<ExecMode>(mode_byte);
        stats.groups.push_back(std::move(g));
    }
    if (r.remaining() != 0)
        return failDecode(error, "trailing bytes after STATS payload");
    *out = std::move(stats);
    return true;
}

//----------------------------------------------------------------------
// METRICS payload
//----------------------------------------------------------------------

namespace {

void
writeMetrics(WireWriter &w, const MetricsSnapshot &snap)
{
    w.u32(static_cast<std::uint32_t>(snap.counters.size()));
    for (const auto &[name, v] : snap.counters) {
        w.str(name);
        w.u64(v);
    }
    w.u32(static_cast<std::uint32_t>(snap.gauges.size()));
    for (const auto &[name, gv] : snap.gauges) {
        w.str(name);
        w.u8(static_cast<std::uint8_t>(gv.agg));
        w.f64(gv.value);
    }
    w.u32(static_cast<std::uint32_t>(snap.histograms.size()));
    for (const auto &[name, h] : snap.histograms) {
        w.str(name);
        w.u64(h.count);
        w.f64(h.sum);
        w.f64(h.min);
        w.f64(h.max);
        w.u32(static_cast<std::uint32_t>(h.bucketIndex.size()));
        for (std::size_t i = 0; i < h.bucketIndex.size(); ++i) {
            w.u32(h.bucketIndex[i]);
            w.u64(h.bucketCount[i]);
        }
    }
}

} // namespace

std::vector<std::uint8_t>
encodeMetrics(const MetricsSnapshot &snap)
{
    WireWriter w;
    writeMetrics(w, snap);
    return w.take();
}

bool
decodeMetrics(const std::vector<std::uint8_t> &payload,
              MetricsSnapshot *out, std::string *error)
{
    WireReader r(payload);
    MetricsSnapshot snap;
    std::uint32_t counter_count;
    if (!r.u32(&counter_count))
        return failDecode(error, "truncated METRICS payload");
    // Each counter record is at least 12 bytes (empty name).
    if (counter_count > r.remaining() / 12)
        return failDecode(error, "METRICS counter count " +
                                     std::to_string(counter_count) +
                                     " exceeds payload");
    for (std::uint32_t i = 0; i < counter_count; ++i) {
        std::string name;
        std::uint64_t v;
        if (!r.str(&name) || !r.u64(&v))
            return failDecode(error, "truncated METRICS counter " +
                                         std::to_string(i));
        snap.counters[std::move(name)] = v;
    }
    std::uint32_t gauge_count;
    if (!r.u32(&gauge_count))
        return failDecode(error, "truncated METRICS payload");
    if (gauge_count > r.remaining() / 13)
        return failDecode(error, "METRICS gauge count " +
                                     std::to_string(gauge_count) +
                                     " exceeds payload");
    for (std::uint32_t i = 0; i < gauge_count; ++i) {
        std::string name;
        std::uint8_t agg_byte;
        GaugeValue gv;
        if (!r.str(&name) || !r.u8(&agg_byte) || !r.f64(&gv.value))
            return failDecode(error, "truncated METRICS gauge " +
                                         std::to_string(i));
        if (agg_byte > static_cast<std::uint8_t>(GaugeAgg::Max))
            return failDecode(error,
                              "unknown gauge aggregation " +
                                  std::to_string(agg_byte) +
                                  " in METRICS payload");
        gv.agg = static_cast<GaugeAgg>(agg_byte);
        snap.gauges[std::move(name)] = gv;
    }
    std::uint32_t hist_count;
    if (!r.u32(&hist_count))
        return failDecode(error, "truncated METRICS payload");
    // Prelude alone is 36 bytes per histogram.
    if (hist_count > r.remaining() / 36)
        return failDecode(error, "METRICS histogram count " +
                                     std::to_string(hist_count) +
                                     " exceeds payload");
    for (std::uint32_t i = 0; i < hist_count; ++i) {
        std::string name;
        HistogramSnapshot h;
        std::uint32_t buckets;
        if (!r.str(&name) || !r.u64(&h.count) || !r.f64(&h.sum) ||
            !r.f64(&h.min) || !r.f64(&h.max) || !r.u32(&buckets))
            return failDecode(error, "truncated METRICS histogram " +
                                         std::to_string(i));
        if (buckets > r.remaining() / 12 || buckets > kHistBuckets)
            return failDecode(error,
                              "METRICS bucket count " +
                                  std::to_string(buckets) +
                                  " exceeds payload");
        std::uint64_t total = 0;
        std::uint32_t prev_index = 0;
        h.bucketIndex.reserve(buckets);
        h.bucketCount.reserve(buckets);
        for (std::uint32_t b = 0; b < buckets; ++b) {
            std::uint32_t index;
            std::uint64_t count;
            if (!r.u32(&index) || !r.u64(&count))
                return failDecode(error,
                                  "truncated METRICS histogram " +
                                      std::to_string(i));
            // Indices must be strictly ascending and in-table, so a
            // decoded snapshot merges and renders correctly.
            if (index >= kHistBuckets ||
                (b > 0 && index <= prev_index))
                return failDecode(
                    error, "bad METRICS bucket index " +
                               std::to_string(index));
            prev_index = index;
            h.bucketIndex.push_back(index);
            h.bucketCount.push_back(count);
            total += count;
        }
        if (total != h.count)
            return failDecode(error,
                              "METRICS histogram bucket sum " +
                                  std::to_string(total) +
                                  " != count " +
                                  std::to_string(h.count));
        snap.histograms[std::move(name)] = std::move(h);
    }
    if (r.remaining() != 0)
        return failDecode(error,
                          "trailing bytes after METRICS payload");
    *out = std::move(snap);
    return true;
}

//----------------------------------------------------------------------
// ERROR payload
//----------------------------------------------------------------------

namespace {

void
writeError(WireWriter &w, const std::string &message)
{
    // Cap defensively: the decode side rejects over-long strings.
    w.str(message.size() > kMaxWireString
              ? message.substr(0, kMaxWireString)
              : message);
}

} // namespace

std::vector<std::uint8_t>
encodeError(const std::string &message)
{
    WireWriter w;
    writeError(w, message);
    return w.take();
}

bool
decodeError(const std::vector<std::uint8_t> &payload, std::string *out,
            std::string *error)
{
    WireReader r(payload);
    if (!r.str(out))
        return failDecode(error, "truncated ERROR payload");
    if (r.remaining() != 0)
        return failDecode(error, "trailing bytes after ERROR payload");
    return true;
}

} // namespace sap
