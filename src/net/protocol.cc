#include "net/protocol.hh"

#include <cstdio>
#include <cstring>
#include <utility>

#include "base/logging.hh"

namespace sap {

// Scalars travel as little-endian IEEE-754 bit patterns; on a
// little-endian host that is their in-memory layout, so operands move
// with one bulk copy each (WireWriter/WireReader::scalars).
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
    const auto *bytes = reinterpret_cast<const std::uint8_t *>(p);
    bytes_.insert(bytes_.end(), bytes,
                  bytes + static_cast<std::size_t>(n) * sizeof(Scalar));
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

void
WireReader::scalars(Scalar *out, std::uint64_t n)
{
    const std::size_t len = static_cast<std::size_t>(n) * sizeof(Scalar);
    if (len != 0)
        std::memcpy(out, data_ + pos_, len);
    pos_ += len;
}

bool
WireReader::vec(Vec<Scalar> *out)
{
    std::int64_t n;
    if (!i64(&n) || n < 0 || n > kMaxWireDim ||
        static_cast<std::uint64_t>(n) > remaining() / sizeof(Scalar))
        return false;
    Vec<Scalar> v(n);
    scalars(v.raw(), static_cast<std::uint64_t>(n));
    *out = std::move(v);
    return true;
}

bool
WireReader::dense(Dense<Scalar> *out)
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
    Dense<Scalar> m(rows, cols);
    scalars(m.raw(), count);
    *out = std::move(m);
    return true;
}

//----------------------------------------------------------------------
// FrameDecoder
//----------------------------------------------------------------------

void
FrameDecoder::feed(const std::uint8_t *data, std::size_t len)
{
    if (poisoned_)
        return; // the stream is dead; don't accumulate garbage
    // Compact lazily so long sessions don't grow the buffer forever.
    if (consumed_ > 0 && consumed_ >= buf_.size() / 2) {
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<std::ptrdiff_t>(consumed_));
        consumed_ = 0;
    }
    buf_.insert(buf_.end(), data, data + len);
}

FrameDecoder::Result
FrameDecoder::next(Frame *out, std::string *error)
{
    if (poisoned_) {
        if (error)
            *error = poison_reason_;
        return Result::Malformed;
    }
    const std::size_t avail = buf_.size() - consumed_;
    if (avail < kFrameHeaderBytes)
        return Result::NeedMore;

    WireReader r(buf_.data() + consumed_, avail);
    FrameHeader h;
    // Reads cannot fail: avail >= kFrameHeaderBytes.
    r.u32(&h.magic);
    r.u16(&h.version);
    r.u16(&h.type);
    r.u64(&h.tag);
    r.u32(&h.payloadLen);

    if (h.magic != kWireMagic)
        poison_reason_ = "bad magic 0x" + [&] {
            char hex[16];
            std::snprintf(hex, sizeof(hex), "%08x", h.magic);
            return std::string(hex);
        }();
    else if (h.version != kWireVersion)
        poison_reason_ = "unsupported protocol version " +
                         std::to_string(h.version) + " (speaking " +
                         std::to_string(kWireVersion) + ")";
    else if (h.payloadLen > max_payload_)
        poison_reason_ = "payload length " +
                         std::to_string(h.payloadLen) +
                         " exceeds the " +
                         std::to_string(max_payload_) + "-byte cap";
    if (!poison_reason_.empty()) {
        poisoned_ = true;
        buf_.clear();
        consumed_ = 0;
        if (error)
            *error = poison_reason_;
        return Result::Malformed;
    }

    if (avail < kFrameHeaderBytes + h.payloadLen)
        return Result::NeedMore;

    out->header = h;
    const std::uint8_t *p = buf_.data() + consumed_ + kFrameHeaderBytes;
    out->payload.assign(p, p + h.payloadLen);
    consumed_ += kFrameHeaderBytes + h.payloadLen;
    return Result::Ok;
}

//----------------------------------------------------------------------
// Frame builders
//----------------------------------------------------------------------

std::vector<std::uint8_t>
buildFrame(FrameType type, std::uint64_t tag,
           const std::vector<std::uint8_t> &payload)
{
    // The len field is u32; silently wrapping would emit a corrupt
    // frame, so an over-large payload is a caller bug.
    SAP_ASSERT(payload.size() <= 0xFFFFFFFFu,
               "frame payload of ", payload.size(),
               " bytes exceeds the u32 length field");
    WireWriter w;
    w.u32(kWireMagic);
    w.u16(kWireVersion);
    w.u16(static_cast<std::uint16_t>(type));
    w.u64(tag);
    w.u32(static_cast<std::uint32_t>(payload.size()));
    std::vector<std::uint8_t> frame = w.take();
    frame.insert(frame.end(), payload.begin(), payload.end());
    return frame;
}

std::vector<std::uint8_t>
buildSubmitFrame(std::uint64_t tag, const ServeRequest &req)
{
    return buildFrame(FrameType::Submit, tag, encodeSubmit(req));
}

std::vector<std::uint8_t>
buildResponseFrame(std::uint64_t tag, const WireResponse &resp)
{
    return buildFrame(FrameType::Response, tag, encodeResponse(resp));
}

std::vector<std::uint8_t>
buildStatsRequestFrame(std::uint64_t tag)
{
    return buildFrame(FrameType::Stats, tag, {});
}

std::vector<std::uint8_t>
buildStatsFrame(std::uint64_t tag, const ServerStats &stats)
{
    return buildFrame(FrameType::Stats, tag, encodeStats(stats));
}

std::vector<std::uint8_t>
buildMetricsRequestFrame(std::uint64_t tag)
{
    return buildFrame(FrameType::Metrics, tag, {});
}

std::vector<std::uint8_t>
buildMetricsFrame(std::uint64_t tag, const MetricsSnapshot &snap)
{
    return buildFrame(FrameType::Metrics, tag, encodeMetrics(snap));
}

std::vector<std::uint8_t>
buildForwardFrame(std::uint64_t tag, Digest digest,
                  const std::vector<std::uint8_t> &submit_payload,
                  const TraceContext *ctx)
{
    WireWriter w;
    w.u64(digest);
    if (ctx && ctx->valid()) {
        w.u8(1);
        encodeTraceContext(w, *ctx);
    } else {
        w.u8(0);
    }
    std::vector<std::uint8_t> payload = w.take();
    payload.insert(payload.end(), submit_payload.begin(),
                   submit_payload.end());
    return buildFrame(FrameType::Forward, tag, payload);
}

std::vector<std::uint8_t>
buildTracesRequestFrame(std::uint64_t tag)
{
    return buildFrame(FrameType::Traces, tag, {});
}

std::vector<std::uint8_t>
buildTracesFrame(std::uint64_t tag,
                 const std::vector<RequestTrace> &traces,
                 std::uint64_t totalCommitted)
{
    return buildFrame(FrameType::Traces, tag,
                      encodeTraces(traces, totalCommitted));
}

std::vector<std::uint8_t>
buildPingFrame(std::uint64_t tag)
{
    return buildFrame(FrameType::Ping, tag, {});
}

std::vector<std::uint8_t>
buildErrorFrame(std::uint64_t tag, const std::string &message)
{
    return buildFrame(FrameType::Error, tag, encodeError(message));
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

std::vector<std::uint8_t>
encodeSubmit(const ServeRequest &req)
{
    WireWriter w;
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
    return w.take();
}

namespace {

/** decodeSubmit over a raw span, so FORWARD can decode its embedded
 *  SUBMIT payload without copying it out first. */
bool
decodeSubmitSpan(const std::uint8_t *data, std::size_t size,
                 ServeRequest *out, std::string *error)
{
    WireReader r(data, size);
    ServeRequest req;
    if (!r.str(&req.engine))
        return failDecode(error, "truncated SUBMIT: engine name");
    std::uint8_t kind_byte;
    if (!r.u8(&kind_byte))
        return failDecode(error, "truncated SUBMIT: problem kind");
    if (kind_byte > static_cast<std::uint8_t>(ProblemKind::TriSolve))
        return failDecode(error, "unknown problem kind " +
                                     std::to_string(kind_byte));
    req.plan.kind = static_cast<ProblemKind>(kind_byte);
    if (!r.i64(&req.plan.w))
        return failDecode(error, "truncated SUBMIT: array size");
    if (req.plan.w < 1 || req.plan.w > kMaxWireDim)
        return failDecode(error, "array size w=" +
                                     std::to_string(req.plan.w) +
                                     " out of range");
    std::uint8_t flags;
    if (!r.u8(&flags))
        return failDecode(error, "truncated SUBMIT: flags");
    req.crossCheck = (flags & kSubmitFlagCrossCheck) != 0;
    const std::uint8_t mode_bits =
        (flags >> kSubmitModeShift) & kSubmitModeMask;
    if (mode_bits > static_cast<std::uint8_t>(ExecMode::Validate))
        return failDecode(error, "unknown execution mode " +
                                     std::to_string(mode_bits));
    req.plan.mode = static_cast<ExecMode>(mode_bits);
    if ((flags & kSubmitFlagRecordTrace) != 0)
        return failDecode(error,
                          "SUBMIT requests recordTrace, but RESPONSE "
                          "frames carry no trace");
    if ((flags & ~kSubmitFlagsKnown) != 0)
        return failDecode(error, "reserved SUBMIT flag bits set");
    if ((flags & kSubmitFlagTraceContext) != 0 &&
        !decodeTraceContext(r, &req.traceContext, "SUBMIT", error))
        return false;

    if (!r.dense(&req.plan.a))
        return failDecode(error, "truncated SUBMIT: matrix A");
    if (req.plan.a.rows() == 0 || req.plan.a.cols() == 0)
        return failDecode(error, "zero-dimension matrix A (" +
                                     std::to_string(req.plan.a.rows()) +
                                     "x" +
                                     std::to_string(req.plan.a.cols()) +
                                     ")");
    switch (req.plan.kind) {
    case ProblemKind::MatVec:
        if (!r.vec(&req.plan.x))
            return failDecode(error, "truncated SUBMIT: vector x");
        if (!r.vec(&req.plan.b))
            return failDecode(error, "truncated SUBMIT: vector b");
        break;
    case ProblemKind::MatMul:
        if (!r.dense(&req.plan.bmat))
            return failDecode(error, "truncated SUBMIT: matrix B");
        if (req.plan.bmat.rows() == 0 || req.plan.bmat.cols() == 0)
            return failDecode(error, "zero-dimension matrix B");
        if (!r.dense(&req.plan.e))
            return failDecode(error, "truncated SUBMIT: matrix E");
        break;
    case ProblemKind::TriSolve:
        if (!r.vec(&req.plan.b))
            return failDecode(error, "truncated SUBMIT: vector b");
        break;
    }
    if (r.remaining() != 0)
        return failDecode(error,
                          std::to_string(r.remaining()) +
                              " trailing bytes after SUBMIT payload");
    *out = std::move(req);
    return true;
}

} // namespace

bool
decodeSubmit(const std::vector<std::uint8_t> &payload,
             ServeRequest *out, std::string *error)
{
    return decodeSubmitSpan(payload.data(), payload.size(), out,
                            error);
}

bool
decodeForward(const std::vector<std::uint8_t> &payload, Digest *digest,
              ServeRequest *out, std::string *error)
{
    WireReader r(payload);
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
    if (!decodeSubmitSpan(payload.data() + (payload.size() -
                                            r.remaining()),
                          r.remaining(), out, error))
        return false;
    // The gateway's FORWARD-level context wins over any context the
    // client embedded in the SUBMIT (the gateway owns the attempt
    // counter).
    if (ctx_present == 1)
        out->traceContext = ctx;
    *digest = d;
    return true;
}

//----------------------------------------------------------------------
// TRACES payload
//----------------------------------------------------------------------

std::vector<std::uint8_t>
encodeTraces(const std::vector<RequestTrace> &traces,
             std::uint64_t totalCommitted)
{
    WireWriter w;
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

std::vector<std::uint8_t>
encodeResponse(const WireResponse &resp)
{
    WireWriter w;
    w.u8(resp.ok ? 1 : 0);
    w.str(resp.error);
    w.u8(resp.cacheHit ? 1 : 0);
    w.u8(resp.crossCheckOk ? 1 : 0);
    w.f64(resp.latencyMicros);
    w.i64(resp.simCycles);
    w.vec(resp.y);
    w.dense(resp.c);
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

std::vector<std::uint8_t>
encodeStats(const ServerStats &stats)
{
    WireWriter w;
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

std::vector<std::uint8_t>
encodeMetrics(const MetricsSnapshot &snap)
{
    WireWriter w;
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

std::vector<std::uint8_t>
encodeError(const std::string &message)
{
    WireWriter w;
    // Cap defensively: the decode side rejects over-long strings.
    w.str(message.size() > kMaxWireString
              ? message.substr(0, kMaxWireString)
              : message);
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
