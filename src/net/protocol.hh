/**
 * @file
 * The versioned, length-prefixed binary wire protocol that carries
 * serving requests to an array cluster and responses back.
 *
 * The hyper-systolic reading of the paper's scheme treats computation
 * as data moving through a fixed communication structure; one level
 * up, a serving installation treats *requests* the same way — a
 * framed stream moving through a network boundary into the array
 * cluster. This file defines that boundary:
 *
 *   frame   := header | payload
 *   header  := magic u32 | version u16 | type u16 | tag u64 | len u32
 *   payload := `len` bytes, layout per frame type
 *
 * All integers are little-endian; Scalars travel as IEEE-754 bit
 * patterns (u64), so integer-valued workloads round-trip bit-exactly
 * and results can be cross-checked against the host oracle.
 *
 * Frame types: SUBMIT (a full ServeRequest: engine name, problem
 * kind, flags, matrices), RESPONSE (the served result), STATS (empty
 * payload = request; non-empty = an aggregated ServerStats
 * snapshot), PING (echoed verbatim), ERROR (a human-readable
 * message).
 *
 * Still version 1, with in-place evolutions: SUBMIT's crossCheck
 * byte is now a flags byte (bit 0 keeps its old meaning, so old
 * encoders interoperate — see kSubmitFlag*); each STATS group record
 * carries an execution-mode byte after the problem kind, and the
 * STATS prelude now ends with an approximate-percentiles flag byte
 * (ServerStats::approximatePercentiles). Old STATS *decoders* do not
 * understand either; the snapshot is a monitoring artifact, not a
 * stored format, so the breaks are accepted and documented here. The
 * METRICS frame (obs/metrics.hh snapshots: counters, gauges with an
 * aggregation byte, sparse log-bucketed histograms) is new in this
 * revision and versioned the same way. FORWARD (the gateway tier's
 * backend hop: a u64 plan digest, a trace-context presence byte plus
 * optional context block, then a complete SUBMIT payload, so a
 * backend reuses the routing digest the gateway already computed
 * instead of re-hashing the matrices) and TRACES (empty payload =
 * "send me your committed trace rings"; non-empty = a ring snapshot,
 * the scatter-gather leg behind the gateway's stitched /tracez) are
 * newest; a pre-gateway server rejects them as unknown frame types —
 * a payload-level error, so mixed-version installations degrade to
 * an explicit ERROR frame, never a desync. Cross-tier tracing rides
 * a compact trace-context block (128-bit trace id, sampled flag,
 * edge-origin monotonic nanos, attempt counter — see
 * encodeTraceContext) carried on FORWARD and, behind SUBMIT flag
 * bit 4, on direct client submissions.
 *
 * Robustness contract: decoding is strictly bounds-checked and never
 * trusts a length against fewer bytes than it promises. Errors split
 * into two severities:
 *
 *  - *frame-level* (bad magic, unsupported version, payload length
 *    over the cap): the byte stream cannot be re-synchronized, so
 *    FrameDecoder poisons itself — the server answers with one ERROR
 *    frame and closes that connection;
 *  - *payload-level* (truncated or trailing payload bytes, unknown
 *    problem kind or frame type, zero/negative or oversized
 *    dimensions): framing is intact, so the offending frame yields
 *    an ERROR frame and the connection keeps serving.
 *
 * Neither severity may ever crash, assert, or silently disconnect.
 */

#ifndef SAP_NET_PROTOCOL_HH
#define SAP_NET_PROTOCOL_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include <sys/types.h>

#include "obs/metrics.hh"
#include "serve/server_stats.hh"
#include "serve/shard.hh"

namespace sap {

/** First four bytes of every frame: "SAP1" read as a LE u32. */
constexpr std::uint32_t kWireMagic = 0x31504153u;

/** Protocol version this build speaks. */
constexpr std::uint16_t kWireVersion = 1;

/**
 * SUBMIT flags byte (what used to be the crossCheck 0/1 byte; old
 * encoders writing 0x00/0x01 decode identically):
 *
 *   bit 0    cross-check against the host oracle
 *   bits 1–2 execution mode (ExecMode value; 3 is rejected)
 *   bit 3    recordTrace — always *rejected* by the decoder, because
 *            RESPONSE frames carry no trace; encoding it (rather
 *            than dropping it client-side) turns a silently-lossy
 *            request into an explicit error
 *   bit 4    a trace-context block (kTraceContextBytes) immediately
 *            follows the flags byte — direct clients opting into
 *            cross-tier tracing (see encodeTraceContext)
 *   bits 5–7 reserved, must be zero
 */
constexpr std::uint8_t kSubmitFlagCrossCheck = 1u << 0;
constexpr unsigned kSubmitModeShift = 1;
constexpr std::uint8_t kSubmitModeMask = 0x3;
constexpr std::uint8_t kSubmitFlagRecordTrace = 1u << 3;
constexpr std::uint8_t kSubmitFlagTraceContext = 1u << 4;
/** Every flag bit a version-1 decoder understands. */
constexpr std::uint8_t kSubmitFlagsKnown =
    kSubmitFlagCrossCheck | (kSubmitModeMask << kSubmitModeShift) |
    kSubmitFlagRecordTrace | kSubmitFlagTraceContext;

/**
 * Encoded size of a TraceContext block: u64 trace id hi, u64 trace
 * id lo, u8 flags (bit 0 = sampled, rest reserved-zero), u64 origin
 * nanos, u8 attempt.
 */
constexpr std::size_t kTraceContextBytes = 26;

/** TraceContext flags byte: bit 0 = sampled; bits 1–7 reserved. */
constexpr std::uint8_t kTraceCtxFlagSampled = 1u << 0;

/** Frame types on the wire (u16). */
enum class FrameType : std::uint16_t
{
    Submit = 1,   ///< client → server: one ServeRequest
    Response = 2, ///< server → client: the served result
    Stats = 3,    ///< empty = stats request; else a stats snapshot
    Ping = 4,     ///< liveness check, echoed verbatim
    Error = 5,    ///< malformed input or unexpected frame
    Metrics = 6,  ///< empty = metrics request; else a merged snapshot
    Forward = 7,  ///< gateway → server: digest-precomputed SUBMIT
    Traces = 8,   ///< empty = trace-ring request; else a snapshot
};

/** Printable frame-type name ("SUBMIT", ... / "type 17"). */
std::string frameTypeName(std::uint16_t type);

/** Fixed-size frame prelude; see the file comment for the layout. */
struct FrameHeader
{
    std::uint32_t magic = kWireMagic;
    std::uint16_t version = kWireVersion;
    std::uint16_t type = 0;
    /** Caller-chosen request id, echoed back in the response. */
    std::uint64_t tag = 0;
    std::uint32_t payloadLen = 0;
};

/** Encoded size of a FrameHeader. */
constexpr std::size_t kFrameHeaderBytes = 20;

/** Default cap on payload bytes a decoder will accept (64 MiB). */
constexpr std::uint32_t kDefaultMaxPayloadBytes = 64u << 20;

/** Cap on matrix/vector dimensions accepted off the wire. */
constexpr Index kMaxWireDim = 1 << 20;

/** Cap on string lengths (engine names, error messages). */
constexpr std::uint32_t kMaxWireString = 1 << 16;

/**
 * Append-only little-endian byte sink: the encode half of the
 * protocol. Also the tool tests use to craft malformed frames.
 */
class WireWriter
{
  public:
    void u8(std::uint8_t v) { bytes_.push_back(v); }
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    /** IEEE-754 bit pattern as u64. */
    void f64(double v);
    /** u32 length followed by the raw bytes. */
    void str(const std::string &s);
    /** i64 length followed by the elements as f64. */
    void vec(const Vec<Scalar> &v);
    /** i64 rows, i64 cols, then row-major elements as f64. */
    void dense(const Dense<Scalar> &m);

    /** @p n raw bytes, in one bulk insert. */
    void append(const std::uint8_t *p, std::size_t n)
    {
        bytes_.insert(bytes_.end(), p, p + n);
    }
    /** Make room for @p n more bytes up front, so a bulk encode
     *  never regrows (and recopies) the buffer. */
    void reserve(std::size_t n) { bytes_.reserve(bytes_.size() + n); }

    const std::vector<std::uint8_t> &bytes() const { return bytes_; }
    std::vector<std::uint8_t> take() { return std::move(bytes_); }

  private:
    /** @p n elements as f64, in one bulk copy. */
    void scalars(const Scalar *p, Index n);

    std::vector<std::uint8_t> bytes_;
};

/**
 * Where one operand's elements lie in a payload: @p rows × @p cols
 * little-endian f64 values, row-major, starting at @p data (a vector
 * is n × 1). Borrowed: valid while the payload bytes live.
 */
struct WireOperand
{
    const std::uint8_t *data = nullptr;
    Index rows = 0;
    Index cols = 0;
};

/**
 * Bounds-checked little-endian reader over a borrowed byte span: the
 * decode half. Every read reports failure instead of walking out of
 * the buffer; compound reads (str/vec/dense) additionally reject
 * negative or over-cap sizes and lengths that promise more bytes
 * than remain.
 */
class WireReader
{
  public:
    WireReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }
    explicit WireReader(const std::vector<std::uint8_t> &bytes)
        : WireReader(bytes.data(), bytes.size())
    {
    }

    bool u8(std::uint8_t *out);
    bool u16(std::uint16_t *out);
    bool u32(std::uint32_t *out);
    bool u64(std::uint64_t *out);
    bool i64(std::int64_t *out);
    bool f64(double *out);
    bool str(std::string *out);
    bool vec(Vec<Scalar> *out);
    bool dense(Dense<Scalar> *out);
    /** vec()/dense() without the copy: every check, then record
     *  where the elements lie and step past them. */
    bool vecAt(WireOperand *out);
    bool denseAt(WireOperand *out);

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return size_ - pos_; }
    /** Bytes consumed so far. */
    std::size_t offset() const { return pos_; }

  private:
    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/** One decoded frame: header plus owned payload bytes. */
struct Frame
{
    FrameHeader header;
    std::vector<std::uint8_t> payload;
};

/**
 * Incremental frame splitter for a TCP byte stream.
 *
 * receive() reads the socket straight into the decoder (feed()
 * appends bytes already read elsewhere); next() yields complete
 * frames in order. A frame-level violation (bad magic/version,
 * payload length over the cap) poisons the decoder permanently — the
 * stream cannot be re-synchronized — and next() keeps returning
 * Malformed with the same message. Unknown frame *types* are NOT a
 * framing error: the length field still delimits them, so they are
 * delivered for the application layer to reject.
 *
 * Memory: bytes land in a staging area of kStagingBytes, allocated
 * on demand and shrunk to its unconsumed bytes whenever receive()
 * finds the socket drained, so an idle connection holds nothing
 * beyond them. Once a checked header announces a frame that is not
 * fully buffered, the rest of its payload is received straight into
 * that frame's own buffer, which next() then moves out — a frame
 * larger than the staging area crosses user space without a copy.
 * That buffer grows with the bytes that have arrived (never to the
 * announced length up front), so a peer that announces a large frame
 * and stalls pins memory for what it sent, not for what it promised.
 */
class FrameDecoder
{
  public:
    enum class Result
    {
        Ok,        ///< *out holds a complete frame
        NeedMore,  ///< not enough buffered bytes yet
        Malformed, ///< frame-level violation; decoder is poisoned
    };

    /** Size of the staging area receive() reads into. */
    static constexpr std::size_t kStagingBytes = 64u << 10;

    explicit FrameDecoder(
        std::uint32_t max_payload = kDefaultMaxPayloadBytes)
        : max_payload_(max_payload)
    {
    }

    /** Append @p len raw stream bytes. */
    void feed(const std::uint8_t *data, std::size_t len);

    /**
     * One recv(2) from @p fd into the decoder: into the frame being
     * received in place when there is one, else into the staging
     * area. @return recv's result — bytes read, 0 at end of stream,
     * −1 with errno set (EAGAIN included). A poisoned decoder still
     * reads, and drops what it reads.
     */
    ssize_t receive(int fd);

    /**
     * Extract the next complete frame into @p out.
     * On Malformed, @p error (optional) receives the reason.
     */
    Result next(Frame *out, std::string *error = nullptr);

    /** True once a frame-level violation was seen. */
    bool poisoned() const { return poisoned_; }

    /** Bytes of memory held for stream data right now: the staging
     *  area plus the in-place frame's buffer. */
    std::size_t heldBytes() const
    {
        return stage_cap_ + partial_.payload.capacity();
    }

  private:
    /** Check the header at the front of the staging area. @return
     *  false (and poison) on a frame-level violation, true with
     *  @p out set otherwise. @pre kFrameHeaderBytes are staged. */
    bool checkHeader(FrameHeader *out);
    /** When the staged bytes begin with a checked header whose frame
     *  is not complete, move them into partial_ so the rest is
     *  received in place (@p fd, or −1, tells what else is queued). */
    void startPartial(int fd);
    /** Grow partial_'s buffer for the bytes that have arrived, with
     *  room for @p extra in hand or what waits on @p fd (−1: none);
     *  never past the announced length. */
    void growPartial(std::size_t extra, int fd);
    /** Room for @p n more staged bytes (compacting, then growing). */
    void stageRoom(std::size_t n);
    /** Shrink the staging area to its unconsumed bytes. */
    void fitStage();
    void poison(std::string reason);

    std::uint32_t max_payload_;
    std::unique_ptr<std::uint8_t[]> stage_;
    std::size_t stage_cap_ = 0;
    std::size_t begin_ = 0; ///< first unconsumed staged byte
    std::size_t end_ = 0;   ///< one past the last staged byte
    /** The frame being received in place (while partial_active_):
     *  the first partial_have_ bytes of its payload have arrived. */
    Frame partial_;
    std::size_t partial_have_ = 0;
    bool partial_active_ = false;
    bool poisoned_ = false;
    std::string poison_reason_;
};

/** Payload bytes shared by the frames (and state) that send them. */
using SharedBytes = std::shared_ptr<const std::vector<std::uint8_t>>;

/**
 * One frame on its way out: an owned @p head (the header, plus an
 * envelope, or a whole small frame) followed by @p body from
 * @p bodyOffset on. The body is shared, not copied: a FORWARD sends
 * the client's own payload buffer, and a resubmit sends it again.
 */
struct OutFrame
{
    std::vector<std::uint8_t> head;
    SharedBytes body;
    std::size_t bodyOffset = 0;

    OutFrame() = default;
    /** A frame that is all head (control frames, encoded replies). */
    OutFrame(std::vector<std::uint8_t> bytes) : head(std::move(bytes))
    {
    }

    std::size_t size() const
    {
        return head.size() + (body ? body->size() - bodyOffset : 0);
    }
};

/**
 * A connection's output: frames queued whole and written by
 * sendmsg() gather — never concatenated, never compacted.
 */
class OutQueue
{
  public:
    void push(OutFrame frame);

    /** Bytes queued and not yet accepted by the kernel. */
    std::size_t queuedBytes() const { return queued_; }
    bool empty() const { return queued_ == 0; }

    /**
     * Write to @p fd until it would block or the queue is empty.
     * @return bytes written (≥ 0), or −1 with errno set when the
     * socket failed.
     */
    ssize_t flush(int fd);

  private:
    std::deque<OutFrame> frames_;
    /** Bytes of frames_.front() already written. */
    std::size_t front_sent_ = 0;
    std::size_t queued_ = 0;
};

/**
 * The response payload as it travels on the wire: the subset of
 * ServeResponse a remote client can use. Both result containers are
 * always encoded; the one the problem kind does not produce is
 * empty.
 */
struct WireResponse
{
    bool ok = false;
    std::string error;
    bool cacheHit = false;
    bool crossCheckOk = true;
    /** Service time measured server-side, in microseconds. */
    double latencyMicros = 0;
    /** Simulated array cycles the request consumed. */
    Cycle simCycles = 0;
    Vec<Scalar> y;   ///< MatVec / TriSolve result
    Dense<Scalar> c; ///< MatMul result

    /** Project the wire-visible fields out of a served response.
     *  Pass by value: callers that own the response (the server's
     *  writer loop) move it in, so result matrices are not copied. */
    static WireResponse of(ServeResponse resp);
};

//----------------------------------------------------------------------
// Frame builders (header + payload, ready to write to a socket).
//----------------------------------------------------------------------

/** Generic frame around an already-encoded payload. */
std::vector<std::uint8_t> buildFrame(FrameType type, std::uint64_t tag,
                                     const std::vector<std::uint8_t>
                                         &payload);

/**
 * A @p type frame (the gateway's RESPONSE/ERROR relay) around a
 * payload that is already encoded: a fresh header as the head, the
 * payload buffer itself, moved, as the body.
 */
OutFrame relayFrame(FrameType type, std::uint64_t tag,
                    std::vector<std::uint8_t> payload);

/**
 * buildForwardFrame as header + envelope (the head) followed by the
 * SUBMIT payload bytes of @p payload from @p offset on (the shared
 * body): a relayed FORWARD strips its old envelope by offset, and a
 * resubmit sends the same buffer again — no payload byte is copied.
 */
OutFrame forwardFrame(std::uint64_t tag, Digest digest,
                      const SharedBytes &payload, std::size_t offset,
                      const TraceContext *ctx = nullptr);

/** SUBMIT carrying @p req (engine, kind, w, flags, operands); the
 *  flags byte packs crossCheck, the execution mode, and recordTrace
 *  (see kSubmitFlag*). */
std::vector<std::uint8_t> buildSubmitFrame(std::uint64_t tag,
                                           const ServeRequest &req);

/** RESPONSE carrying @p resp. */
std::vector<std::uint8_t> buildResponseFrame(std::uint64_t tag,
                                             const WireResponse &resp);

/** Empty-payload STATS: "send me a snapshot". */
std::vector<std::uint8_t> buildStatsRequestFrame(std::uint64_t tag);

/** STATS carrying an aggregated snapshot. */
std::vector<std::uint8_t> buildStatsFrame(std::uint64_t tag,
                                          const ServerStats &stats);

/** Empty-payload METRICS: "send me a merged metrics snapshot". */
std::vector<std::uint8_t> buildMetricsRequestFrame(std::uint64_t tag);

/** METRICS carrying a merged obs/ snapshot. */
std::vector<std::uint8_t> buildMetricsFrame(std::uint64_t tag,
                                            const MetricsSnapshot
                                                &snap);

/**
 * FORWARD wrapping an already-encoded SUBMIT payload together with
 * its precomputed plan digest (the gateway relays the payload bytes
 * it decoded for routing — no re-encode). @p digest MUST equal
 * planDigest() of the embedded request; it is a cache/routing hint,
 * and correctness never depends on it (the plan cache confirms every
 * digest hit with an exact matrix comparison). The digest is internal
 * to one build (serve/fingerprint.hh): a gateway and a backend from
 * different builds may disagree on it, and then only lose cache hits.
 *
 * Layout: u64 digest | u8 ctx-present (0 or 1) | [trace-context
 * block when 1] | embedded SUBMIT payload. @p ctx (optional) is the
 * gateway's propagated trace context; when present it takes
 * precedence over any context embedded in the SUBMIT payload, so
 * the gateway can stamp the resubmit attempt counter without
 * re-encoding the client's bytes.
 */
std::vector<std::uint8_t>
buildForwardFrame(std::uint64_t tag, Digest digest,
                  const std::vector<std::uint8_t> &submit_payload,
                  const TraceContext *ctx = nullptr);

/** Empty-payload TRACES: "send me your committed trace rings". */
std::vector<std::uint8_t> buildTracesRequestFrame(std::uint64_t tag);

/** TRACES carrying a ring snapshot (see encodeTraces). */
std::vector<std::uint8_t>
buildTracesFrame(std::uint64_t tag,
                 const std::vector<RequestTrace> &traces,
                 std::uint64_t totalCommitted);

/** Empty-payload PING. */
std::vector<std::uint8_t> buildPingFrame(std::uint64_t tag);

/** ERROR carrying @p message. */
std::vector<std::uint8_t> buildErrorFrame(std::uint64_t tag,
                                          const std::string &message);

//----------------------------------------------------------------------
// Payload codecs. Decoders return false and set *error on any
// malformed payload (truncated, trailing bytes, unknown kind,
// zero/negative or over-cap dimensions); they never assert.
//----------------------------------------------------------------------

/**
 * SUBMIT payload from a request. When req.traceContext.valid() the
 * flags byte gets kSubmitFlagTraceContext and the context block is
 * encoded after it.
 */
std::vector<std::uint8_t> encodeSubmit(const ServeRequest &req);

/** @return true and fill @p out, or false with @p error set.
 *  checkSubmit then materialiseSubmit. */
bool decodeSubmit(const std::vector<std::uint8_t> &payload,
                  ServeRequest *out, std::string *error);

/**
 * A SUBMIT payload after the checking pass: every field decoded and
 * every operand located in place, nothing copied. Borrowed: valid
 * while the payload bytes live.
 */
struct SubmitView
{
    std::string engine;
    ProblemKind kind = ProblemKind::MatVec;
    Index w = 0;
    bool crossCheck = false;
    ExecMode mode = ExecMode::Simulate;
    TraceContext traceContext;
    /** A always; x and b for MatVec; bmat and e for MatMul; b for
     *  TriSolve. The others stay empty. */
    WireOperand a, x, b, bmat, e;
};

/**
 * The one SUBMIT checking pass: every check decodeSubmit applies,
 * with the same error text, without copying an operand. @return
 * true and fill @p out, or false with @p error set.
 */
bool checkSubmit(const std::uint8_t *data, std::size_t size,
                 SubmitView *out, std::string *error);

/** The request a checked view describes: its operands copied into
 *  fresh Dense/Vec storage (the one decode copy). */
void materialiseSubmit(const SubmitView &view, ServeRequest *out);

/**
 * planDigest of the request @p view describes, hashed over the
 * operands' wire bytes in place: bit-equal to
 * planDigest(req.engine, req.plan) of the materialised request.
 */
Digest submitDigest(const SubmitView &view);

/**
 * FORWARD payload: u64 plan digest, u8 ctx-present byte, optional
 * trace-context block, then the embedded SUBMIT payload (decoded
 * with the same strictness as decodeSubmit). A FORWARD-level
 * context overrides any context the embedded SUBMIT carries in
 * out->traceContext.
 */
bool decodeForward(const std::vector<std::uint8_t> &payload,
                   Digest *digest, ServeRequest *out,
                   std::string *error);

/**
 * decodeForward's checking pass (checkSubmit on the embedded
 * payload; the FORWARD-level context lands in out->traceContext).
 * @p submit_offset receives where the embedded SUBMIT payload
 * starts, i.e. the envelope length.
 */
bool checkForward(const std::uint8_t *data, std::size_t size,
                  Digest *digest, SubmitView *out,
                  std::size_t *submit_offset, std::string *error);

/** Append a TraceContext block (kTraceContextBytes) to @p w. */
void encodeTraceContext(WireWriter &w, const TraceContext &ctx);

/**
 * Read a TraceContext block from @p r. Strict: reserved flag bits
 * and an all-zero trace id are rejected (@p error gets the reason,
 * prefixed with @p what).
 */
bool decodeTraceContext(WireReader &r, TraceContext *out,
                        const char *what, std::string *error);

/**
 * TRACES payload: u64 totalCommitted, u32 trace count, then per
 * trace: u64 requestId, str label, str kind, u8 ok, u8 cacheHit,
 * u8 tier (TraceTier; >1 rejected), u8 ctx-present, optional
 * trace-context block, kTraceStages × u64 stage nanos, u32 event
 * count, then (str name, u64 nanos) per event.
 */
std::vector<std::uint8_t>
encodeTraces(const std::vector<RequestTrace> &traces,
             std::uint64_t totalCommitted);

/** @copydoc decodeSubmit() */
bool decodeTraces(const std::vector<std::uint8_t> &payload,
                  std::vector<RequestTrace> *out,
                  std::uint64_t *totalCommitted, std::string *error);

/** RESPONSE payload. */
std::vector<std::uint8_t> encodeResponse(const WireResponse &resp);

/** @copydoc decodeSubmit() */
bool decodeResponse(const std::vector<std::uint8_t> &payload,
                    WireResponse *out, std::string *error);

/** STATS payload (whole-installation snapshot incl. groups). */
std::vector<std::uint8_t> encodeStats(const ServerStats &stats);

/** @copydoc decodeSubmit() */
bool decodeStats(const std::vector<std::uint8_t> &payload,
                 ServerStats *out, std::string *error);

/**
 * METRICS payload: u32 counter count, then (name, u64) records; u32
 * gauge count, then (name, agg u8, f64) records; u32 histogram
 * count, then (name, u64 count, f64 sum/min/max, u32 bucket count,
 * (u32 index, u64 count) pairs) records. Buckets travel sparse —
 * index into the fixed log-bucket table (histBucketUpper), count —
 * so an idle installation's snapshot is a few hundred bytes.
 */
std::vector<std::uint8_t> encodeMetrics(const MetricsSnapshot &snap);

/** @copydoc decodeSubmit() */
bool decodeMetrics(const std::vector<std::uint8_t> &payload,
                   MetricsSnapshot *out, std::string *error);

/** ERROR payload. */
std::vector<std::uint8_t> encodeError(const std::string &message);

/** @copydoc decodeSubmit() */
bool decodeError(const std::vector<std::uint8_t> &payload,
                 std::string *out, std::string *error);

} // namespace sap

#endif // SAP_NET_PROTOCOL_HH
