/**
 * @file
 * Event-loop multi-client TCP front end over the array cluster.
 *
 * NetServer is the network boundary of the installation: it owns a
 * Cluster and bridges the socket world to the cluster's async IO
 * surface. One IO thread runs a level-triggered event loop
 * (net/event_loop.hh) over the listening socket (net/listener.hh)
 * and every client connection (net/connection.hh) — interest masks
 * are updated where connection state changes rather than rebuilt per
 * wakeup, so ten thousand mostly-idle connections cost nothing per
 * event. Decoded SUBMIT frames go straight into
 * Cluster::submitAsync(), and the shard worker that served a request
 * delivers its RESPONSE itself: it encodes the frame in one pass,
 * appends it to the connection's output queue and, when that queue
 * was empty, writes it through with one non-blocking sendmsg. The IO
 * thread is woken only when it has something to do — bytes the
 * socket did not take, a failed write, a queue over its backpressure
 * cap, or a closing connection now owed nothing. The shards never
 * block on a client: a slow reader only grows its own queue while
 * every other connection keeps streaming.
 *
 *          clients ──TCP──▶ IO thread ──submitAsync──▶ Cluster
 *             ▲                 │ flush (leftovers)        │
 *             └── output bufs ◀─┴──── write-through ◀── shard worker
 *
 * Error policy (see net/protocol.hh): payload-level garbage (unknown
 * problem kind, zero dimensions, truncated payload) earns an ERROR
 * frame and the connection keeps serving; frame-level garbage (bad
 * magic/version, oversized length prefix) earns an ERROR frame and a
 * graceful close, because the byte stream cannot be re-synchronized.
 * Neither disturbs other connections or the server. Requests that
 * decode but fail serving-layer validation (unknown engine name,
 * shape mismatches) are not protocol errors: they come back as
 * normal RESPONSE frames with ok = false, exactly as the in-process
 * serving layer reports them.
 *
 * Thread-safety: start()/stop() may be called from any client thread
 * (they serialize on an internal lifecycle mutex); the accessors are
 * safe once start() has returned. stop() (and destruction) drains
 * the cluster, so every accepted request is answered or discarded
 * with the connection, never leaked.
 */

#ifndef SAP_NET_SERVER_HH
#define SAP_NET_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.hh"
#include "net/connection.hh"
#include "net/event_loop.hh"
#include "net/listener.hh"
#include "net/protocol.hh"
#include "obs/admin_plane.hh"
#include "obs/trace_ring.hh"

namespace sap {

/** Monotonic wire-level counters (read with NetServer::netStats). */
struct NetServerStats
{
    std::uint64_t connectionsAccepted = 0;
    std::uint64_t framesReceived = 0;
    std::uint64_t responsesSent = 0;
    /** ERROR frames sent (payload- plus frame-level). */
    std::uint64_t protocolErrors = 0;
};

/**
 * TCP server owning an array cluster (see file comment).
 *
 * Lifecycle: construct with options, call start(); port() reports
 * the bound port (useful with Options::port = 0, which binds an
 * ephemeral loopback port). stop() is idempotent and runs a graceful
 * shutdown: stop reading, drain the cluster, flush what can be
 * flushed, close. A stopped server cannot be restarted — construct
 * a new instance.
 */
class NetServer
{
  public:
    struct Options
    {
        /** The cluster this server fronts. */
        Cluster::Options cluster;
        /** TCP port; 0 binds an ephemeral port (see port()). */
        std::uint16_t port = 0;
        /** Per-frame payload cap enforced on every connection. */
        std::uint32_t maxPayloadBytes = kDefaultMaxPayloadBytes;
        /**
         * Backpressure threshold: while a connection's pending
         * output exceeds this, the server stops reading new frames
         * from it (already-accepted requests still complete and
         * deliver), so a client that pipelines without reading
         * cannot grow server memory without bound.
         */
        std::size_t maxQueuedOutputBytes = 64u << 20;
        /**
         * End-to-end request tracing (obs/trace_ring.hh): when
         * enabled, every SUBMIT gets stage timestamps from frame
         * decode through the shard worker's write-through flush;
         * sampled-or-slow traces land in the collector, exportable
         * via traceSnapshot().
         */
        TraceConfig trace;
        /**
         * Wire-level obs/ metrics (bytes in/out, live connections,
         * frames) and the trace stage histograms. Off = the
         * pre-observability hot path; pair with cluster.metrics for
         * a fully uninstrumented baseline.
         */
        bool metrics = true;
        /** Admin HTTP plane (obs/admin_plane.hh); /tracez serves
         *  this server's own trace rings. */
        AdminOptions admin;
    };

    NetServer() : NetServer(Options()) {}
    explicit NetServer(const Options &opts);

    /** Calls stop(). */
    ~NetServer();

    NetServer(const NetServer &) = delete;
    NetServer &operator=(const NetServer &) = delete;

    /**
     * Bind, listen on 127.0.0.1, and spawn the IO thread.
     * @return false (with error() set) if the socket setup
     * failed; calling start() twice is an error.
     */
    bool start();

    /** Graceful shutdown; idempotent, called by the destructor. */
    void stop();

    /** True between a successful start() and stop(). */
    bool running() const { return running_.load(); }

    /** The bound TCP port (valid after a successful start()). */
    std::uint16_t port() const { return listener_.port(); }

    /** Why start() failed (empty otherwise). */
    const std::string &error() const { return error_; }

    /** Wire-level counters. */
    NetServerStats netStats() const;

    /** Responses accepted for live connections and not yet queued
     *  on them (what keeps a half-closed connection open). */
    std::size_t responsesOwed() const;

    /**
     * Whole-installation obs/ metrics: the server's wire-level
     * registry (plus trace stage histograms) merged with every
     * shard's registry — the same snapshot the METRICS frame serves.
     * Safe to call until stop(); after the cluster is torn down only
     * the wire-level half is returned.
     */
    MetricsSnapshot metricsSnapshot() const;

    /** Committed request traces (sampled or slow), for export via
     *  obs/trace_export.hh. */
    std::vector<RequestTrace> traceSnapshot() const
    {
        return collector_.snapshot();
    }

    /** The fronted cluster (valid until stop()). */
    const Cluster &cluster() const { return *cluster_; }

    /** The admin plane's bound TCP port (0 unless admin.enabled and
     *  start() succeeded). */
    std::uint16_t adminPort() const { return admin_.port(); }

    /**
     * One health evaluation right now — exactly what /healthz and
     * /readyz serve (obs/health.hh); with the admin plane disabled,
     * a default (Ok/live/ready-while-serving) state.
     */
    HealthReport healthReport() const { return admin_.healthReport(); }

    /** The flight recorder (null unless admin.enabled). */
    const FlightRecorder *flightRecorder() const
    {
        return admin_.recorder();
    }

  private:
    /** NetServerStats as relaxed atomics: the IO thread and every
     *  shard worker add to them. */
    struct AtomicStats
    {
        std::atomic<std::uint64_t> connectionsAccepted{0};
        std::atomic<std::uint64_t> framesReceived{0};
        std::atomic<std::uint64_t> responsesSent{0};
        std::atomic<std::uint64_t> protocolErrors{0};
    };

    void ioLoop();
    /** Read until EAGAIN; decode and handle frames. @return false if
     *  the connection must be dropped immediately. */
    bool readReady(std::uint64_t conn_id, Connection &conn);
    void handleFrame(std::uint64_t conn_id, Connection &conn,
                     const Frame &frame);
    /** Add @p n to one stats field and its registry counter (may be
     *  null). */
    static void count(std::atomic<std::uint64_t> &stat,
                      Counter *counter, std::uint64_t n = 1);
    /**
     * Completion callback of one SUBMIT/FORWARD, run on the shard
     * worker that served it: encode the RESPONSE, append it to
     * @p conn_id's output queue, write it through when that queue was
     * empty, and wake the IO thread only when it has work (see file
     * comment). A response for a closed connection is dropped.
     */
    void deliver(std::uint64_t conn_id, std::uint64_t client_tag,
                 ServeResponse resp);
    void closeConnLocked(std::uint64_t conn_id);

    Options opts_;
    std::string error_;

    /** Serializes start()/stop() against each other. */
    std::mutex lifecycle_mutex_;

    Listener listener_;

    /**
     * The IO thread's readiness multiplexer. Owned and touched by
     * the IO thread alone — other threads request interest updates
     * via interest_dirty_ + wake().
     */
    EventLoop loop_;
    /** Connections whose interest mask may be stale (a shard worker
     *  left output or crossed the backpressure cap, or a closing
     *  connection became owed nothing); drained by the IO thread
     *  each wakeup. Guarded by conns_mutex_. */
    std::vector<std::uint64_t> interest_dirty_;

    std::atomic<bool> running_{false};
    /** One-shot lifecycle: set by stop(); start() then refuses. */
    bool stopped_ = false;
    /** IO thread stops accepting/reading when false (shutdown). */
    std::atomic<bool> serving_{false};
    /** IO thread exits once all output is flushed (or abandoned). */
    std::atomic<bool> flush_and_exit_{false};
    /** Set by the IO thread once it has stopped reading. */
    bool reads_quiesced_ = false;
    std::mutex quiesce_mutex_;
    std::condition_variable quiesce_cv_;

    std::thread io_thread_;

    /** Guards conns_ and owed_: the IO thread reads, flushes and
     *  closes; shard workers queue and write through responses.
     *  Event-loop key 0 is the listen socket; connection ids start
     *  above it. */
    mutable std::mutex conns_mutex_;
    ConnectionSet conns_;
    /** Responses still owed per connection (submitted, not yet
     *  delivered); absent = none. A closing connection stays open
     *  until it is owed nothing. Entries of closed connections are
     *  erased, and their late completions are dropped. */
    std::unordered_map<std::uint64_t, std::size_t> owed_;

    AtomicStats net_stats_;

    /** Wire-level obs/ registry; null when Options::metrics is off.
     *  Also receives the collector's trace stage histograms. */
    std::unique_ptr<MetricsRegistry> net_metrics_;
    /** Cached hot-path instruments (null when metrics are off). */
    struct NetInstruments
    {
        Counter *bytesIn = nullptr;
        Counter *bytesOut = nullptr;
        Counter *framesReceived = nullptr;
        Counter *responsesSent = nullptr;
        Counter *protocolErrors = nullptr;
        Counter *connectionsAccepted = nullptr;
        Gauge *connectionsLive = nullptr;
    } inst_;
    /** Declared after net_metrics_: its stage-metrics pointer must
     *  outlive it. */
    TraceCollector collector_;

    /** Serializes metricsSnapshot() and the admin plane's cluster
     *  reads against stop()'s cluster teardown. The IO thread needs
     *  no lock: its cluster calls stop at the quiesce handshake,
     *  before stop() resets the pointer. */
    mutable std::mutex cluster_mutex_;
    /** Declared after everything its completion callbacks touch
     *  (conns_, owed_, loop_, the stats, collector_), so even a
     *  cluster destroyed with work in flight drains into live
     *  connections. */
    std::unique_ptr<Cluster> cluster_;

    /** What the admin plane reads from this server. */
    AdminPlane::Sources adminSources();

    /**
     * Admin plane. Declared last: its threads call back into
     * everything above (metricsSnapshot, cluster_, collector_), so it
     * must be destroyed first — and stop() shuts it down before the
     * cluster teardown for the same reason.
     */
    AdminPlane admin_;
};

} // namespace sap

#endif // SAP_NET_SERVER_HH
