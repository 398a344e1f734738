/**
 * @file
 * Routing gateway: one front door fanned out over several NetServer
 * backends — the consistent-hash ring applied one level up.
 *
 * Inside one installation, cluster/router.hh pins each plan digest
 * to the shard that caches its prepared plan. A fleet of
 * installations wants the same property across *processes*: every
 * matrix should land on the backend whose shards already hold its
 * plan, whatever client opened which connection. Gateway provides
 * that hop. It speaks the ordinary wire protocol to clients (an
 * existing NetClient needs no changes), checks each SUBMIT in place
 * and hashes its operands where they lie to get the plan digest, and
 * relays the client's own payload buffer to the owning backend
 * behind a FORWARD header — so the digest is computed once at the
 * edge and reused by the backend's shard router and plan cache, and
 * no payload byte is copied in the gateway (net/protocol.hh
 * checkSubmit, forwardFrame).
 *
 *        clients ──▶ gateway IO thread ──FORWARD──▶ backend 0
 *                        │ ring over               backend 1
 *                        ▼ routable set            backend …
 *                 RESPONSE relayed back by tag
 *
 * Health and failover: each backend connection carries periodic
 * PINGs; a backend that misses Options::pingMissLimit replies in a
 * row, drops its TCP connection, or (when a backend admin port is
 * configured) fails its /healthz probe is removed from the routable
 * set, the ring is rebuilt over the survivors, and every SUBMIT that
 * was in flight to it is resubmitted to its new owner — safe because
 * serving is pure compute (resubmission re-executes; it cannot
 * double-apply), and duplicate-free toward the client because the
 * in-flight entry is erased when the first response relays, so a
 * late duplicate from a half-dead backend finds no tag and is
 * dropped. A request whose resubmit budget (Options::maxResubmits)
 * runs out, or that arrives with no routable backend, earns a clean
 * ERROR frame — a client never hangs on a dead backend.
 *
 * Snapshot frames scatter-gather: STATS, METRICS, and TRACES
 * requests fan out to every routable backend and the replies merge
 * exactly (serve/server_stats.hh mergeServerStats,
 * MetricsSnapshot::merge; TRACES concatenates — the export layer
 * stitches by trace id) before one frame goes back to the client;
 * backends that die mid-gather simply drop out of the merge. PING is
 * answered at the gateway itself — it measures the front door, not a
 * backend.
 *
 * Tracing: the gateway is the *edge* of the cross-tier trace path.
 * With Options::trace enabled it head-samples once per request,
 * mints a TraceContext (obs/trace_ring.hh) unless the request
 * already carried one, FORWARDs the context so backends honor the
 * same decision, and records its own gateway-tier trace (gw_decode →
 * gw_route → gw_forward → gw_relay_pop → gw_flush, plus failover /
 * resubmit point events carrying the attempt number). The embedded
 * admin plane (Options::admin, obs/admin_plane.hh) serves the same
 * routes as NetServer's, with a stitched /tracez: backend rings are
 * gathered over the wire and joined with the gateway's own by trace
 * id, so one request renders as two process lanes in Perfetto.
 *
 * Thread-safety: start()/stop() serialize on a lifecycle mutex; the
 * stats/metrics accessors are safe from any thread. Everything else
 * lives on the gateway's one IO thread, which runs the same IO core
 * as NetServer: an EventLoop (net/event_loop.hh) over a Listener
 * (net/listener.hh), client Connections (net/connection.hh) and one
 * AsyncClient per backend.
 */

#ifndef SAP_NET_GATEWAY_HH
#define SAP_NET_GATEWAY_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.hh"
#include "net/async_client.hh"
#include "net/connection.hh"
#include "net/event_loop.hh"
#include "net/listener.hh"
#include "net/protocol.hh"
#include "obs/admin_plane.hh"
#include "obs/metrics.hh"
#include "obs/trace_ring.hh"

namespace sap {

/** Monotonic gateway counters (read with Gateway::stats()). */
struct GatewayStats
{
    std::uint64_t connectionsAccepted = 0;
    std::uint64_t requestsRouted = 0;
    std::uint64_t responsesRelayed = 0;
    /** Backend transitions routable → down (any cause). */
    std::uint64_t failovers = 0;
    /** In-flight requests re-sent to a surviving backend. */
    std::uint64_t resubmits = 0;
    /** ERROR frames sent to clients (protocol + routing failures). */
    std::uint64_t errorsReturned = 0;
};

/**
 * TCP routing tier over several NetServer backends (see file
 * comment).
 *
 * Lifecycle: construct with options, start(); port() reports the
 * bound client-facing port. stop() closes every connection and
 * joins; like NetServer, a stopped gateway cannot be restarted.
 */
class Gateway
{
  public:
    /** One backend's address (a NetServer reached over TCP). */
    struct BackendAddr
    {
        std::string host = "127.0.0.1";
        /** Wire-protocol (data plane) port. */
        std::uint16_t port = 0;
        /** Admin-plane port for /healthz probing; 0 = no probe,
         *  PING liveness alone governs routability. */
        std::uint16_t adminPort = 0;
    };

    struct Options
    {
        /** The backends fronted (at least one). */
        std::vector<BackendAddr> backends;
        /** Client-facing TCP port; 0 binds an ephemeral port. */
        std::uint16_t port = 0;
        /** Per-frame payload cap, both directions. */
        std::uint32_t maxPayloadBytes = kDefaultMaxPayloadBytes;
        /** Client backpressure threshold (as NetServer's). */
        std::size_t maxQueuedOutputBytes = 64u << 20;
        /** Liveness PING cadence per routable backend. */
        int pingIntervalMs = 200;
        /** Unanswered PINGs in a row before a backend is declared
         *  down (its connection is dropped and traffic fails over). */
        int pingMissLimit = 3;
        /** How long a down backend waits before a reconnect try. */
        int reconnectIntervalMs = 300;
        /** /healthz probe cadence for backends with an adminPort;
         *  0 disables HTTP probing entirely. */
        int healthzIntervalMs = 500;
        /** Times one SUBMIT may fail over before the client gets an
         *  ERROR frame instead. */
        std::size_t maxResubmits = 2;
        /**
         * Ring points per backend (cluster/router.hh). Known
         * limitation: the ring is built from the same points as each
         * backend's Cluster shard ring, so with equal counts
         * (backends = shards per backend) a digest routed to backend
         * k also lands on shard k there, leaving the other shards of
         * every backend idle. Salting one ring fixes the spread but
         * brings more plan-cache slots alive (ROADMAP.md, "Two-tier
         * routing correlation").
         */
        std::size_t virtualNodesPerBackend =
            ConsistentHashRouter::kDefaultVirtualNodes;
        /** Gateway obs/ registry (per-backend inflight gauges,
         *  failover counters, route latency histogram). */
        bool metrics = true;
        /**
         * Gateway tracing (obs/trace_ring.hh). The gateway is the
         * edge tier: when enabled it makes the head-sampling decision
         * once per request, stamps its own gw_* stages, and
         * propagates a TraceContext on every FORWARD so backends
         * honor the same decision. A request that already arrives
         * with a context (a gateway one tier up, or a client that
         * opted in) keeps it — sampling is decided exactly once.
         */
        TraceConfig trace;
        /** Embedded HTTP admin plane (obs/admin_plane.hh); its
         *  /tracez scatter-gathers backend trace rings and stitches
         *  them with the gateway's own by trace id. */
        AdminOptions admin;
    };

    explicit Gateway(const Options &opts);

    /** Calls stop(). */
    ~Gateway();

    Gateway(const Gateway &) = delete;
    Gateway &operator=(const Gateway &) = delete;

    /**
     * Bind the client port, spawn the IO thread (and the /healthz
     * prober when configured), and begin connecting backends.
     * Backends need not be up yet: routing begins per backend as its
     * first PING answer arrives. @return false with error() set on
     * socket failure.
     */
    bool start();

    /** Close everything and join; idempotent. In-flight requests are
     *  dropped (their clients see a closed connection). */
    void stop();

    /** The bound client-facing port (valid after start()). */
    std::uint16_t port() const { return listener_.port(); }

    /** Why start() failed (empty otherwise). */
    const std::string &error() const { return error_; }

    /** Monotonic counters. */
    GatewayStats stats() const;

    /** Backends currently in the routable set. */
    std::size_t routableBackends() const
    {
        return routable_count_.load();
    }

    /** The gateway's own obs/ registry snapshot (empty when
     *  Options::metrics is off). Backend registries are NOT merged
     *  in — the METRICS frame does that per request. */
    MetricsSnapshot metricsSnapshot() const;

    /** The admin plane's bound TCP port (0 unless admin.enabled and
     *  started). */
    std::uint16_t adminPort() const { return admin_.port(); }

    /** Current health verdict (degenerate always-healthy report when
     *  the admin plane is off, as NetServer's). */
    HealthReport healthReport() const { return admin_.healthReport(); }

    /** The flight recorder (null unless admin.enabled). */
    const FlightRecorder *flightRecorder() const
    {
        return admin_.recorder();
    }

  private:
    /** One backend: its async connection plus liveness state. All
     *  fields IO-thread-only except adminHealthy (prober writes). */
    struct Backend
    {
        BackendAddr addr;
        AsyncClient conn;
        /** In the ring: connected, ping-confirmed, admin-healthy. */
        bool routable = false;
        /** Liveness probe bookkeeping. */
        bool pingOutstanding = false;
        std::uint64_t pingTag = 0;
        int missedPings = 0;
        /** Wait ticks before the next reconnect attempt. */
        int reconnectWaitMs = 0;
        /** Written by the prober thread, read by the IO thread. */
        std::atomic<bool> adminHealthy{true};
        /** FORWARDs sent, responses not yet back. */
        std::uint64_t inflight = 0;
        Gauge *inflightGauge = nullptr;

        explicit Backend(const BackendAddr &a,
                         std::uint32_t max_payload)
            : addr(a), conn(max_payload)
        {
        }
    };

    /** One routed SUBMIT awaiting its backend response. */
    struct Inflight
    {
        std::uint64_t clientConnId = 0;
        std::uint64_t clientTag = 0;
        std::size_t backendIdx = 0;
        Digest digest = 0;
        /** The client frame's payload buffer, shared with the FORWARD
         *  frames that send it, so a resubmit copies nothing; the
         *  SUBMIT payload starts at payloadOffset (past a relayed
         *  FORWARD's envelope, else 0). */
        SharedBytes submitPayload;
        std::size_t payloadOffset = 0;
        std::size_t resubmits = 0;
        std::chrono::steady_clock::time_point start;
        /** The context FORWARDed with this request (!valid() = the
         *  request rides untraced). attempt tracks resubmits. */
        TraceContext ctx;
        /** The gateway's own trace of this request (null unless the
         *  request is sampled here). */
        std::shared_ptr<RequestTrace> trace;
    };

    /** One scatter-gather STATS/METRICS/TRACES in progress. */
    struct Gather
    {
        enum class Kind : std::uint8_t
        {
            Stats,
            Metrics,
            Traces,
        };

        std::uint64_t clientConnId = 0;
        std::uint64_t clientTag = 0;
        Kind kind = Kind::Stats;
        std::size_t awaiting = 0;
        std::vector<ServerStats> statsParts;
        MetricsSnapshot metricsMerged;
        /** Traces gathered so far (seeded with the gateway's own). */
        std::vector<RequestTrace> tracesMerged;
        std::uint64_t tracesTotal = 0;
    };

    void ioLoop();
    void proberLoop();
    bool readReady(std::uint64_t conn_id, Connection &conn);
    void handleClientFrame(std::uint64_t conn_id, Frame &&frame);
    void handleBackendFrame(std::size_t idx, Frame &&frame);
    /** Route a checked SUBMIT payload (@p payload from @p offset on)
     *  to its ring owner, FORWARDing @p ctx when valid and stamping
     *  @p trace (may be null) through the gateway stages. */
    void routeSubmit(std::uint64_t conn_id, std::uint64_t client_tag,
                     Digest digest, SharedBytes payload,
                     std::size_t offset, const TraceContext &ctx,
                     std::shared_ptr<RequestTrace> trace);
    /** Fan a STATS/METRICS/TRACES request out to every routable
     *  backend. */
    void startGather(std::uint64_t conn_id, std::uint64_t client_tag,
                     Gather::Kind kind);
    void finishGatherIfDone(std::uint64_t gather_id);
    /** Queue a frame on a client connection; no-op when the
     *  connection is gone. IO thread only. */
    void sendToClient(std::uint64_t conn_id, OutFrame frame);
    void sendClientError(std::uint64_t conn_id, std::uint64_t tag,
                         const std::string &message);
    void updateBackendInterest(std::size_t idx);
    /** Remove backend @p idx from the routable set, drop its
     *  connection if still open, re-ring, and migrate or fail its
     *  in-flight requests. */
    void backendDown(std::size_t idx, const std::string &reason);
    /** Ping-confirmed (and admin-healthy) backend joins the ring. */
    void backendUp(std::size_t idx);
    /** Rebuild ring_ / ring_map_ over the routable set. */
    void rebuildRing();
    void sendPings();
    void tryReconnects(int elapsed_ms);
    /** Begin a (re)connect of backend @p idx and register its fd. */
    void tryConnect(std::size_t idx);
    /** First PING after a connect: routability gates on its answer. */
    void sendLivenessPing(std::size_t idx);
    /** True while responses or gather replies are still owed to this
     *  client (a half-closed conn must survive until delivery). */
    bool clientOwedWork(std::uint64_t conn_id) const;
    /** Add @p n to one GatewayStats field and its registry counter
     *  (may be null). */
    void count(std::uint64_t GatewayStats::*stat, Counter *counter,
               std::uint64_t n = 1);
    /** Begin (or continue) tracing a request admitted at the front
     *  door: mint a context when none arrived and tracing is on,
     *  adopt it into a gateway-tier trace, stamp Decode. */
    std::shared_ptr<RequestTrace>
    admitTrace(TraceContext *ctx, const SubmitView &req);
    /** What the admin plane reads from this gateway. */
    AdminPlane::Sources adminSources();

    Options opts_;
    std::string error_;

    std::mutex lifecycle_mutex_;
    bool stopped_ = false;
    std::atomic<bool> running_{false};
    std::atomic<bool> exiting_{false};

    Listener listener_;

    /** IO-thread only (except where noted). */
    EventLoop loop_;
    std::vector<std::unique_ptr<Backend>> backends_;
    /** Ring over the routable subset; ring_map_[ring shard] =
     *  backend index. Empty while no backend is routable. */
    std::unique_ptr<ConsistentHashRouter> ring_;
    std::vector<std::size_t> ring_map_;
    std::atomic<std::size_t> routable_count_{0};

    /** Client connections; keys start past the listen and backend
     *  keys. */
    ConnectionSet conns_;

    std::uint64_t next_tag_ = 1;
    std::map<std::uint64_t, Inflight> inflight_;
    /** One outstanding leg of a scatter-gather: which gather it
     *  belongs to and which backend owes the reply (so a backend
     *  death mid-gather releases the leg instead of hanging it). */
    struct GatherLeg
    {
        std::uint64_t gatherId = 0;
        std::size_t backendIdx = 0;
    };
    /** Backend tag → leg, for STATS/METRICS fan-out. */
    std::map<std::uint64_t, GatherLeg> gather_tags_;
    std::uint64_t next_gather_id_ = 1;
    std::map<std::uint64_t, Gather> gathers_;

    std::thread io_thread_;
    std::thread prober_thread_;

    mutable std::mutex stats_mutex_;
    GatewayStats stats_;

    std::unique_ptr<MetricsRegistry> metrics_;
    struct Instruments
    {
        Counter *requests = nullptr;
        Counter *relayed = nullptr;
        Counter *failovers = nullptr;
        Counter *resubmits = nullptr;
        Counter *errors = nullptr;
        Gauge *backendsRoutable = nullptr;
        Gauge *clientsLive = nullptr;
        Histogram *routeMicros = nullptr;
    } inst_;

    /** Declared after metrics_: stage histograms feed the registry. */
    TraceCollector collector_;

    /** Declared last: its threads call back into everything above,
     *  so it is destroyed first. */
    AdminPlane admin_;
};

/**
 * One blocking /healthz probe against @p host:@p admin_port with a
 * short timeout: true when the endpoint answers 200 (Ok or Degraded
 * both serve 200 — see obs/health.hh). Exposed for tests.
 */
bool probeHealthz(const std::string &host, std::uint16_t admin_port,
                  int timeout_ms);

} // namespace sap

#endif // SAP_NET_GATEWAY_HH
