/**
 * @file
 * One serving shard: a self-contained array installation with its
 * own worker pool, plan cache, and statistics.
 *
 * This is the unit the serving layer composes. The single-pool
 * Server (serve/server.hh) is exactly one shard behind a compatible
 * facade; the cluster front end (cluster/cluster.hh) owns N of them
 * and routes requests by consistent hashing on the matrix
 * fingerprint, so a given matrix's prepared plan lives on exactly
 * one shard and plan-cache lock contention stays bounded by a
 * shard's own thread count instead of the whole installation's.
 *
 * Three submission surfaces:
 *  - submit()       future-based, for clients that can block;
 *  - submitAsync()  completion-callback, for clients that cannot
 *                   (the callback runs on the worker thread);
 *  - submitBatch()  server-side grouping: requests against the same
 *                   bound matrices are served through one prepared
 *                   plan fetched once, the software analogue of
 *                   streaming a request group through the array
 *                   back-to-back.
 */

#ifndef SAP_SERVE_SHARD_HH
#define SAP_SERVE_SHARD_HH

#include <chrono>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hh"
#include "obs/metrics.hh"
#include "obs/trace_ring.hh"
#include "serve/plan_cache.hh"
#include "serve/server_stats.hh"
#include "serve/thread_pool.hh"

namespace sap {

/** One serving request: which engine, which problem. */
struct ServeRequest
{
    /** Engine registry name ("linear", "hex", ...). */
    std::string engine;
    /** The full problem: bound matrices plus streamed operands. */
    EnginePlan plan;
    /** Cross-check this request against the host oracle. */
    bool crossCheck = false;
    /**
     * End-to-end trace riding with the request (obs/trace_ring.hh);
     * null = untraced (the common case). The shard stamps Dequeue /
     * Prepare / Execute and hands the pointer back on the response.
     */
    std::shared_ptr<RequestTrace> trace;
    /**
     * Cross-tier trace identity, when the request arrived with one
     * on the wire (FORWARD, or SUBMIT with the trace-context flag).
     * !valid() = none; the serving layers never require it.
     */
    TraceContext traceContext;
};

/** What a request resolves to. */
struct ServeResponse
{
    /** False when the request was malformed; see error. */
    bool ok = false;
    /** Human-readable reason when !ok. */
    std::string error;
    /** Engine results (valid when ok). */
    EngineRunResult result;
    /** The plan came from the cache (dense→band rebuild skipped). */
    bool cacheHit = false;
    /** False when a requested cross-check mismatched. */
    bool crossCheckOk = true;
    /** Wall-clock service time of this request in microseconds. */
    double latencyMicros = 0;
    /** The request's trace, handed through for downstream stamps
     *  (completion-queue push, writer pop, flush). */
    std::shared_ptr<RequestTrace> trace;
};

/** Completion callback for the async submission surface. */
using CompletionFn = std::function<void(ServeResponse)>;

/**
 * One shard of a serving installation.
 *
 * Thread-safety: all submission surfaces and stats() may be called
 * from any number of client threads. Destruction drains queued
 * requests first, so every returned future becomes ready and every
 * accepted callback fires.
 */
class Shard
{
  public:
    struct Options
    {
        /** Worker threads dedicated to this shard. */
        std::size_t threads = 2;
        /** Plans kept by this shard's LRU plan cache. */
        std::size_t planCacheCapacity = PlanCache::kDefaultCapacity;
        /** Cross-check every request (overrides per-request flag). */
        bool crossCheckAll = false;
        /**
         * Maintain the obs/ metrics registry (queue depth and wait,
         * latency and mode histograms, cycle-drift gauge). Off =
         * the pre-observability hot path, the baseline
         * bench_obs_overhead compares against.
         */
        bool metrics = true;
    };

    explicit Shard(const Options &opts);

    /** Drains in-flight and queued requests, then stops workers. */
    ~Shard() = default;

    Shard(const Shard &) = delete;
    Shard &operator=(const Shard &) = delete;

    /** Enqueue @p req; the future resolves when a worker served it. */
    std::future<ServeResponse> submit(ServeRequest req);

    /**
     * As submit(), with @p digest = planDigest(req.engine, req.plan)
     * already computed — the cluster router passes its routing key
     * through so the matrices are hashed once per request.
     */
    std::future<ServeResponse> submit(ServeRequest req, Digest digest);

    /**
     * Enqueue @p req; @p done runs on the worker thread that served
     * it, with the response. For clients that cannot block on
     * futures — the cluster layer builds its completion queue on
     * this.
     */
    void submitAsync(ServeRequest req, CompletionFn done);

    /** As submitAsync(), with the plan digest precomputed. */
    void submitAsync(ServeRequest req, CompletionFn done,
                     Digest digest);

    /**
     * Enqueue a request group, returning one future per request in
     * order. Requests whose (engine, kind, w, bound matrices) agree
     * are served through a single prepared plan fetched once from
     * the cache — followers are reported as cache hits — and each
     * group occupies one worker, streaming its requests
     * back-to-back.
     */
    std::vector<std::future<ServeResponse>>
    submitBatch(std::vector<ServeRequest> reqs);

    /** As submitBatch(), with each request's plan digest paired in. */
    std::vector<std::future<ServeResponse>>
    submitBatch(std::vector<std::pair<ServeRequest, Digest>> reqs);

    /** Consistent statistics snapshot (includes plan-cache stats). */
    ServerStats stats() const;

    /**
     * As stats(); @p include_samples additionally exports each
     * group's latency reservoir so an aggregator
     * (Cluster::statsSnapshot) can merge percentiles exactly.
     */
    ServerStats stats(bool include_samples) const;

    /** Worker count. */
    std::size_t threadCount() const { return pool_.threadCount(); }

    /** The shard's plan cache (for tests and monitoring). */
    const PlanCache &planCache() const { return cache_; }

    /**
     * Point-in-time copy of this shard's obs/ metrics (plan-cache
     * counters injected from the cache, queue depth from the live
     * gauge). Empty when Options::metrics is off. Cluster snapshots
     * merge these exactly — counters and histogram buckets add.
     */
    MetricsSnapshot metricsSnapshot() const;

    /**
     * Requests enqueued but not yet picked up by a worker, from the
     * live queue-depth gauge (0 when Options::metrics is off) — the
     * health model's saturation input, cheaper than a full snapshot.
     */
    double queueDepth() const;

  private:
    /** One batched request plus the promise that resolves it. */
    struct Job
    {
        ServeRequest req;
        std::promise<ServeResponse> promise;
    };

    ServeResponse handle(const ServeRequest &req);
    ServeResponse handle(const ServeRequest &req, Digest digest);
    /** Metrics hook at enqueue time (queue depth up). */
    void noteEnqueued(std::size_t n = 1);
    /** Metrics + trace hook when a worker picks a request up:
     *  Dequeue stamp, queue-wait histogram, queue depth down. */
    void noteDequeued(std::chrono::steady_clock::time_point enqueuedAt,
                      const std::shared_ptr<RequestTrace> &trace,
                      std::size_t n = 1);
    /** Error response for a malformed request (records the failure). */
    ServeResponse fail(std::string error,
                       std::chrono::steady_clock::time_point t0);
    /** Execute a validated request through @p prepared and record it. */
    ServeResponse finish(const ServeRequest &req,
                         const SystolicEngine &engine,
                         const PreparedPlan &prepared, bool cacheHit,
                         std::chrono::steady_clock::time_point t0);
    /** Serve one same-digest group through a shared prepared plan. */
    void serveGroup(Digest digest, std::vector<Job> &jobs);
    /** The shared engine instance registered as @p name, or nullptr
     *  for an unknown name. Lock-free: engines_ is read-only after
     *  construction. */
    const SystolicEngine *engineFor(const std::string &name) const;

    /** Hot-path instruments resolved once at construction, so
     *  recording never pays the registry's name lookup. All null
     *  when Options::metrics is off. */
    struct Instruments
    {
        Counter *requests = nullptr;
        Counter *failures = nullptr;
        Counter *crossCheckFailures = nullptr;
        /** Indexed by ExecMode value. */
        Counter *modeCounts[3] = {};
        Gauge *queueDepth = nullptr;
        Gauge *cyclesDrift = nullptr;
        Histogram *queueWait = nullptr;
        Histogram *latency = nullptr;
    };

    Options opts_;
    PlanCache cache_;
    StatsRecorder stats_;
    /** Created iff Options::metrics; null keeps the hot path at one
     *  pointer test per hook. */
    std::unique_ptr<MetricsRegistry> metrics_;
    Instruments inst_;

    /** One instance of every registered engine, built at
     *  construction. */
    const std::map<std::string, std::unique_ptr<SystolicEngine>>
        engines_;

    /** Declared last: destroyed first, so workers drain while every
     *  other member is still alive. */
    ThreadPool pool_;
};

} // namespace sap

#endif // SAP_SERVE_SHARD_HH
