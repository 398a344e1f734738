/**
 * @file
 * The multi-array cluster front end: N shards behind one door.
 *
 * The paper's size-independent scheme makes one fixed w-wide array
 * serve arbitrarily large problems; a real installation runs many
 * such arrays (the multi-processor direction of the hyper-systolic
 * line of work). Cluster models that: each shard is a self-contained
 * array installation (serve/shard.hh) with its own worker subset and
 * plan cache, and requests are routed by consistent hashing on the
 * plan digest (serve/plan_cache.hh planDigest), so
 *
 *  - a given matrix's prepared plan is built and cached on exactly
 *    one shard — aggregate plan-cache capacity scales with the shard
 *    count and no plan is duplicated;
 *  - plan-cache and stats lock contention stays bounded by one
 *    shard's thread count, not the installation's;
 *  - growing the installation re-homes only ~1/N of the matrices
 *    (cluster/router.hh).
 *
 * IO surfaces: future-based submit(), completion-callback
 * submitAsync(), completion-queue submitToQueue() for clients that
 * cannot block on futures (cluster/completion_queue.hh), and
 * submitBatch(), which groups same-matrix requests server-side into
 * a single prepared-plan streaming pass per shard.
 */

#ifndef SAP_CLUSTER_CLUSTER_HH
#define SAP_CLUSTER_CLUSTER_HH

#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "cluster/completion_queue.hh"
#include "cluster/router.hh"
#include "serve/shard.hh"

namespace sap {

/** Whole-cluster statistics: summed counters plus per-shard detail. */
struct ClusterStats
{
    std::uint64_t requests = 0;
    std::uint64_t failures = 0;
    std::uint64_t crossCheckFailures = 0;
    /** Counters summed over every shard's plan cache. */
    PlanCacheStats planCache;
    /** Full per-shard snapshots; index = shard id. */
    std::vector<ServerStats> shards;
};

/**
 * Sharded serving front end: routes each request to the shard that
 * owns its plan digest, so one matrix's prepared plan lives on
 * exactly one shard (see file comment).
 *
 * Thread-safety: all submission surfaces and stats() may be called
 * from any number of client threads; completion callbacks run on
 * the serving shard's worker thread.
 *
 * Ownership: the cluster owns its shards (and through them all
 * worker threads and plan caches); it does NOT own CompletionQueues
 * passed to submitToQueue() — keep a queue alive until its
 * completions arrive, which destroying the cluster first guarantees
 * (destruction drains every shard, so returned futures become
 * ready, accepted callbacks fire, and queued completions are
 * pushed). References returned by shard() stay valid for the
 * cluster's lifetime.
 */
class Cluster
{
  public:
    struct Options
    {
        /** Number of shards (array installations). */
        std::size_t shards = 2;
        /** Worker threads dedicated to each shard. */
        std::size_t threadsPerShard = 2;
        /** Plans kept by each shard's LRU plan cache. */
        std::size_t planCacheCapacityPerShard =
            PlanCache::kDefaultCapacity;
        /** Ring points per shard (see cluster/router.hh). */
        std::size_t virtualNodesPerShard =
            ConsistentHashRouter::kDefaultVirtualNodes;
        /** Cross-check every request (overrides per-request flag). */
        bool crossCheckAll = false;
        /** Per-shard obs/ metrics registries (see Shard::Options). */
        bool metrics = true;
    };

    /** Cluster with default options. */
    Cluster();

    explicit Cluster(const Options &opts);

    /** Drains every shard; see class comment. */
    ~Cluster() = default;

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    /** Number of shards. */
    std::size_t shardCount() const { return shards_.size(); }

    /**
     * The routing key of @p req: its plan digest. Deterministic in
     * the request content alone.
     */
    static Digest routingKey(const ServeRequest &req);

    /** Which shard @p req routes to, in [0, shardCount()). */
    std::size_t shardFor(const ServeRequest &req) const;

    /** Route @p req to its shard; the future resolves when served. */
    std::future<ServeResponse> submit(ServeRequest req);

    /**
     * Route @p req to its shard; @p done runs on the worker thread
     * that served it.
     */
    void submitAsync(ServeRequest req, CompletionFn done);

    /**
     * As submitAsync(), with @p digest = routingKey(req) already
     * computed — the gateway tier's FORWARD hop passes its routing
     * digest through so the matrices are hashed once per
     * installation, not once per hop. @p digest is a hint: the shard
     * plan cache confirms every digest hit with an exact matrix
     * comparison, so a wrong digest costs cache locality, never
     * correctness.
     */
    void submitAsync(ServeRequest req, CompletionFn done, Digest digest);

    /**
     * Route @p req to its shard; on completion, push
     * {@p tag, response} onto @p queue. @p queue must stay alive
     * until the completion arrives (destroying the Cluster first
     * guarantees that).
     */
    void submitToQueue(ServeRequest req, CompletionQueue *queue,
                       std::uint64_t tag);

    /** As submitToQueue(), with the routing digest precomputed (see
     *  the digest overload of submitAsync()). */
    void submitToQueue(ServeRequest req, CompletionQueue *queue,
                       std::uint64_t tag, Digest digest);

    /**
     * Partition @p reqs across shards and batch-submit each
     * partition (Shard::submitBatch), so same-matrix requests are
     * served through one prepared-plan streaming pass. Returns one
     * future per request, in the original request order.
     */
    std::vector<std::future<ServeResponse>>
    submitBatch(std::vector<ServeRequest> reqs);

    /** Summed counters plus per-shard snapshots. */
    ClusterStats stats() const;

    /**
     * Whole-installation snapshot with the per-shard StatsRecorder
     * data *merged*: one ServerStats whose per-(engine, shape)
     * groups combine every shard's counts, and whose p50/p99 come
     * from the shards' concatenated latency reservoirs (exact, not
     * percentile-of-percentiles). This is what the network layer's
     * STATS frame serves; stats() keeps the per-shard detail.
     */
    ServerStats statsSnapshot() const;

    /**
     * Whole-installation obs/ metrics: every shard's registry
     * snapshot merged *exactly* — counters and histogram buckets
     * add, gauges follow their GaugeAgg — so cluster p50/p99 equal
     * what one process observing every request would report. Empty
     * when Options::metrics is off. The network layer's METRICS
     * frame serves this (plus its own wire-level registry).
     */
    MetricsSnapshot metricsSnapshot() const;

    /**
     * Requests enqueued but not yet picked up, summed across shards
     * (0 when Options::metrics is off) — the health model's
     * saturation input, cheaper than a metrics snapshot.
     */
    double queueDepth() const;

    /** Direct access to shard @p i (for tests and monitoring). */
    const Shard &shard(std::size_t i) const;

  private:
    Options opts_;
    ConsistentHashRouter router_;
    /** unique_ptr: Shard is non-movable (owns threads and mutexes). */
    std::vector<std::unique_ptr<Shard>> shards_;
};

} // namespace sap

#endif // SAP_CLUSTER_CLUSTER_HH
