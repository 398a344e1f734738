/**
 * @file
 * Content-addressed cache of prepared (DBT-transformed) plans.
 *
 * The dense→band transform is the amortizable cost of the paper's
 * size-independent scheme: a w-cell array serves any problem size,
 * so a serving system pays the transform once per distinct matrix
 * and streams every subsequent request through the cached band
 * structure. This cache implements that amortization: plans are
 * keyed by (engine, kind, w, fingerprint of the bound operand
 * matrices) with LRU eviction.
 *
 * Collision safety: a digest match is only a candidate; the cache
 * confirms every hit by comparing the request's bound matrices, byte
 * for byte, with the cached plan's own storage
 * (PreparedPlan::bindsSameOperands), so distinct matrices that
 * collide in the hash never share a plan (counted in
 * stats().collisions). The hash function is injectable for tests to
 * force this path.
 *
 * Thread-safety: all public members are safe to call concurrently.
 * The hit check's byte compare runs outside the lock, on copies of
 * the candidate entries. Plan construction runs outside it too, so
 * two threads missing on the same key may both build; the first
 * insertion wins and the loser's plan serves only its own request.
 */

#ifndef SAP_SERVE_PLAN_CACHE_HH
#define SAP_SERVE_PLAN_CACHE_HH

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "engine/engine.hh"
#include "serve/fingerprint.hh"

namespace sap {

/** Monotonic cache counters (since construction or clear()). */
struct PlanCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /** Digest matches that were distinct matrices (hash collisions). */
    std::uint64_t collisions = 0;

    /** Hit fraction in [0, 1] (0 when no lookups yet). */
    double
    hitRate() const
    {
        std::uint64_t total = hits + misses;
        return total == 0
            ? 0.0
            : static_cast<double>(hits) / static_cast<double>(total);
    }
};

/**
 * The cache-identity digest of (engine, plan): what PlanCache keys
 * entries by and what the cluster router (cluster/router.hh) hashes
 * to pin a matrix to one shard. Covers engine name, problem kind,
 * array size, and the content digests of the bound matrices (A, and
 * B for MatMul).
 *
 * @param hash Dense-matrix hash; empty uses fingerprintDense.
 */
Digest planDigest(const std::string &engine_name,
                  const EnginePlan &plan,
                  const DenseHashFn &hash = nullptr);

/**
 * planDigest from its parts: @p a_digest (and, for MatMul,
 * @p bmat_digest) are the bound matrices' dense hashes. The one
 * definition of how the parts combine, shared by planDigest and by
 * callers that hash operands in place (net/protocol.hh
 * submitDigest).
 */
Digest combinePlanDigest(const std::string &engine_name,
                         ProblemKind kind, Index w, Digest a_digest,
                         Digest bmat_digest);

/**
 * LRU cache of prepared plans keyed by matrix content.
 *
 * Thread-safety: all public members are safe to call concurrently;
 * plan construction runs outside the lock (see file comment).
 *
 * Ownership: entries hold shared_ptr<const PreparedPlan>, so a plan
 * returned by prepare() remains valid after eviction or clear() —
 * eviction only drops the cache's reference. The plans are the only
 * copy of the bound matrices the cache holds — a hit is verified
 * against the plan itself — so its memory footprint is
 * capacity × plan.
 */
class PlanCache
{
  public:
    /** Default number of cached plans. */
    static constexpr std::size_t kDefaultCapacity = 64;

    /**
     * @param capacity Maximum number of cached plans. Capacity 0
     *        disables caching: every prepare() builds and counts a
     *        miss, and nothing is retained.
     * @param hash Dense-matrix hash; nullptr uses fingerprintDense.
     */
    explicit PlanCache(std::size_t capacity = kDefaultCapacity,
                       DenseHashFn hash = nullptr);

    /** One cache answer: the plan plus whether it was cached. */
    struct Prepared
    {
        std::shared_ptr<const PreparedPlan> plan;
        bool hit = false;
    };

    /**
     * Return the cached prepared plan for @p plan's bound matrices
     * on @p engine, building and inserting it on a miss.
     *
     * @pre plan.kind == engine.kind() (asserted by the engine).
     */
    Prepared prepare(const SystolicEngine &engine,
                     const EnginePlan &plan);

    /**
     * As prepare(), with the key digest already computed — callers
     * that hashed the matrices for routing (cluster/cluster.hh)
     * or batch grouping (serve/shard.hh) skip rehashing them here.
     *
     * @pre @p digest == planDigest(engine.name(), plan) with the
     *      default hash. When the cache was built with a custom
     *      hash, the hint is ignored and the digest is recomputed.
     */
    Prepared prepare(const SystolicEngine &engine,
                     const EnginePlan &plan, Digest digest);

    /** Counter snapshot. */
    PlanCacheStats stats() const;

    /** Number of plans currently cached. */
    std::size_t size() const;

    /** Maximum number of plans. */
    std::size_t capacity() const { return capacity_; }

    /** Drop all cached plans and reset the counters. */
    void clear();

  private:
    struct Entry
    {
        Digest digest;
        std::string engine;
        ProblemKind kind;
        Index w;
        std::shared_ptr<const PreparedPlan> plan;
    };
    using Lru = std::list<Entry>;

    Digest digestOf(const std::string &engine_name,
                    const EnginePlan &plan) const;
    /** The shared lookup/insert path; trusts @p digest as the key. */
    Prepared prepareKeyed(const SystolicEngine &engine,
                          const EnginePlan &plan, Digest digest);
    /** Copies of the entries under @p digest, in index order. */
    std::vector<Entry> candidatesLocked(Digest digest) const;
    /** The first of @p candidates whose plan binds @p plan on
     *  @p engine_name, or nullptr; sets *collided when a candidate
     *  before it (or any, when none matches) does not. Takes no
     *  lock. */
    static std::shared_ptr<const PreparedPlan>
    firstMatch(const std::vector<Entry> &candidates,
               const std::string &engine_name, const EnginePlan &plan,
               bool *collided);
    /** Move the entry holding @p plan under @p digest to the front;
     *  no-op when it has been evicted. */
    void promoteLocked(Digest digest, const PreparedPlan *plan);
    /** candidatesLocked + firstMatch + promoteLocked, all under
     *  mutex_, counting a collision. */
    std::shared_ptr<const PreparedPlan>
    lookupLocked(Digest digest, const std::string &engine_name,
                 const EnginePlan &plan);
    void evictLocked();

    std::size_t capacity_;
    /** True when hash_ is fingerprintDense: only then may callers'
     *  precomputed planDigest() hints substitute for digestOf().
     *  Declared before hash_ so it is initialized from the ctor
     *  argument before that argument is moved into hash_. */
    bool default_hash_;
    DenseHashFn hash_;

    mutable std::mutex mutex_;
    Lru lru_; ///< front = most recently used
    std::unordered_multimap<Digest, Lru::iterator> index_;
    PlanCacheStats stats_;
};

} // namespace sap

#endif // SAP_SERVE_PLAN_CACHE_HH
