#include "serve/plan_cache.hh"

#include "base/logging.hh"

namespace sap {

Digest
planDigest(const std::string &engine_name, const EnginePlan &plan,
           const DenseHashFn &hash)
{
    auto hashOf = [&hash](const Dense<Scalar> &m) {
        return hash ? hash(m) : fingerprintDense(m);
    };
    return combinePlanDigest(
        engine_name, plan.kind, plan.w, hashOf(plan.a),
        plan.kind == ProblemKind::MatMul ? hashOf(plan.bmat) : 0);
}

Digest
combinePlanDigest(const std::string &engine_name, ProblemKind kind,
                  Index w, Digest a_digest, Digest bmat_digest)
{
    Digest d = fingerprintString(engine_name);
    d = combineDigests(d, static_cast<Digest>(kind));
    d = combineDigests(d, static_cast<Digest>(w));
    d = combineDigests(d, a_digest);
    if (kind == ProblemKind::MatMul)
        d = combineDigests(d, bmat_digest);
    return d;
}

PlanCache::PlanCache(std::size_t capacity, DenseHashFn hash)
    : capacity_(capacity), default_hash_(!hash),
      hash_(hash ? std::move(hash) : DenseHashFn(fingerprintDense))
{
}

Digest
PlanCache::digestOf(const std::string &engine_name,
                    const EnginePlan &plan) const
{
    return planDigest(engine_name, plan, hash_);
}

std::vector<PlanCache::Entry>
PlanCache::candidatesLocked(Digest digest) const
{
    std::vector<Entry> out;
    auto range = index_.equal_range(digest);
    for (auto it = range.first; it != range.second; ++it)
        out.push_back(*it->second);
    return out;
}

std::shared_ptr<const PreparedPlan>
PlanCache::firstMatch(const std::vector<Entry> &candidates,
                      const std::string &engine_name,
                      const EnginePlan &plan, bool *collided)
{
    for (const Entry &e : candidates) {
        if (e.engine == engine_name && e.kind == plan.kind &&
            e.w == plan.w && e.plan->bindsSameOperands(plan))
            return e.plan;
        // A non-matching probe under the same digest is a hash
        // collision even when a later entry matches.
        *collided = true;
    }
    return nullptr;
}

void
PlanCache::promoteLocked(Digest digest, const PreparedPlan *plan)
{
    auto range = index_.equal_range(digest);
    for (auto it = range.first; it != range.second; ++it) {
        if (it->second->plan.get() == plan) {
            lru_.splice(lru_.begin(), lru_, it->second);
            return;
        }
    }
    // Evicted since the candidates were copied: nothing to promote.
}

std::shared_ptr<const PreparedPlan>
PlanCache::lookupLocked(Digest digest, const std::string &engine_name,
                        const EnginePlan &plan)
{
    bool collided = false;
    std::shared_ptr<const PreparedPlan> found =
        firstMatch(candidatesLocked(digest), engine_name, plan, &collided);
    if (collided)
        ++stats_.collisions;
    if (found)
        promoteLocked(digest, found.get());
    return found;
}

PlanCache::Prepared
PlanCache::prepare(const SystolicEngine &engine, const EnginePlan &plan)
{
    return prepareKeyed(engine, plan, digestOf(engine.name(), plan));
}

PlanCache::Prepared
PlanCache::prepare(const SystolicEngine &engine, const EnginePlan &plan,
                   Digest digest)
{
    // A caller's hint was computed with the default hash; recompute
    // when this cache hashes differently.
    if (!default_hash_)
        digest = digestOf(engine.name(), plan);
    return prepareKeyed(engine, plan, digest);
}

PlanCache::Prepared
PlanCache::prepareKeyed(const SystolicEngine &engine,
                        const EnginePlan &plan, Digest digest)
{
    const std::string engine_name = engine.name();

    // Copy the candidates out and compare outside the lock: the
    // byte compare reads every bound operand, and the shard's workers
    // must not serialize on it. The copies' shared_ptrs keep each
    // plan valid if it is evicted meanwhile.
    std::vector<Entry> candidates;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        candidates = candidatesLocked(digest);
    }
    bool collided = false;
    std::shared_ptr<const PreparedPlan> cached =
        firstMatch(candidates, engine_name, plan, &collided);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (collided)
            ++stats_.collisions;
        if (cached) {
            ++stats_.hits;
            promoteLocked(digest, cached.get());
            return {cached, /*hit=*/true};
        }
        ++stats_.misses;
    }

    // Build outside the lock: the transform is the expensive part
    // and must not serialize unrelated requests.
    std::shared_ptr<const PreparedPlan> built = engine.prepare(plan);

    // Capacity 0 = caching disabled: serve the build, keep nothing.
    if (capacity_ == 0)
        return {built, /*hit=*/false};

    Entry e{digest, engine_name, plan.kind, plan.w, built};
    std::lock_guard<std::mutex> lock(mutex_);
    // Another thread may have inserted the same key meanwhile;
    // prefer the incumbent so the cache holds one plan per matrix.
    if (auto cached = lookupLocked(digest, engine_name, plan))
        return {cached, /*hit=*/false};

    lru_.push_front(std::move(e));
    index_.emplace(digest, lru_.begin());
    while (lru_.size() > capacity_)
        evictLocked();
    return {built, /*hit=*/false};
}

void
PlanCache::evictLocked()
{
    SAP_ASSERT(!lru_.empty(), "evicting from an empty cache");
    auto victim = std::prev(lru_.end());
    auto range = index_.equal_range(victim->digest);
    for (auto it = range.first; it != range.second; ++it) {
        if (it->second == victim) {
            index_.erase(it);
            break;
        }
    }
    lru_.erase(victim);
    ++stats_.evictions;
}

PlanCacheStats
PlanCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::size_t
PlanCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lru_.size();
}

void
PlanCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    lru_.clear();
    index_.clear();
    stats_ = PlanCacheStats{};
}

} // namespace sap
