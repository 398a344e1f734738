#include "cluster/cluster.hh"

#include "base/logging.hh"

namespace sap {

namespace {

Shard::Options
shardOptions(const Cluster::Options &opts)
{
    Shard::Options shard;
    shard.threads = opts.threadsPerShard;
    shard.planCacheCapacity = opts.planCacheCapacityPerShard;
    shard.crossCheckAll = opts.crossCheckAll;
    shard.metrics = opts.metrics;
    return shard;
}

} // namespace

Cluster::Cluster() : Cluster(Options()) {}

Cluster::Cluster(const Options &opts)
    : opts_(opts),
      router_(opts.shards, opts.virtualNodesPerShard)
{
    SAP_ASSERT(opts_.shards >= 1, "cluster needs at least one shard");
    shards_.reserve(opts_.shards);
    for (std::size_t i = 0; i < opts_.shards; ++i)
        shards_.push_back(
            std::make_unique<Shard>(shardOptions(opts_)));
    SAP_LOG_DEBUG("cluster up: ", opts_.shards, " shards x ",
                  opts_.threadsPerShard, " threads, plan cache ",
                  opts_.planCacheCapacityPerShard, "/shard, metrics ",
                  opts_.metrics ? "on" : "off");
}

Digest
Cluster::routingKey(const ServeRequest &req)
{
    return planDigest(req.engine, req.plan);
}

std::size_t
Cluster::shardFor(const ServeRequest &req) const
{
    return router_.shardFor(routingKey(req));
}

std::future<ServeResponse>
Cluster::submit(ServeRequest req)
{
    // The routing key doubles as the shard-side cache digest, so
    // the matrices are hashed once per request.
    Digest key = routingKey(req);
    traceStamp(req.trace, TraceStage::Route);
    Shard &shard = *shards_[router_.shardFor(key)];
    return shard.submit(std::move(req), key);
}

void
Cluster::submitAsync(ServeRequest req, CompletionFn done)
{
    Digest key = routingKey(req);
    submitAsync(std::move(req), std::move(done), key);
}

void
Cluster::submitAsync(ServeRequest req, CompletionFn done, Digest digest)
{
    traceStamp(req.trace, TraceStage::Route);
    Shard &shard = *shards_[router_.shardFor(digest)];
    shard.submitAsync(std::move(req), std::move(done), digest);
}

void
Cluster::submitToQueue(ServeRequest req, CompletionQueue *queue,
                       std::uint64_t tag)
{
    Digest key = routingKey(req);
    submitToQueue(std::move(req), queue, tag, key);
}

void
Cluster::submitToQueue(ServeRequest req, CompletionQueue *queue,
                       std::uint64_t tag, Digest digest)
{
    SAP_ASSERT(queue != nullptr, "submitToQueue() needs a queue");
    submitAsync(
        std::move(req),
        [queue, tag](ServeResponse resp) {
            traceStamp(resp.trace, TraceStage::CqPush);
            queue->push({tag, std::move(resp)});
        },
        digest);
}

std::vector<std::future<ServeResponse>>
Cluster::submitBatch(std::vector<ServeRequest> reqs)
{
    // Partition by shard — carrying each request's digest along so
    // neither routing nor batch grouping hashes a matrix twice —
    // then batch-submit each partition and put the futures back in
    // request order.
    std::vector<std::vector<std::pair<ServeRequest, Digest>>>
        partition(shards_.size());
    std::vector<std::pair<std::size_t, std::size_t>> slot(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        Digest key = routingKey(reqs[i]);
        std::size_t s = router_.shardFor(key);
        slot[i] = {s, partition[s].size()};
        partition[s].emplace_back(std::move(reqs[i]), key);
    }

    std::vector<std::vector<std::future<ServeResponse>>> per_shard(
        shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s)
        if (!partition[s].empty())
            per_shard[s] =
                shards_[s]->submitBatch(std::move(partition[s]));

    std::vector<std::future<ServeResponse>> futures;
    futures.reserve(slot.size());
    for (const auto &[s, j] : slot)
        futures.push_back(std::move(per_shard[s][j]));
    return futures;
}

ClusterStats
Cluster::stats() const
{
    ClusterStats out;
    out.shards.reserve(shards_.size());
    for (const std::unique_ptr<Shard> &shard : shards_) {
        ServerStats s = shard->stats();
        out.requests += s.requests;
        out.failures += s.failures;
        out.crossCheckFailures += s.crossCheckFailures;
        out.planCache.hits += s.planCache.hits;
        out.planCache.misses += s.planCache.misses;
        out.planCache.evictions += s.planCache.evictions;
        out.planCache.collisions += s.planCache.collisions;
        out.shards.push_back(std::move(s));
    }
    return out;
}

MetricsSnapshot
Cluster::metricsSnapshot() const
{
    MetricsSnapshot merged;
    for (const std::unique_ptr<Shard> &shard : shards_)
        merged.merge(shard->metricsSnapshot());
    return merged;
}

double
Cluster::queueDepth() const
{
    double depth = 0;
    for (const std::unique_ptr<Shard> &shard : shards_)
        depth += shard->queueDepth();
    return depth;
}

ServerStats
Cluster::statsSnapshot() const
{
    std::vector<ServerStats> parts;
    parts.reserve(shards_.size());
    for (const std::unique_ptr<Shard> &shard : shards_)
        parts.push_back(shard->stats(/*include_samples=*/true));
    return mergeServerStats(parts);
}

const Shard &
Cluster::shard(std::size_t i) const
{
    SAP_ASSERT(i < shards_.size(), "shard index ", i,
               " out of range (", shards_.size(), " shards)");
    return *shards_[i];
}

} // namespace sap
