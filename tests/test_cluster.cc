/**
 * @file
 * Tests of the cluster layer: consistent-hash routing (determinism,
 * coverage, rebalance behavior), shard pinning of plan caches, the
 * async completion-queue and callback surfaces, server-side batch
 * grouping, and malformed-request error paths exercised through the
 * cluster router.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <limits>
#include <set>
#include <string>

#include "cluster/cluster.hh"
#include "cluster/router.hh"
#include "mat/generate.hh"
#include "mat/ops.hh"

namespace sap {
namespace {

ServeRequest
matVecRequest(const std::string &engine, const Dense<Scalar> &a,
              std::uint64_t seed, Index w)
{
    ServeRequest req;
    req.engine = engine;
    req.plan = EnginePlan::matVec(a, randomIntVec(a.cols(), seed),
                                  randomIntVec(a.rows(), seed + 1), w);
    return req;
}

//---------------------------------------------------------------------
// ConsistentHashRouter.
//---------------------------------------------------------------------

TEST(Router, DeterministicAcrossInstances)
{
    ConsistentHashRouter r1(4), r2(4);
    for (int i = 0; i < 200; ++i) {
        Digest key = fingerprintString("key-" + std::to_string(i));
        EXPECT_EQ(r1.shardFor(key), r2.shardFor(key)) << i;
    }
}

TEST(Router, EveryShardOwnsPartOfTheKeySpace)
{
    ConsistentHashRouter router(4);
    std::set<std::size_t> owners;
    for (int i = 0; i < 500; ++i)
        owners.insert(router.shardFor(
            fingerprintString("key-" + std::to_string(i))));
    EXPECT_EQ(owners.size(), 4u);
    for (std::size_t s : owners)
        EXPECT_LT(s, 4u);
}

TEST(Router, ResizeMovesOnlyAFractionOfKeys)
{
    // Growing 4 -> 5 shards should re-home roughly 1/5 of the keys;
    // modulo routing would move ~4/5. Assert the consistent-hash
    // bound with slack, and that some keys did move.
    const int kKeys = 2000;
    ConsistentHashRouter before(4), after(5);
    int moved = 0;
    for (int i = 0; i < kKeys; ++i) {
        Digest key = fingerprintString("key-" + std::to_string(i));
        if (before.shardFor(key) != after.shardFor(key))
            ++moved;
    }
    EXPECT_GT(moved, 0);
    EXPECT_LT(static_cast<double>(moved) / kKeys, 0.40)
        << "consistent hashing moved " << moved << "/" << kKeys;
    // Keys that moved must have moved *to the new shard* or onto an
    // arc the new shard displaced; either way no key may land on an
    // out-of-range shard.
    for (int i = 0; i < kKeys; ++i) {
        Digest key = fingerprintString("key-" + std::to_string(i));
        EXPECT_LT(after.shardFor(key), 5u);
    }
}

//---------------------------------------------------------------------
// Routing and shard pinning through the Cluster.
//---------------------------------------------------------------------

TEST(Cluster, RoutingIsDeterministicAcrossInstances)
{
    Cluster::Options opts;
    opts.shards = 4;
    Cluster c1(opts), c2(opts);
    for (int i = 0; i < 8; ++i) {
        Dense<Scalar> a = randomIntDense(6, 6, 300 + i);
        ServeRequest req = matVecRequest("linear", a, 400 + i, 3);
        EXPECT_EQ(c1.shardFor(req), c2.shardFor(req)) << i;
        EXPECT_EQ(c1.shardFor(req), c1.shardFor(req));
    }
}

TEST(Cluster, MatrixPlanLivesOnExactlyOneShard)
{
    Cluster::Options opts;
    opts.shards = 4;
    opts.threadsPerShard = 1;
    Cluster cluster(opts);

    Dense<Scalar> a = randomIntDense(8, 8, 501);
    std::size_t home = 0;
    for (int i = 0; i < 6; ++i) {
        ServeRequest req = matVecRequest("linear", a, 510 + 2 * i, 4);
        home = cluster.shardFor(req);
        ServeResponse resp = cluster.submit(std::move(req)).get();
        ASSERT_TRUE(resp.ok) << resp.error;
    }

    // The plan was built once, on the home shard; every other shard
    // never saw the matrix.
    for (std::size_t s = 0; s < cluster.shardCount(); ++s) {
        SCOPED_TRACE("shard " + std::to_string(s));
        if (s == home) {
            EXPECT_EQ(cluster.shard(s).planCache().size(), 1u);
            ServerStats stats = cluster.shard(s).stats();
            EXPECT_EQ(stats.requests, 6u);
            EXPECT_EQ(stats.planCache.misses, 1u);
            EXPECT_EQ(stats.planCache.hits, 5u);
        } else {
            EXPECT_EQ(cluster.shard(s).planCache().size(), 0u);
            EXPECT_EQ(cluster.shard(s).stats().requests, 0u);
        }
    }

    ClusterStats total = cluster.stats();
    EXPECT_EQ(total.requests, 6u);
    EXPECT_EQ(total.planCache.hits, 5u);
    EXPECT_EQ(total.planCache.misses, 1u);
    ASSERT_EQ(total.shards.size(), 4u);
}

TEST(Cluster, DistinctMatricesSpreadAcrossShards)
{
    Cluster::Options opts;
    opts.shards = 4;
    opts.threadsPerShard = 1;
    Cluster cluster(opts);

    std::set<std::size_t> homes;
    for (int i = 0; i < 24; ++i) {
        Dense<Scalar> a = randomIntDense(6, 6, 600 + i);
        homes.insert(
            cluster.shardFor(matVecRequest("linear", a, 700 + i, 3)));
    }
    // 24 distinct matrices over 4 shards: more than one shard must
    // own some (with the default ring, in fact all of them do).
    EXPECT_GT(homes.size(), 1u);
}

TEST(Cluster, ServesCorrectResultsAcrossShards)
{
    Cluster::Options opts;
    opts.shards = 3;
    opts.crossCheckAll = true;
    Cluster cluster(opts);

    std::vector<ServeRequest> reqs;
    std::vector<std::future<ServeResponse>> futures;
    for (int i = 0; i < 9; ++i) {
        Dense<Scalar> a = randomIntDense(7, 5, 800 + i);
        reqs.push_back(matVecRequest("linear", a, 900 + 2 * i, 3));
    }
    for (const ServeRequest &req : reqs)
        futures.push_back(cluster.submit(req));
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        ServeResponse resp = futures[i].get();
        ASSERT_TRUE(resp.ok) << resp.error;
        EXPECT_TRUE(resp.crossCheckOk);
        Vec<Scalar> gold =
            matVec(reqs[i].plan.a, reqs[i].plan.x, reqs[i].plan.b);
        EXPECT_EQ(maxAbsDiff(resp.result.y, gold), 0.0) << i;
    }
    EXPECT_EQ(cluster.stats().crossCheckFailures, 0u);
}

TEST(Cluster, TriSolveRequestsRouteBatchAndCrossCheck)
{
    // The triangular workload through the whole cluster surface:
    // digest routing pins each L to one shard, and batch submission
    // groups same-L requests into one prepared-plan streaming pass.
    Cluster::Options opts;
    opts.shards = 3;
    opts.crossCheckAll = true;
    Cluster cluster(opts);

    const Index n = 8, w = 3;
    std::vector<ServeRequest> reqs;
    for (int i = 0; i < 12; ++i) {
        ServeRequest req;
        req.engine = "tri";
        // Four distinct systems, three right-hand sides each.
        Dense<Scalar> l =
            randomUnitLowerTriangular(n, 1900 + i % 4);
        req.plan = EnginePlan::triSolve(
            l, randomIntVec(n, 1950 + i), w);
        reqs.push_back(std::move(req));
    }
    // Same binding ⇒ same digest ⇒ same shard.
    EXPECT_EQ(cluster.shardFor(reqs[0]), cluster.shardFor(reqs[4]));

    std::vector<ServeRequest> copies = reqs;
    std::vector<std::future<ServeResponse>> futures =
        cluster.submitBatch(std::move(copies));
    std::size_t rode_shared_plan = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        ServeResponse resp = futures[i].get();
        ASSERT_TRUE(resp.ok) << resp.error;
        EXPECT_TRUE(resp.crossCheckOk);
        if (resp.cacheHit)
            ++rode_shared_plan;
        Vec<Scalar> gold = forwardSolve(reqs[i].plan.a,
                                        reqs[i].plan.b);
        EXPECT_EQ(maxAbsDiff(resp.result.y, gold), 0.0) << i;
    }
    ClusterStats stats = cluster.stats();
    EXPECT_EQ(stats.crossCheckFailures, 0u);
    // Four distinct systems: four group leaders build, and each
    // group's followers ride the leader's prepared plan.
    EXPECT_EQ(stats.planCache.misses, 4u);
    EXPECT_EQ(rode_shared_plan, 8u);
}

//---------------------------------------------------------------------
// Async IO: completion callbacks and the completion queue.
//---------------------------------------------------------------------

TEST(Cluster, SubmitAsyncFiresCompletionCallback)
{
    Cluster::Options opts;
    opts.shards = 2;
    Cluster cluster(opts);

    Dense<Scalar> a = randomIntDense(6, 6, 1001);
    ServeRequest req = matVecRequest("linear", a, 1002, 3);
    Vec<Scalar> gold = matVec(req.plan.a, req.plan.x, req.plan.b);

    std::promise<ServeResponse> done;
    std::future<ServeResponse> fut = done.get_future();
    cluster.submitAsync(std::move(req), [&done](ServeResponse resp) {
        done.set_value(std::move(resp));
    });
    ServeResponse resp = fut.get();
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_EQ(maxAbsDiff(resp.result.y, gold), 0.0);
}

TEST(Cluster, CompletionQueueDeliversEveryTag)
{
    const int kRequests = 20;
    CompletionQueue queue;
    std::vector<Vec<Scalar>> gold(kRequests);
    {
        Cluster::Options opts;
        opts.shards = 3;
        Cluster cluster(opts);
        for (int i = 0; i < kRequests; ++i) {
            Dense<Scalar> a = randomIntDense(6, 6, 1100 + i % 4);
            ServeRequest req =
                matVecRequest("linear", a, 1200 + 2 * i, 3);
            gold[i] = matVec(req.plan.a, req.plan.x, req.plan.b);
            cluster.submitToQueue(std::move(req), &queue,
                                  static_cast<std::uint64_t>(i));
        }
        // Cluster destruction drains the shards: every completion
        // is pushed before the queue is polled.
    }
    queue.shutdown();

    std::set<std::uint64_t> tags;
    Completion c;
    while (queue.next(&c)) {
        ASSERT_TRUE(c.response.ok) << c.response.error;
        ASSERT_LT(c.tag, static_cast<std::uint64_t>(kRequests));
        EXPECT_EQ(maxAbsDiff(c.response.result.y, gold[c.tag]), 0.0)
            << "tag " << c.tag;
        EXPECT_TRUE(tags.insert(c.tag).second)
            << "duplicate tag " << c.tag;
    }
    EXPECT_EQ(tags.size(), static_cast<std::size_t>(kRequests));
    EXPECT_FALSE(queue.next(&c)); // drained + shut down
}

TEST(CompletionQueue, TryNextDoesNotBlock)
{
    CompletionQueue queue;
    Completion c;
    EXPECT_FALSE(queue.tryNext(&c));
    queue.push({7, ServeResponse{}});
    EXPECT_EQ(queue.size(), 1u);
    ASSERT_TRUE(queue.tryNext(&c));
    EXPECT_EQ(c.tag, 7u);
    EXPECT_FALSE(queue.tryNext(&c));
}

TEST(CompletionQueue, PushAfterShutdownStillDelivered)
{
    CompletionQueue queue;
    queue.shutdown();
    queue.push({3, ServeResponse{}});
    Completion c;
    ASSERT_TRUE(queue.next(&c));
    EXPECT_EQ(c.tag, 3u);
    EXPECT_FALSE(queue.next(&c));
}

//---------------------------------------------------------------------
// Server-side batch grouping.
//---------------------------------------------------------------------

TEST(Cluster, BatchGroupsSameMatrixIntoOneBuild)
{
    Cluster::Options opts;
    opts.shards = 2;
    opts.threadsPerShard = 1;
    Cluster cluster(opts);

    Dense<Scalar> a1 = randomIntDense(8, 8, 1301);
    Dense<Scalar> a2 = randomIntDense(8, 8, 1302);
    std::vector<ServeRequest> reqs;
    for (int i = 0; i < 6; ++i)
        reqs.push_back(matVecRequest("linear", a1, 1400 + 2 * i, 4));
    for (int i = 0; i < 3; ++i)
        reqs.push_back(matVecRequest("linear", a2, 1500 + 2 * i, 4));

    std::vector<Vec<Scalar>> gold;
    for (const ServeRequest &req : reqs)
        gold.push_back(matVec(req.plan.a, req.plan.x, req.plan.b));

    std::vector<std::future<ServeResponse>> futures =
        cluster.submitBatch(std::move(reqs));
    ASSERT_EQ(futures.size(), gold.size());
    std::size_t reported_hits = 0;
    for (std::size_t i = 0; i < futures.size(); ++i) {
        ServeResponse resp = futures[i].get();
        ASSERT_TRUE(resp.ok) << resp.error;
        // Order preserved: each response matches its own operands.
        EXPECT_EQ(maxAbsDiff(resp.result.y, gold[i]), 0.0) << i;
        reported_hits += resp.cacheHit ? 1 : 0;
    }

    ClusterStats stats = cluster.stats();
    EXPECT_EQ(stats.requests, 9u);
    // One dense→band build per distinct matrix; every follower rode
    // the group's shared plan (reported as a cache hit).
    EXPECT_EQ(stats.planCache.misses, 2u);
    EXPECT_EQ(reported_hits, 7u);
}

TEST(Cluster, BatchNonFiniteFollowersRideTheLeadersPlan)
{
    // A bound matrix holding NaN groups by its bytes: followers of a
    // NaN-bearing leader share its prepared plan instead of each
    // building their own.
    Cluster::Options opts;
    opts.shards = 2;
    opts.threadsPerShard = 1;
    Cluster cluster(opts);

    Dense<Scalar> a = randomIntDense(8, 8, 1701);
    a(2, 6) = std::numeric_limits<Scalar>::quiet_NaN();
    std::vector<ServeRequest> reqs;
    for (int i = 0; i < 4; ++i)
        reqs.push_back(matVecRequest("linear", a, 1710 + 2 * i, 4));

    std::vector<std::future<ServeResponse>> futures =
        cluster.submitBatch(std::move(reqs));
    std::size_t reported_hits = 0;
    for (std::size_t i = 0; i < futures.size(); ++i) {
        ServeResponse resp = futures[i].get();
        ASSERT_TRUE(resp.ok) << resp.error;
        // Row 2 meets the NaN; the other rows stay finite.
        ASSERT_EQ(resp.result.y.size(), 8);
        EXPECT_TRUE(std::isnan(resp.result.y[2])) << i;
        EXPECT_TRUE(std::isfinite(resp.result.y[0])) << i;
        reported_hits += resp.cacheHit ? 1 : 0;
    }
    ClusterStats stats = cluster.stats();
    EXPECT_EQ(stats.planCache.misses, 1u);
    // Followers that rode the leader's plan never probed the cache.
    EXPECT_EQ(stats.planCache.hits, 0u);
    EXPECT_EQ(stats.planCache.collisions, 0u);
    EXPECT_EQ(reported_hits, 3u);
}

TEST(Cluster, BatchMalformedRequestDoesNotBlockItsGroup)
{
    Cluster::Options opts;
    opts.shards = 2;
    opts.threadsPerShard = 1;
    Cluster cluster(opts);

    Dense<Scalar> a = randomIntDense(6, 6, 1601);
    std::vector<ServeRequest> reqs;
    // A shape-mismatched request, hand-built to bypass the
    // asserting factory — same matrix, so it routes with the group.
    ServeRequest bad;
    bad.engine = "linear";
    bad.plan.kind = ProblemKind::MatVec;
    bad.plan.a = a;
    bad.plan.x = randomIntVec(5, 1602); // wrong length
    bad.plan.b = randomIntVec(6, 1603);
    bad.plan.w = 3;
    reqs.push_back(std::move(bad));
    for (int i = 0; i < 4; ++i)
        reqs.push_back(matVecRequest("linear", a, 1610 + 2 * i, 3));

    std::vector<std::future<ServeResponse>> futures =
        cluster.submitBatch(std::move(reqs));
    ServeResponse first = futures[0].get();
    EXPECT_FALSE(first.ok);
    EXPECT_FALSE(first.error.empty());
    for (std::size_t i = 1; i < futures.size(); ++i) {
        ServeResponse resp = futures[i].get();
        EXPECT_TRUE(resp.ok) << resp.error;
    }
    EXPECT_EQ(cluster.stats().failures, 1u);
    EXPECT_EQ(cluster.stats().requests, 4u);
}

TEST(Cluster, BatchMalformedFollowerGetsErrorResponseNotAbort)
{
    Cluster::Options opts;
    opts.shards = 2;
    opts.threadsPerShard = 1;
    Cluster cluster(opts);

    Dense<Scalar> a = randomIntDense(6, 6, 1651);
    std::vector<ServeRequest> reqs;
    // Valid leader first, then a same-matrix follower with malformed
    // streamed operands: it groups with the leader (the digest only
    // covers the bound matrices) and must still be validated.
    reqs.push_back(matVecRequest("linear", a, 1652, 3));
    ServeRequest bad;
    bad.engine = "linear";
    bad.plan.kind = ProblemKind::MatVec;
    bad.plan.a = a;
    bad.plan.x = randomIntVec(5, 1654); // wrong length
    bad.plan.b = randomIntVec(6, 1655);
    bad.plan.w = 3;
    reqs.push_back(std::move(bad));
    reqs.push_back(matVecRequest("linear", a, 1656, 3));

    std::vector<std::future<ServeResponse>> futures =
        cluster.submitBatch(std::move(reqs));
    EXPECT_TRUE(futures[0].get().ok);
    ServeResponse follower = futures[1].get();
    EXPECT_FALSE(follower.ok);
    EXPECT_FALSE(follower.error.empty());
    EXPECT_TRUE(futures[2].get().ok);
    EXPECT_EQ(cluster.stats().failures, 1u);
    EXPECT_EQ(cluster.stats().requests, 2u);
}

TEST(Cluster, EmptyBatchIsANoop)
{
    Cluster cluster;
    EXPECT_TRUE(cluster.submitBatch({}).empty());
    EXPECT_EQ(cluster.stats().requests, 0u);
}

//---------------------------------------------------------------------
// Malformed-request error paths through the router (serve edge
// coverage).
//---------------------------------------------------------------------

TEST(Cluster, MalformedRequestsResolveToErrorsThroughTheRouter)
{
    Cluster::Options opts;
    opts.shards = 3;
    Cluster cluster(opts);

    ServeRequest unknown;
    unknown.engine = "no-such-engine";
    unknown.plan = EnginePlan::matVec(randomIntDense(4, 4, 1701),
                                      randomIntVec(4, 1702),
                                      randomIntVec(4, 1703), 2);
    ServeResponse r1 = cluster.submit(unknown).get();
    EXPECT_FALSE(r1.ok);
    EXPECT_NE(r1.error.find("unknown engine"), std::string::npos);

    // Kind mismatch: a matvec plan routed to the hex engine.
    ServeRequest wrong_kind = unknown;
    wrong_kind.engine = "hex";
    ServeResponse r2 = cluster.submit(wrong_kind).get();
    EXPECT_FALSE(r2.ok);
    EXPECT_FALSE(r2.error.empty());

    // Shape mismatch, hand-built to bypass the asserting factory.
    ServeRequest bad_shape;
    bad_shape.engine = "linear";
    bad_shape.plan.kind = ProblemKind::MatVec;
    bad_shape.plan.a = randomIntDense(4, 4, 1704);
    bad_shape.plan.x = randomIntVec(3, 1705); // wrong length
    bad_shape.plan.b = randomIntVec(4, 1706);
    bad_shape.plan.w = 2;
    ServeResponse r3 = cluster.submit(bad_shape).get();
    EXPECT_FALSE(r3.ok);
    EXPECT_FALSE(r3.error.empty());

    ClusterStats stats = cluster.stats();
    EXPECT_EQ(stats.failures, 3u);
    EXPECT_EQ(stats.requests, 0u);
    // No plan was ever cached for a malformed request.
    for (std::size_t s = 0; s < cluster.shardCount(); ++s)
        EXPECT_EQ(cluster.shard(s).planCache().size(), 0u);
}

TEST(Cluster, StatsSnapshotMergesShardsExactly)
{
    Cluster::Options opts;
    opts.shards = 3;
    Cluster cluster(opts);

    // Several distinct matrices of one shape (spread over shards by
    // digest routing) plus one of another shape.
    const int kSameShape = 8;
    for (int i = 0; i < kSameShape; ++i) {
        ServeRequest req = matVecRequest(
            "linear", randomIntDense(6, 6, 2000 + i), 2100 + i, 3);
        ASSERT_TRUE(cluster.submit(std::move(req)).get().ok);
    }
    ServeRequest other = matVecRequest(
        "linear", randomIntDense(9, 4, 2300), 2301, 3);
    ASSERT_TRUE(cluster.submit(std::move(other)).get().ok);

    ServerStats merged = cluster.statsSnapshot();
    ClusterStats per_shard = cluster.stats();

    // Counters agree with the per-shard view.
    EXPECT_EQ(merged.requests, per_shard.requests);
    EXPECT_EQ(merged.requests,
              static_cast<std::uint64_t>(kSameShape + 1));
    EXPECT_EQ(merged.failures, 0u);
    EXPECT_EQ(merged.planCache.misses, per_shard.planCache.misses);

    // One merged group per (engine, shape), combining every shard's
    // requests for that shape.
    ASSERT_EQ(merged.groups.size(), 2u);
    EXPECT_EQ(merged.groups[0].key.rows, 6);
    EXPECT_EQ(merged.groups[0].requests,
              static_cast<std::uint64_t>(kSameShape));
    EXPECT_EQ(merged.groups[1].key.rows, 9);
    EXPECT_EQ(merged.groups[1].requests, 1u);

    // The 6x6 shape really did land on more than one shard, so the
    // merge combined distinct recorders (not a trivial copy)...
    std::size_t shards_with_6x6 = 0;
    std::uint64_t group_requests_summed = 0;
    for (const ServerStats &s : per_shard.shards) {
        for (const GroupStats &g : s.groups) {
            if (g.key.rows == 6) {
                ++shards_with_6x6;
                group_requests_summed += g.requests;
            }
        }
    }
    EXPECT_GT(shards_with_6x6, 1u);
    EXPECT_EQ(group_requests_summed, merged.groups[0].requests);

    // ...and the merged percentiles come from merged samples: every
    // shard recorded latencies, so the merged p50/p99 are positive
    // and ordered, and samples cover every request.
    EXPECT_EQ(merged.groups[0].latency.samples,
              static_cast<std::uint64_t>(kSameShape));
    EXPECT_GT(merged.groups[0].latency.p50, 0.0);
    EXPECT_LE(merged.groups[0].latency.p50,
              merged.groups[0].latency.p99);
    EXPECT_LE(merged.groups[0].latency.p99,
              merged.groups[0].latency.max);
    // The merged view is a reporting artifact: samples are dropped.
    EXPECT_TRUE(merged.groups[0].latencySamples.empty());
}

namespace {

/** One-group ServerStats part for the merge-flagging tests. */
ServerStats
statsPart(std::uint64_t requests, std::vector<double> samples)
{
    ServerStats part;
    part.requests = requests;
    GroupStats g;
    g.key.engine = "linear";
    g.key.rows = 6;
    g.key.cols = 6;
    g.key.w = 3;
    g.latency.samples = requests;
    g.latency.mean = 10.0;
    g.latencySamples = std::move(samples);
    part.groups.push_back(std::move(g));
    return part;
}

} // namespace

TEST(MergeServerStats, FlagsApproximateWhenAnyInputLacksSamples)
{
    // One part exported its reservoir, the other only summary
    // numbers: the merged percentiles cannot cover every sample, so
    // the merge must say so instead of passing as exact.
    ServerStats with_samples = statsPart(3, {5.0, 10.0, 15.0});
    ServerStats summary_only = statsPart(2, {});

    ServerStats merged =
        mergeServerStats({with_samples, summary_only});
    EXPECT_TRUE(merged.approximatePercentiles);
    EXPECT_EQ(merged.requests, 5u);
    ASSERT_EQ(merged.groups.size(), 1u);
    EXPECT_EQ(merged.groups[0].latency.samples, 5u);
}

TEST(MergeServerStats, ExactWhenEveryInputCarriesSamples)
{
    ServerStats a = statsPart(2, {5.0, 10.0});
    ServerStats b = statsPart(3, {1.0, 2.0, 3.0});
    ServerStats merged = mergeServerStats({a, b});
    EXPECT_FALSE(merged.approximatePercentiles);

    // Zero-sample groups carry no latency evidence and must not
    // trip the flag either.
    ServerStats idle = statsPart(0, {});
    idle.groups[0].latency.samples = 0;
    EXPECT_FALSE(
        mergeServerStats({a, idle}).approximatePercentiles);
}

TEST(MergeServerStats, ClusterSnapshotIsExact)
{
    // The cluster's own snapshot path always exports reservoirs, so
    // its merge must never be flagged.
    Cluster::Options opts;
    opts.shards = 2;
    Cluster cluster(opts);
    for (int i = 0; i < 4; ++i) {
        ServeRequest req = matVecRequest(
            "linear", randomIntDense(6, 6, 2600 + i), 2700 + i, 3);
        ASSERT_TRUE(cluster.submit(std::move(req)).get().ok);
    }
    EXPECT_FALSE(cluster.statsSnapshot().approximatePercentiles);
}

TEST(Cluster, ZeroCapacityCachesServeEveryRequestUncached)
{
    Cluster::Options opts;
    opts.shards = 2;
    opts.planCacheCapacityPerShard = 0;
    Cluster cluster(opts);

    Dense<Scalar> a = randomIntDense(6, 6, 1801);
    for (int i = 0; i < 4; ++i) {
        ServeRequest req = matVecRequest("linear", a, 1810 + 2 * i, 3);
        Vec<Scalar> gold = matVec(req.plan.a, req.plan.x, req.plan.b);
        ServeResponse resp = cluster.submit(std::move(req)).get();
        ASSERT_TRUE(resp.ok) << resp.error;
        EXPECT_FALSE(resp.cacheHit);
        EXPECT_EQ(maxAbsDiff(resp.result.y, gold), 0.0);
    }
    ClusterStats stats = cluster.stats();
    EXPECT_EQ(stats.planCache.hits, 0u);
    EXPECT_EQ(stats.planCache.misses, 4u);
    for (std::size_t s = 0; s < cluster.shardCount(); ++s)
        EXPECT_EQ(cluster.shard(s).planCache().size(), 0u);
}

} // namespace
} // namespace sap
