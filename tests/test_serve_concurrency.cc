/**
 * @file
 * Concurrency tests of the serving layer, written to run under
 * ThreadSanitizer (the CI tsan job builds exactly this suite plus
 * test_serve/test_engine with -fsanitize=thread):
 *
 *  - many client threads hammering ONE engine through the server,
 *    all against the same matrix, so the plan-cache fast path and
 *    the shared PreparedPlan are exercised from every thread at
 *    once;
 *  - a mixed-topology request stream across every registered
 *    engine (all three problem kinds);
 *  - direct concurrent runPrepared() calls on one shared prepared
 *    plan, bypassing the server, to pin the engine-level
 *    thread-safety contract.
 *
 * Every result is asserted against the host golden model.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "engine/registry.hh"
#include "mat/generate.hh"
#include "mat/ops.hh"
#include "serve/plan_cache.hh"
#include "serve/server.hh"

namespace sap {
namespace {

TEST(ServeConcurrency, ManyClientThreadsOneEngineOneMatrix)
{
    const Index n = 10, m = 8, w = 3;
    const int kClients = 4;
    const int kRequestsPerClient = 6;

    Dense<Scalar> a = randomIntDense(n, m, 7);

    Server::Options opts;
    opts.threads = 4;
    Server server(opts);

    std::atomic<int> mismatches{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int i = 0; i < kRequestsPerClient; ++i) {
                std::uint64_t seed =
                    1000 + 100 * static_cast<std::uint64_t>(c) + 2 * i;
                ServeRequest req;
                req.engine = "linear";
                req.plan = EnginePlan::matVec(
                    a, randomIntVec(m, seed),
                    randomIntVec(n, seed + 1), w);
                Vec<Scalar> gold = matVec(a, req.plan.x, req.plan.b);
                ServeResponse resp =
                    server.submit(std::move(req)).get();
                if (!resp.ok ||
                    maxAbsDiff(resp.result.y, gold) != 0.0)
                    ++mismatches;
            }
        });
    }
    for (std::thread &t : clients)
        t.join();

    EXPECT_EQ(mismatches.load(), 0);
    ServerStats stats = server.stats();
    EXPECT_EQ(stats.requests,
              static_cast<std::uint64_t>(kClients *
                                         kRequestsPerClient));
    EXPECT_EQ(stats.failures, 0u);
    // One matrix: one cached plan. Concurrent first requests may
    // each miss before the first insert lands, so the miss count is
    // only bounded by the worker count.
    EXPECT_EQ(server.planCache().size(), 1u);
    EXPECT_GE(stats.planCache.misses, 1u);
    EXPECT_LE(stats.planCache.misses, opts.threads);
    EXPECT_EQ(stats.planCache.hits + stats.planCache.misses,
              stats.requests);
}

TEST(ServeConcurrency, MixedTopologyRequestStream)
{
    const Index n = 6, m = 6, p = 4, w = 2;
    Dense<Scalar> a = randomIntDense(n, m, 17);
    Dense<Scalar> bm = randomIntDense(m, p, 18);
    Dense<Scalar> lt = randomUnitLowerTriangular(n, 19);

    Server::Options opts;
    opts.threads = 4;
    opts.crossCheckAll = true;
    Server server(opts);

    std::vector<std::string> names = engineNames();
    std::vector<std::future<ServeResponse>> futures;
    for (int round = 0; round < 4; ++round) {
        for (const std::string &name : names) {
            auto engine = makeEngine(name);
            ServeRequest req;
            req.engine = name;
            std::uint64_t seed = 300 + 10 * round;
            req.plan = engine->kind() == ProblemKind::MatVec
                ? EnginePlan::matVec(a, randomIntVec(m, seed),
                                     randomIntVec(n, seed + 1), w)
                : engine->kind() == ProblemKind::MatMul
                    ? EnginePlan::matMul(
                          a, bm, randomIntDense(n, p, seed + 2), w)
                    : EnginePlan::triSolve(
                          lt, randomIntVec(n, seed + 3), w);
            futures.push_back(server.submit(std::move(req)));
        }
    }
    for (auto &f : futures) {
        ServeResponse resp = f.get();
        ASSERT_TRUE(resp.ok) << resp.error;
        EXPECT_TRUE(resp.crossCheckOk);
    }
    ServerStats stats = server.stats();
    EXPECT_EQ(stats.crossCheckFailures, 0u);
    EXPECT_EQ(stats.requests, futures.size());
    // One (matrix, w) binding per engine: one cached plan each
    // (concurrent first requests may duplicate a miss, never an
    // entry).
    EXPECT_EQ(server.planCache().size(), names.size());
    EXPECT_GE(stats.planCache.misses, names.size());
}

TEST(ServeConcurrency, SharedPreparedPlanAcrossRawThreads)
{
    const Index n = 9, m = 7, w = 3;
    const int kThreads = 4;
    Dense<Scalar> a = randomIntDense(n, m, 27);
    auto engine = makeEngine("linear");
    ASSERT_NE(engine, nullptr);

    EnginePlan plan = EnginePlan::matVec(a, Vec<Scalar>(m),
                                         Vec<Scalar>(n), w);
    std::shared_ptr<const PreparedPlan> prepared =
        engine->prepare(plan);

    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < 5; ++i) {
                std::uint64_t seed =
                    500 + 50 * static_cast<std::uint64_t>(t) + 2 * i;
                Vec<Scalar> x = randomIntVec(m, seed);
                Vec<Scalar> b = randomIntVec(n, seed + 1);
                EngineRunResult r = engine->runPrepared(
                    *prepared, EngineInputs::matVec(x, b));
                if (maxAbsDiff(r.y, matVec(a, x, b)) != 0.0)
                    ++mismatches;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(mismatches.load(), 0);
}

TEST(ServeConcurrency, PlanCacheSurvivesConcurrentMixedKeys)
{
    // Concurrent misses on the same key plus churn past capacity:
    // exercises insert-vs-insert races and LRU eviction under load.
    const Index s = 6, w = 3;
    const int kThreads = 4;
    auto engine = makeEngine("linear");
    PlanCache cache(3);

    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (std::uint64_t seed = 1; seed <= 6; ++seed) {
                Dense<Scalar> a = randomIntDense(s, s, seed);
                Vec<Scalar> x = randomIntVec(s, seed + 10);
                Vec<Scalar> b = randomIntVec(s, seed + 20);
                EnginePlan plan = EnginePlan::matVec(a, x, b, w);
                PlanCache::Prepared cached =
                    cache.prepare(*engine, plan);
                EngineRunResult r = engine->runPrepared(
                    *cached.plan, EngineInputs::matVec(x, b));
                if (maxAbsDiff(r.y, matVec(a, x, b)) != 0.0)
                    ++mismatches;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_LE(cache.size(), 3u);
}

TEST(PlanCacheConcurrency, HitsOnOneDigestRaceEvictionChurn)
{
    // Every matrix hashes to Digest{7}, so the hitters' entry and the
    // churner's share one candidate list: hitters compare outside the
    // lock while the churner inserts, collides and evicts, and a hit
    // may promote an entry that was evicted after its candidates were
    // copied.
    const Index s = 6, w = 3;
    const int kHitters = 3, kHitsEach = 200, kChurn = 200;
    auto engine = makeEngine("linear");
    PlanCache cache(3, [](const Dense<Scalar> &) { return Digest{7}; });

    const Dense<Scalar> a = randomIntDense(s, s, 71);
    const Vec<Scalar> x = randomIntVec(s, 72), b = randomIntVec(s, 73);
    const EnginePlan hot = EnginePlan::matVec(a, x, b, w);
    const Vec<Scalar> gold = matVec(a, x, b);

    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kHitters; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kHitsEach; ++i) {
                PlanCache::Prepared cached = cache.prepare(*engine, hot);
                EngineRunResult r = engine->runPrepared(
                    *cached.plan, EngineInputs::matVec(x, b));
                if (!cached.plan->bindsSameOperands(hot) ||
                    maxAbsDiff(r.y, gold) != 0.0)
                    ++mismatches;
            }
        });
    }
    threads.emplace_back([&] {
        for (int i = 0; i < kChurn; ++i) {
            EnginePlan cold = EnginePlan::matVec(
                randomIntDense(s, s, 100 + static_cast<std::uint64_t>(i % 8)),
                x, b, w);
            if (!cache.prepare(*engine, cold).plan->bindsSameOperands(cold))
                ++mismatches;
        }
    });
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(mismatches.load(), 0);
    const PlanCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses,
              static_cast<std::uint64_t>(kHitters * kHitsEach + kChurn));
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_GT(stats.collisions, 0u);
    EXPECT_LE(cache.size(), 3u);
}

} // namespace
} // namespace sap
