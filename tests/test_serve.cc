/**
 * @file
 * Tests of the serving layer: matrix fingerprints, the
 * content-addressed plan cache (hit/miss/eviction/collision), the
 * batched runMany() APIs with the golden-model cross-check, and the
 * Server front end's request/response and statistics contract.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <future>

#include "base/heap.hh"
#include "engine/registry.hh"
#include "mat/generate.hh"
#include "mat/ops.hh"
#include "serve/batch.hh"
#include "serve/fingerprint.hh"
#include "serve/plan_cache.hh"
#include "serve/server.hh"

namespace sap {
namespace {

//---------------------------------------------------------------------
// Fingerprints.
//---------------------------------------------------------------------

TEST(Fingerprint, DeterministicAndContentSensitive)
{
    Dense<Scalar> a = randomIntDense(6, 5, 1);
    Dense<Scalar> same = a;
    EXPECT_EQ(fingerprintDense(a), fingerprintDense(same));

    Dense<Scalar> flipped = a;
    flipped(2, 3) += 1;
    EXPECT_NE(fingerprintDense(a), fingerprintDense(flipped));
}

TEST(Fingerprint, ShapeIsPartOfTheIdentity)
{
    // Same bytes, different shape: a 2x3 and a 3x2 of equal data.
    Dense<Scalar> wide(2, 3), tall(3, 2);
    for (Index i = 0; i < 6; ++i) {
        wide(i / 3, i % 3) = static_cast<Scalar>(i + 1);
        tall(i / 2, i % 2) = static_cast<Scalar>(i + 1);
    }
    EXPECT_NE(fingerprintDense(wide), fingerprintDense(tall));
}

TEST(Fingerprint, EverySingleBitFlipChangesTheDigest)
{
    // 5×7 doubles = 280 bytes: eight full 32-byte stripes plus a
    // 24-byte tail, so flips land in every lane and in the tail.
    const Dense<Scalar> a = randomRealDense(5, 7, 3);
    const Digest base = fingerprintDense(a);
    for (Index r = 0; r < a.rows(); ++r) {
        for (Index c = 0; c < a.cols(); ++c) {
            for (int bit = 0; bit < 64; ++bit) {
                Dense<Scalar> flipped = a;
                std::uint64_t bits;
                std::memcpy(&bits, &flipped(r, c), sizeof(bits));
                bits ^= std::uint64_t{1} << bit;
                std::memcpy(&flipped(r, c), &bits, sizeof(bits));
                EXPECT_NE(fingerprintDense(flipped), base)
                    << "(" << r << "," << c << ") bit " << bit;
            }
        }
    }
}

TEST(Fingerprint, SwappedShapeOfTheSameBytesDiffers)
{
    Dense<Scalar> wide(5, 7), tall(7, 5);
    for (Index i = 0; i < 35; ++i) {
        wide(i / 7, i % 7) = static_cast<Scalar>(i + 1);
        tall(i / 5, i % 5) = static_cast<Scalar>(i + 1);
    }
    EXPECT_NE(fingerprintDense(wide), fingerprintDense(tall));
}

TEST(Fingerprint, StringDigestIsXxHash64)
{
    // Reference vectors of xxHash64 with seed 0; the last input is
    // long enough for the four-lane stripe loop.
    EXPECT_EQ(fingerprintString(""), 0xEF46DB3751D8E999ULL);
    EXPECT_EQ(fingerprintString("a"), 0xD24EC4F1A98C6E5BULL);
    EXPECT_EQ(fingerprintString("abc"), 0x44BC2CF5AD770999ULL);
    EXPECT_EQ(
        fingerprintString("Nobody inspects the spammish repetition"),
        0xFBCEA83C8A378BF1ULL);
}

TEST(Fingerprint, VectorAndStringDigests)
{
    Vec<Scalar> v{1, 2, 3};
    Vec<Scalar> w{1, 2, 4};
    EXPECT_NE(fingerprintVec(v), fingerprintVec(w));
    EXPECT_NE(fingerprintString("linear"), fingerprintString("hex"));
    EXPECT_NE(combineDigests(1, 2), combineDigests(2, 1));
}

//---------------------------------------------------------------------
// PlanCache.
//---------------------------------------------------------------------

TEST(PlanCache, HitOnRepeatedMatrixMissOnNewOne)
{
    auto engine = makeEngine("linear");
    ASSERT_NE(engine, nullptr);
    PlanCache cache(8);

    Dense<Scalar> a = randomIntDense(8, 8, 11);
    EnginePlan plan = EnginePlan::matVec(a, randomIntVec(8, 12),
                                         randomIntVec(8, 13), 4);

    PlanCache::Prepared first = cache.prepare(*engine, plan);
    EXPECT_FALSE(first.hit);
    PlanCache::Prepared second = cache.prepare(*engine, plan);
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(first.plan.get(), second.plan.get());

    // A different matrix must miss even with identical shape/w.
    EnginePlan other = EnginePlan::matVec(randomIntDense(8, 8, 99),
                                          plan.x, plan.b, 4);
    EXPECT_FALSE(cache.prepare(*engine, other).hit);

    PlanCacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCache, DifferentEnginesAndWidthsDoNotShare)
{
    PlanCache cache(8);
    Dense<Scalar> a = randomIntDense(6, 6, 21);
    EnginePlan w2 = EnginePlan::matVec(a, randomIntVec(6, 22),
                                       randomIntVec(6, 23), 2);
    EnginePlan w3 = EnginePlan::matVec(a, w2.x, w2.b, 3);

    auto linear = makeEngine("linear");
    auto grouped = makeEngine("grouped");
    EXPECT_FALSE(cache.prepare(*linear, w2).hit);
    EXPECT_FALSE(cache.prepare(*linear, w3).hit);
    EXPECT_FALSE(cache.prepare(*grouped, w2).hit);
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_TRUE(cache.prepare(*grouped, w2).hit);
}

TEST(PlanCache, LruEviction)
{
    auto engine = makeEngine("linear");
    PlanCache cache(2);
    auto planFor = [](std::uint64_t seed) {
        Dense<Scalar> a = randomIntDense(6, 6, seed);
        return EnginePlan::matVec(a, randomIntVec(6, 1),
                                  randomIntVec(6, 2), 3);
    };

    EnginePlan p1 = planFor(1), p2 = planFor(2), p3 = planFor(3);
    cache.prepare(*engine, p1);
    cache.prepare(*engine, p2);
    cache.prepare(*engine, p1); // p1 now most recent
    cache.prepare(*engine, p3); // evicts p2 (least recent)
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);

    EXPECT_TRUE(cache.prepare(*engine, p1).hit);
    EXPECT_FALSE(cache.prepare(*engine, p2).hit); // was evicted
}

TEST(PlanCache, FingerprintCollisionsResolveToDistinctPlans)
{
    // Degenerate hash: every matrix collides. The cache must still
    // serve each distinct matrix its own plan via exact comparison.
    auto engine = makeEngine("linear");
    PlanCache cache(8, [](const Dense<Scalar> &) { return Digest{7}; });

    Dense<Scalar> a1 = randomIntDense(6, 6, 31);
    Dense<Scalar> a2 = randomIntDense(6, 6, 32);
    Vec<Scalar> x = randomIntVec(6, 33), b = randomIntVec(6, 34);
    EnginePlan p1 = EnginePlan::matVec(a1, x, b, 3);
    EnginePlan p2 = EnginePlan::matVec(a2, x, b, 3);

    PlanCache::Prepared c1 = cache.prepare(*engine, p1);
    PlanCache::Prepared c2 = cache.prepare(*engine, p2);
    EXPECT_FALSE(c2.hit);
    EXPECT_NE(c1.plan.get(), c2.plan.get());
    EXPECT_GE(cache.stats().collisions, 1u);

    // And the colliding entries still hit individually — with
    // correct results through the engine.
    EXPECT_TRUE(cache.prepare(*engine, p1).hit);
    EXPECT_TRUE(cache.prepare(*engine, p2).hit);
    EngineRunResult r1 = engine->runPrepared(
        *cache.prepare(*engine, p1).plan, EngineInputs::matVec(x, b));
    EngineRunResult r2 = engine->runPrepared(
        *cache.prepare(*engine, p2).plan, EngineInputs::matVec(x, b));
    EXPECT_EQ(maxAbsDiff(r1.y, matVec(a1, x, b)), 0.0);
    EXPECT_EQ(maxAbsDiff(r2.y, matVec(a2, x, b)), 0.0);
}

TEST(PlanCache, ZeroCapacityDisablesCachingButStillServes)
{
    auto engine = makeEngine("linear");
    PlanCache cache(0);

    Dense<Scalar> a = randomIntDense(6, 6, 151);
    Vec<Scalar> x = randomIntVec(6, 152), b = randomIntVec(6, 153);
    EnginePlan plan = EnginePlan::matVec(a, x, b, 3);

    PlanCache::Prepared first = cache.prepare(*engine, plan);
    PlanCache::Prepared second = cache.prepare(*engine, plan);
    EXPECT_FALSE(first.hit);
    EXPECT_FALSE(second.hit);
    EXPECT_NE(first.plan.get(), second.plan.get()); // both built
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().evictions, 0u);

    // The pass-through plans still serve correct results.
    EngineRunResult r = engine->runPrepared(
        *second.plan, EngineInputs::matVec(x, b));
    EXPECT_EQ(maxAbsDiff(r.y, matVec(a, x, b)), 0.0);
}

TEST(PlanCache, SingleEntryEvictionChurn)
{
    auto engine = makeEngine("linear");
    PlanCache cache(1);
    auto planFor = [](std::uint64_t seed) {
        Dense<Scalar> a = randomIntDense(6, 6, seed);
        return EnginePlan::matVec(a, randomIntVec(6, 1),
                                  randomIntVec(6, 2), 3);
    };
    EnginePlan p1 = planFor(161), p2 = planFor(162);

    // Alternating matrices with capacity 1: every access evicts the
    // other entry and misses.
    for (int round = 0; round < 3; ++round) {
        EXPECT_FALSE(cache.prepare(*engine, p1).hit) << round;
        EXPECT_FALSE(cache.prepare(*engine, p2).hit) << round;
        EXPECT_EQ(cache.size(), 1u);
    }
    PlanCacheStats churn = cache.stats();
    EXPECT_EQ(churn.hits, 0u);
    EXPECT_EQ(churn.misses, 6u);
    EXPECT_EQ(churn.evictions, 5u); // every insert after the first

    // Back-to-back repeats of the resident matrix still hit.
    EXPECT_TRUE(cache.prepare(*engine, p2).hit);
    EXPECT_TRUE(cache.prepare(*engine, p2).hit);
}

TEST(PlanCache, MatMulKeysIncludeBothOperands)
{
    auto engine = makeEngine("hex");
    PlanCache cache(8);
    Dense<Scalar> a = randomIntDense(6, 6, 41);
    Dense<Scalar> b1 = randomIntDense(6, 4, 42);
    Dense<Scalar> b2 = randomIntDense(6, 4, 43);
    Dense<Scalar> e(6, 4);

    EXPECT_FALSE(
        cache.prepare(*engine, EnginePlan::matMul(a, b1, e, 2)).hit);
    EXPECT_FALSE(
        cache.prepare(*engine, EnginePlan::matMul(a, b2, e, 2)).hit);
    EXPECT_TRUE(
        cache.prepare(*engine, EnginePlan::matMul(a, b1, e, 2)).hit);
}

TEST(PlanCache, NonFiniteMatrixHits)
{
    // The wire accepts non-finite values. A matrix holding NaN or ±Inf
    // must find its own plan: the digest hashes its bytes, so the
    // confirming compare must be byte-wise too (NaN != NaN by value).
    auto engine = makeEngine("linear");
    for (Scalar bad : {std::numeric_limits<Scalar>::quiet_NaN(),
                       std::numeric_limits<Scalar>::infinity(),
                       -std::numeric_limits<Scalar>::infinity()}) {
        SCOPED_TRACE(testing::Message() << "value " << bad);
        PlanCache cache(8);
        Dense<Scalar> a = randomIntDense(8, 8, 61);
        a(3, 5) = bad;
        EnginePlan plan = EnginePlan::matVec(a, randomIntVec(8, 62),
                                             randomIntVec(8, 63), 4);
        PlanCache::Prepared first = cache.prepare(*engine, plan);
        EXPECT_FALSE(first.hit);
        for (int rep = 0; rep < 2; ++rep) {
            PlanCache::Prepared again = cache.prepare(*engine, plan);
            EXPECT_TRUE(again.hit);
            EXPECT_EQ(again.plan.get(), first.plan.get());
        }
        EXPECT_EQ(cache.size(), 1u);
        EXPECT_EQ(cache.stats().collisions, 0u);
        EXPECT_EQ(cache.stats().hits, 2u);
    }
}

TEST(PlanCache, SignedZeroIsADistinctBinding)
{
    // +0.0 and −0.0 are equal values but different bytes, so they
    // hash apart; under a forced collision the exact compare must
    // still keep them apart rather than serve one the other's plan.
    auto engine = makeEngine("linear");
    PlanCache cache(8, [](const Dense<Scalar> &) { return Digest{7}; });
    Dense<Scalar> pos = randomIntDense(6, 6, 71);
    pos(2, 2) = 0.0;
    Dense<Scalar> neg = pos;
    neg(2, 2) = -0.0;
    ASSERT_TRUE(pos == neg); // value-equal
    Vec<Scalar> x = randomIntVec(6, 72), b = randomIntVec(6, 73);

    PlanCache::Prepared p1 =
        cache.prepare(*engine, EnginePlan::matVec(pos, x, b, 3));
    PlanCache::Prepared p2 =
        cache.prepare(*engine, EnginePlan::matVec(neg, x, b, 3));
    EXPECT_FALSE(p2.hit);
    EXPECT_NE(p1.plan.get(), p2.plan.get());
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_GE(cache.stats().collisions, 1u);
    EXPECT_TRUE(
        cache.prepare(*engine, EnginePlan::matVec(neg, x, b, 3)).hit);
    EXPECT_TRUE(
        cache.prepare(*engine, EnginePlan::matVec(pos, x, b, 3)).hit);
}

/** @p m with the lowest byte of element (r, c) flipped. */
Dense<Scalar>
withOneByteFlipped(Dense<Scalar> m, Index r, Index c)
{
    unsigned char bytes[sizeof(Scalar)];
    std::memcpy(bytes, &m(r, c), sizeof(Scalar));
    bytes[0] ^= 1;
    std::memcpy(&m(r, c), bytes, sizeof(Scalar));
    return m;
}

TEST(PlanCache, OneByteDifferenceMissesOnEveryEngine)
{
    // Under one forced digest the plan's own storage is the only
    // thing telling operands apart: a single flipped byte anywhere in
    // a bound operand must miss and build its own plan. n and m are
    // not multiples of w, so the last block row and column are
    // partial (and their padding must not be mistaken for data).
    const Index n = 10, m = 7, p = 6, w = 4;
    const Dense<Scalar> a = randomIntDense(n, m, 191);
    const Dense<Scalar> bm = randomIntDense(m, p, 192);
    const Dense<Scalar> l = randomUnitLowerTriangular(n, 193);
    const Vec<Scalar> x = randomIntVec(m, 194), b = randomIntVec(n, 195);
    for (const std::string &name : engineNames()) {
        SCOPED_TRACE("engine " + name);
        auto engine = makeEngine(name);
        const ProblemKind kind = engine->kind();
        // Every bound element the plan reads: all of A (and B), and
        // for TriSolve L on and below the diagonal.
        auto planOf = [&](const Dense<Scalar> &a_or_l,
                          const Dense<Scalar> &b_mat) {
            return kind == ProblemKind::MatVec
                ? EnginePlan::matVec(a_or_l, x, b, w)
                : kind == ProblemKind::MatMul
                ? EnginePlan::matMul(a_or_l, b_mat, w)
                : EnginePlan::triSolve(a_or_l, b, w);
        };
        const Dense<Scalar> &base = kind == ProblemKind::TriSolve ? l : a;
        auto expectMiss = [&](const EnginePlan &changed) {
            PlanCache cache(8, [](const Dense<Scalar> &) {
                return Digest{7};
            });
            PlanCache::Prepared first =
                cache.prepare(*engine, planOf(base, bm));
            PlanCache::Prepared other = cache.prepare(*engine, changed);
            EXPECT_FALSE(other.hit);
            EXPECT_NE(first.plan.get(), other.plan.get());
            EXPECT_TRUE(cache.prepare(*engine, planOf(base, bm)).hit);
        };
        for (Index r = 0; r < base.rows(); ++r) {
            for (Index c = 0; c < base.cols(); ++c) {
                if (kind == ProblemKind::TriSolve && c > r)
                    continue;
                SCOPED_TRACE(testing::Message() << "A(" << r << "," << c
                                                << ")");
                expectMiss(planOf(withOneByteFlipped(base, r, c), bm));
            }
        }
        if (kind != ProblemKind::MatMul)
            continue;
        for (Index r = 0; r < bm.rows(); ++r) {
            for (Index c = 0; c < bm.cols(); ++c) {
                SCOPED_TRACE(testing::Message() << "B(" << r << "," << c
                                                << ")");
                expectMiss(planOf(a, withOneByteFlipped(bm, r, c)));
            }
        }
    }
}

TEST(PlanCache, TriPlanIgnoresLRightOfItsDiagonalBlocks)
{
    // The tri plan stores the panels left of each diagonal block and
    // the diagonal blocks; L's entries right of them are neither
    // stored nor read. Under one digest, two L's differing only there
    // share one plan, and the shared plan gives each the same y.
    const Index n = 10, w = 4;
    auto engine = makeEngine("tri");
    PlanCache cache(8, [](const Dense<Scalar> &) { return Digest{7}; });
    Dense<Scalar> l1 = randomUnitLowerTriangular(n, 201);
    Dense<Scalar> l2 = l1;
    l2(1, 9) = 123.0; // block row 0, block column 2
    l2(5, 8) = -7.5;  // block row 1, block column 2
    Vec<Scalar> b = randomIntVec(n, 202);
    EnginePlan p1 = EnginePlan::triSolve(l1, b, w);
    EnginePlan p2 = EnginePlan::triSolve(l2, b, w);

    PlanCache::Prepared c1 = cache.prepare(*engine, p1);
    PlanCache::Prepared c2 = cache.prepare(*engine, p2);
    EXPECT_FALSE(c1.hit);
    EXPECT_TRUE(c2.hit);
    EXPECT_EQ(c1.plan.get(), c2.plan.get());
    EXPECT_EQ(cache.size(), 1u);

    for (ExecMode mode : {ExecMode::Simulate, ExecMode::Fast}) {
        SCOPED_TRACE(execModeName(mode));
        p1.mode = mode;
        p2.mode = mode;
        EngineRunResult own = engine->run(p2);
        EngineInputs in = EngineInputs::of(p2);
        EngineRunResult shared = engine->runPrepared(*c2.plan, in);
        ASSERT_EQ(own.y.size(), shared.y.size());
        EXPECT_EQ(std::memcmp(own.y.raw(), shared.y.raw(),
                              own.y.data().size() * sizeof(Scalar)),
                  0);
        EngineRunResult first = engine->run(p1);
        EXPECT_EQ(std::memcmp(first.y.raw(), own.y.raw(),
                              own.y.data().size() * sizeof(Scalar)),
                  0);
    }
}

TEST(PlanCache, RetainedBytesStayBounded)
{
    // Heap retained by one cache entry: the prepared plan, which is
    // also the ground truth a hit is verified against, so the entry
    // holds no operand copy. Measured: linear 256² w=64 514–515 KiB
    // (the 512 KiB band), hex 24² w=8 89–90 KiB, tri 256² w=16
    // 280–284 KiB, mesh 128² w=16 256 KiB (the padded A and B). Bounds
    // are the largest of those plus a 10% margin; entries that also
    // copied the bound operands held 1027, 99, 796 and 512 KiB.
    if (heapBytesInUse() < 0)
        GTEST_SKIP() << "no mallinfo2 (non-glibc or sanitizer build)";
    struct Case
    {
        const char *engine;
        Index n, w;
        double boundKib;
    };
    for (const Case &c : {Case{"linear", 256, 64, 566.0},
                          Case{"hex", 24, 8, 99.0},
                          Case{"tri", 256, 16, 313.0},
                          Case{"mesh", 128, 16, 282.0}}) {
        SCOPED_TRACE(c.engine);
        auto engine = makeEngine(c.engine);
        auto planFor = [&](std::uint64_t seed) {
            switch (engine->kind()) {
              case ProblemKind::MatMul:
                return EnginePlan::matMul(
                    randomIntDense(c.n, c.n, seed),
                    randomIntDense(c.n, c.n, seed + 1), c.w);
              case ProblemKind::TriSolve:
                return EnginePlan::triSolve(
                    randomUnitLowerTriangular(c.n, seed),
                    randomIntVec(c.n, seed + 1), c.w);
              default:
                return EnginePlan::matVec(
                    randomIntDense(c.n, c.n, seed),
                    randomIntVec(c.n, seed + 1),
                    randomIntVec(c.n, seed + 2), c.w);
            }
        };
        PlanCache cache(4);
        // Warm up any lazily allocated state on the prepare path.
        cache.prepare(*engine, planFor(81));
        EnginePlan plan = planFor(91);
        const std::int64_t before = heapBytesInUse();
        EXPECT_FALSE(cache.prepare(*engine, plan).hit);
        const double kib =
            static_cast<double>(heapBytesInUse() - before) / 1024.0;
        RecordProperty(std::string(c.engine) + "_entry_kib",
                       std::to_string(kib));
        EXPECT_LE(kib, c.boundKib);
        EXPECT_EQ(cache.size(), 2u);
    }
}

//---------------------------------------------------------------------
// Prepared-plan protocol on the engines themselves.
//---------------------------------------------------------------------

TEST(PreparedPlan, EveryEngineMatchesItsOwnRunPath)
{
    const Index n = 9, m = 7, p = 5, w = 3;
    Dense<Scalar> a = randomIntDense(n, m, 51);
    Vec<Scalar> x = randomIntVec(m, 52);
    Vec<Scalar> b = randomIntVec(n, 53);
    Dense<Scalar> bm = randomIntDense(m, p, 54);
    Dense<Scalar> e = randomIntDense(n, p, 55);

    EnginePlan mv = EnginePlan::matVec(a, x, b, w);
    EnginePlan mm = EnginePlan::matMul(a, bm, e, w);
    EnginePlan ts = EnginePlan::triSolve(
        randomUnitLowerTriangular(n, 56), randomIntVec(n, 57), w);

    for (const std::string &name : engineNames()) {
        SCOPED_TRACE("engine " + name);
        auto engine = makeEngine(name);
        ASSERT_NE(engine, nullptr);
        const EnginePlan &plan =
            engine->kind() == ProblemKind::MatVec   ? mv
            : engine->kind() == ProblemKind::MatMul ? mm
                                                    : ts;
        auto prepared = engine->prepare(plan);
        ASSERT_NE(prepared, nullptr);
        EXPECT_EQ(prepared->kind(), engine->kind());
        EXPECT_EQ(prepared->w(), w);
        EXPECT_EQ(prepared->rows(), n);

        EngineRunResult via_run = engine->run(plan);
        EngineRunResult via_prepared =
            engine->runPrepared(*prepared, EngineInputs::of(plan));
        if (engine->kind() == ProblemKind::MatMul) {
            EXPECT_TRUE(via_prepared.c == via_run.c);
        } else {
            EXPECT_EQ(maxAbsDiff(via_prepared.y, via_run.y), 0.0);
        }
        EXPECT_EQ(via_prepared.stats.cycles, via_run.stats.cycles);
    }
}

//---------------------------------------------------------------------
// Batched runMany.
//---------------------------------------------------------------------

TEST(RunMany, StreamsManyInputsThroughOnePlan)
{
    const Index n = 8, m = 6, w = 3;
    Dense<Scalar> a = randomIntDense(n, m, 61);
    std::vector<EngineInputs> inputs;
    for (int i = 0; i < 7; ++i)
        inputs.push_back(EngineInputs::matVec(
            randomIntVec(m, 100 + i), randomIntVec(n, 200 + i)));

    auto engine = makeEngine("linear");
    BatchOptions opts;
    opts.crossCheck = true;
    BatchResult batch = runManyMatVec(*engine, a, w, inputs, opts);

    ASSERT_EQ(batch.results.size(), inputs.size());
    EXPECT_EQ(batch.crossCheckFailures, 0u);
    EXPECT_EQ(batch.planBuilds, 1u);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        Vec<Scalar> gold = matVec(a, inputs[i].x, inputs[i].b);
        EXPECT_EQ(maxAbsDiff(batch.results[i].y, gold), 0.0)
            << "input " << i;
    }
}

TEST(RunMany, SharedCacheAmortizesAcrossCalls)
{
    const Index n = 6, m = 6, w = 3;
    Dense<Scalar> a = randomIntDense(n, m, 71);
    std::vector<EngineInputs> inputs = {EngineInputs::matVec(
        randomIntVec(m, 72), randomIntVec(n, 73))};

    auto engine = makeEngine("linear");
    PlanCache cache(4);
    BatchOptions opts;
    opts.cache = &cache;

    BatchResult first = runManyMatVec(*engine, a, w, inputs, opts);
    BatchResult second = runManyMatVec(*engine, a, w, inputs, opts);
    EXPECT_EQ(first.planBuilds, 1u);
    EXPECT_EQ(first.cacheHits, 0u);
    EXPECT_EQ(second.planBuilds, 0u);
    EXPECT_EQ(second.cacheHits, 1u);
}

TEST(RunMany, MatMulPairsReuseRepeatedB)
{
    const Index n = 6, p = 6, m = 4, w = 2;
    Dense<Scalar> a = randomIntDense(n, p, 81);
    Dense<Scalar> b1 = randomIntDense(p, m, 82);
    Dense<Scalar> b2 = randomIntDense(p, m, 83);

    std::vector<MatMulItem> items;
    items.push_back({b1, randomIntDense(n, m, 84)});
    items.push_back({b2, randomIntDense(n, m, 85)});
    items.push_back({b1, randomIntDense(n, m, 86)}); // repeat of b1
    items.push_back({b1, randomIntDense(n, m, 87)}); // repeat of b1

    auto engine = makeEngine("hex");
    BatchOptions opts;
    opts.crossCheck = true;
    BatchResult batch = runManyMatMul(*engine, a, w, items, opts);

    ASSERT_EQ(batch.results.size(), items.size());
    EXPECT_EQ(batch.crossCheckFailures, 0u);
    EXPECT_EQ(batch.planBuilds, 2u); // b1 and b2
    EXPECT_EQ(batch.cacheHits, 2u);  // the two b1 repeats
    for (std::size_t i = 0; i < items.size(); ++i) {
        Dense<Scalar> gold = matMulAdd(a, items[i].bmat, items[i].e);
        EXPECT_TRUE(batch.results[i].c == gold) << "item " << i;
    }
}

TEST(RunMany, RunManyPreparedStreamsThroughACacheFetchedPlan)
{
    // The documented runManyPrepared() shape: fetch the prepared
    // plan from a cache once, stream a whole input group through it.
    const Index n = 7, m = 6, w = 3;
    Dense<Scalar> a = randomIntDense(n, m, 171);
    auto engine = makeEngine("linear");
    PlanCache cache(4);
    EnginePlan plan = EnginePlan::matVec(a, Vec<Scalar>(m),
                                         Vec<Scalar>(n), w);
    PlanCache::Prepared cached = cache.prepare(*engine, plan);

    std::vector<EngineInputs> inputs;
    for (int i = 0; i < 5; ++i)
        inputs.push_back(EngineInputs::matVec(
            randomIntVec(m, 180 + i), randomIntVec(n, 190 + i)));
    std::vector<EngineRunResult> results =
        engine->runManyPrepared(*cached.plan, inputs);

    ASSERT_EQ(results.size(), inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        Vec<Scalar> gold = matVec(a, inputs[i].x, inputs[i].b);
        EXPECT_EQ(maxAbsDiff(results[i].y, gold), 0.0) << i;
    }
    // One build, no further cache traffic.
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(RunMany, EmptyBatchIsANoop)
{
    auto engine = makeEngine("linear");
    Dense<Scalar> a = randomIntDense(4, 4, 91);
    BatchResult batch = runManyMatVec(*engine, a, 2, {});
    EXPECT_TRUE(batch.results.empty());
    EXPECT_EQ(batch.planBuilds, 0u);
}

//---------------------------------------------------------------------
// Server.
//---------------------------------------------------------------------

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

TEST(Server, ServesRequestsAndReportsCacheHits)
{
    Server::Options opts;
    opts.threads = 2;
    Server server(opts);

    Dense<Scalar> a = randomIntDense(8, 8, 101);
    ServeRequest r1 = matVecRequest("linear", a, 102, 4);
    ServeRequest r2 = matVecRequest("linear", a, 104, 4);

    ServeResponse resp1 = server.submit(r1).get();
    ServeResponse resp2 = server.submit(r2).get();
    ASSERT_TRUE(resp1.ok) << resp1.error;
    ASSERT_TRUE(resp2.ok) << resp2.error;
    EXPECT_EQ(maxAbsDiff(resp1.result.y,
                         matVec(r1.plan.a, r1.plan.x, r1.plan.b)),
              0.0);
    EXPECT_EQ(maxAbsDiff(resp2.result.y,
                         matVec(r2.plan.a, r2.plan.x, r2.plan.b)),
              0.0);
    // Same matrix: the second request must reuse the cached plan.
    EXPECT_TRUE(resp1.cacheHit || resp2.cacheHit);

    ServerStats stats = server.stats();
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_EQ(stats.failures, 0u);
    EXPECT_EQ(stats.planCache.hits, 1u);
    ASSERT_EQ(stats.groups.size(), 1u);
    EXPECT_EQ(stats.groups[0].requests, 2u);
    EXPECT_EQ(stats.groups[0].cacheHits, 1u);
    EXPECT_GT(stats.groups[0].simCycles, 0);
    EXPECT_GE(stats.latency.p99, stats.latency.p50);
}

TEST(Server, MalformedRequestsResolveToErrors)
{
    Server::Options opts;
    opts.threads = 1;
    Server server(opts);

    ServeRequest unknown;
    unknown.engine = "no-such-engine";
    unknown.plan = EnginePlan::matVec(randomIntDense(4, 4, 111),
                                      randomIntVec(4, 112),
                                      randomIntVec(4, 113), 2);
    ServeResponse r = server.submit(unknown).get();
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("unknown engine"), std::string::npos);

    // Kind mismatch: a matvec plan sent to the hex engine.
    ServeRequest wrong_kind = unknown;
    wrong_kind.engine = "hex";
    ServeResponse r2 = server.submit(wrong_kind).get();
    EXPECT_FALSE(r2.ok);
    EXPECT_FALSE(r2.error.empty());

    // Shape mismatch, hand-built to bypass the asserting factory.
    ServeRequest bad_shape;
    bad_shape.engine = "linear";
    bad_shape.plan.kind = ProblemKind::MatVec;
    bad_shape.plan.a = randomIntDense(4, 4, 114);
    bad_shape.plan.x = randomIntVec(3, 115); // wrong length
    bad_shape.plan.b = randomIntVec(4, 116);
    bad_shape.plan.w = 2;
    ServeResponse r3 = server.submit(bad_shape).get();
    EXPECT_FALSE(r3.ok);
    EXPECT_FALSE(r3.error.empty());

    // Singular triangular system, hand-built likewise: the shard
    // reports instead of tripping the engine's divide assert.
    ServeRequest singular;
    singular.engine = "tri";
    singular.plan.kind = ProblemKind::TriSolve;
    singular.plan.a = randomUnitLowerTriangular(4, 117);
    singular.plan.a(2, 2) = 0;
    singular.plan.b = randomIntVec(4, 118);
    singular.plan.w = 2;
    ServeResponse r4 = server.submit(singular).get();
    EXPECT_FALSE(r4.ok);
    EXPECT_NE(r4.error.find("zero diagonal"), std::string::npos);

    // Non-square L.
    ServeRequest rect = singular;
    rect.plan.a = randomIntDense(4, 3, 119);
    ServeResponse r5 = server.submit(rect).get();
    EXPECT_FALSE(r5.ok);
    EXPECT_NE(r5.error.find("square"), std::string::npos);

    EXPECT_EQ(server.stats().failures, 5u);
    EXPECT_EQ(server.stats().requests, 0u);
}

TEST(RunMany, TriSolveStreamsRightHandSidesThroughOnePlan)
{
    const Index n = 10, w = 3;
    Dense<Scalar> l = randomUnitLowerTriangular(n, 131);
    std::vector<EngineInputs> inputs;
    for (int i = 0; i < 6; ++i)
        inputs.push_back(
            EngineInputs::triSolve(randomIntVec(n, 140 + i)));

    BatchOptions opts;
    opts.crossCheck = true;
    BatchResult batch = runManyTriSolve(*makeEngine("tri"), l, w,
                                        inputs, opts);
    ASSERT_EQ(batch.results.size(), inputs.size());
    EXPECT_EQ(batch.crossCheckFailures, 0u);
    EXPECT_EQ(batch.planBuilds, 1u);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        Vec<Scalar> gold = forwardSolve(l, inputs[i].b);
        EXPECT_EQ(maxAbsDiff(batch.results[i].y, gold), 0.0) << i;
    }
}

TEST(Server, CrossCheckModeValidatesEveryTopology)
{
    Server::Options opts;
    opts.threads = 2;
    opts.crossCheckAll = true;
    Server server(opts);

    const Index n = 6, m = 6, p = 4, w = 2;
    Dense<Scalar> a = randomIntDense(n, m, 121);
    Dense<Scalar> bm = randomIntDense(m, p, 122);
    Dense<Scalar> e = randomIntDense(n, p, 123);
    Dense<Scalar> lt = randomUnitLowerTriangular(n, 126);

    std::vector<std::future<ServeResponse>> futures;
    for (const std::string &name : engineNames()) {
        auto engine = makeEngine(name);
        ServeRequest req;
        req.engine = name;
        req.plan = engine->kind() == ProblemKind::MatVec
            ? EnginePlan::matVec(a, randomIntVec(m, 124),
                                 randomIntVec(n, 125), w)
            : engine->kind() == ProblemKind::MatMul
                ? EnginePlan::matMul(a, bm, e, w)
                : EnginePlan::triSolve(lt, randomIntVec(n, 127), w);
        futures.push_back(server.submit(std::move(req)));
    }
    for (auto &f : futures) {
        ServeResponse resp = f.get();
        ASSERT_TRUE(resp.ok) << resp.error;
        EXPECT_TRUE(resp.crossCheckOk);
    }
    EXPECT_EQ(server.stats().crossCheckFailures, 0u);
    EXPECT_GE(server.stats().requests, 8u);
}

TEST(Server, DestructionDrainsQueuedRequests)
{
    std::vector<std::future<ServeResponse>> futures;
    Dense<Scalar> a = randomIntDense(6, 6, 131);
    {
        Server::Options opts;
        opts.threads = 1;
        Server server(opts);
        for (int i = 0; i < 8; ++i)
            futures.push_back(server.submit(
                matVecRequest("linear", a, 200 + 2 * i, 3)));
        // Server goes out of scope with requests likely queued.
    }
    for (auto &f : futures) {
        ServeResponse resp = f.get();
        EXPECT_TRUE(resp.ok) << resp.error;
    }
}

} // namespace
} // namespace sap
