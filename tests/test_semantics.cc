/**
 * @file
 * Semantics execution-path tests: the fast path (src/semantics/)
 * must be BIT-identical to the cycle simulators for every registered
 * engine across the standard sweep grids, validate mode must accept
 * every such pair, and the recoverable-error seams (Fast +
 * recordTrace, malformed plans, singular triangular systems) must
 * throw EngineError / report instead of aborting.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "analysis/sweep.hh"
#include "base/error.hh"
#include "base/math_util.hh"
#include "engine/registry.hh"
#include "mat/generate.hh"
#include "semantics/mesh_kernel.hh"
#include "serve/batch.hh"
#include "serve/shard.hh"
#include "sim/mesh_array.hh"
#include "solve/trisolve_plan.hh"

namespace sap {
namespace {

/** One sweep point's sim-vs-fast comparison, field by field. */
struct DiffRow
{
    std::string label;
    bool yEqual = true;
    bool cEqual = true;
    bool statsEqual = true;
};

/** Exact comparison of everything both paths are required to agree
 *  on (the trace and the feedback audit pointer are exempt: Fast
 *  never produces them). */
DiffRow
diff(const std::string &label, const EngineRunResult &sim,
     const EngineRunResult &fast)
{
    DiffRow row;
    row.label = label;
    row.yEqual = sim.y.size() == fast.y.size() && sim.y == fast.y;
    row.cEqual = sim.c.rows() == fast.c.rows() &&
                 sim.c.cols() == fast.c.cols() && sim.c == fast.c;
    row.statsEqual =
        sim.stats.cycles == fast.stats.cycles &&
        sim.stats.peCount == fast.stats.peCount &&
        sim.stats.usefulMacs == fast.stats.usefulMacs &&
        sim.totalCycles == fast.totalCycles &&
        sim.feedbackDelay == fast.feedbackDelay &&
        sim.feedbackRegisters == fast.feedbackRegisters &&
        sim.conflictFree == fast.conflictFree &&
        sim.topologyRespected == fast.topologyRespected;
    return row;
}

void
expectAllEqual(const std::vector<DiffRow> &rows)
{
    for (const DiffRow &row : rows) {
        EXPECT_TRUE(row.yEqual) << row.label << ": y diverged";
        EXPECT_TRUE(row.cEqual) << row.label << ": C diverged";
        EXPECT_TRUE(row.statsEqual) << row.label
                                    << ": stats diverged";
    }
}

/** Run @p plan in both modes on @p engine and compare. */
DiffRow
comparePoint(const SystolicEngine &engine, EnginePlan plan,
             const std::string &label)
{
    plan.mode = ExecMode::Simulate;
    EngineRunResult sim = engine.run(plan);
    plan.mode = ExecMode::Fast;
    EngineRunResult fast = engine.run(plan);
    return diff(label, sim, fast);
}

/**
 * Operand kinds of the bit-identity sweeps. Integer operands are
 * exact under any summation order, so they cannot tell a reordered
 * or fused kernel from a faithful one; real-valued operands round
 * differently under every reassociation, so only those rows catch
 * one.
 */
enum class Operands
{
    Int,
    Real,
};

const char *
operandsName(Operands ops)
{
    return ops == Operands::Int ? "int" : "real";
}

Dense<Scalar>
operandDense(Operands ops, Index rows, Index cols, std::uint64_t seed)
{
    return ops == Operands::Int ? randomIntDense(rows, cols, seed)
                                : randomRealDense(rows, cols, seed);
}

Vec<Scalar>
operandVec(Operands ops, Index n, std::uint64_t seed)
{
    return ops == Operands::Int ? randomIntVec(n, seed)
                                : randomRealVec(n, seed);
}

//---------------------------------------------------------------------
// Bit-identity property sweep (the tentpole's acceptance criterion)
//---------------------------------------------------------------------

TEST(SemanticsBitIdentity, MatVecEnginesMatchSimulatorOnStandardSweep)
{
    // The standard grid plus a point whose sizes are not multiples
    // of a wider w, so a lane block spans padded rows.
    std::vector<MatVecConfig> sweep = standardMatVecSweep();
    sweep.push_back({8, 37, 29});
    for (const std::string &name : engineNames(ProblemKind::MatVec)) {
        std::unique_ptr<SystolicEngine> engine = makeEngine(name);
        ASSERT_TRUE(engine);
        for (Operands ops : {Operands::Int, Operands::Real}) {
            std::vector<DiffRow> rows = runConfigSweep(
                sweep, defaultSweepThreads(),
                [&](const MatVecConfig &cfg) {
                    if (name == "overlapped" && ceilDiv(cfg.n, cfg.w) < 2)
                        return DiffRow{}; // split needs two block rows
                    std::uint64_t seed = 17 + static_cast<std::uint64_t>(
                                                  cfg.n + cfg.m + cfg.w);
                    EnginePlan plan = EnginePlan::matVec(
                        operandDense(ops, cfg.n, cfg.m, seed),
                        operandVec(ops, cfg.m, seed + 1),
                        operandVec(ops, cfg.n, seed + 2), cfg.w);
                    return comparePoint(
                        *engine, std::move(plan),
                        name + " " + operandsName(ops) + " " +
                            std::to_string(cfg.n) + "x" +
                            std::to_string(cfg.m) + " w=" +
                            std::to_string(cfg.w));
                });
            expectAllEqual(rows);
        }
    }
}

TEST(SemanticsBitIdentity, MatMulEnginesMatchSimulatorOnStandardSweep)
{
    std::vector<MatMulConfig> sweep = standardMatMulSweep();
    sweep.push_back({8, 19, 29, 23});
    for (const std::string &name : engineNames(ProblemKind::MatMul)) {
        std::unique_ptr<SystolicEngine> engine = makeEngine(name);
        ASSERT_TRUE(engine);
        for (Operands ops : {Operands::Int, Operands::Real}) {
            std::vector<DiffRow> rows = runConfigSweep(
                sweep, defaultSweepThreads(),
                [&](const MatMulConfig &cfg) {
                    std::uint64_t seed =
                        29 + static_cast<std::uint64_t>(cfg.n + cfg.p +
                                                        cfg.m + cfg.w);
                    EnginePlan plan = EnginePlan::matMul(
                        operandDense(ops, cfg.n, cfg.p, seed),
                        operandDense(ops, cfg.p, cfg.m, seed + 1),
                        operandDense(ops, cfg.n, cfg.m, seed + 2), cfg.w);
                    return comparePoint(
                        *engine, std::move(plan),
                        name + " " + operandsName(ops) + " " +
                            std::to_string(cfg.n) + "x" +
                            std::to_string(cfg.p) + "x" +
                            std::to_string(cfg.m) + " w=" +
                            std::to_string(cfg.w));
                });
            expectAllEqual(rows);
        }
    }
}

TEST(SemanticsBitIdentity, TriSolveEngineMatchesSimulatorOnStandardSweep)
{
    std::vector<TriSolveConfig> sweep = standardTriSolveSweep();
    sweep.push_back({8, 29});
    for (const std::string &name :
         engineNames(ProblemKind::TriSolve)) {
        std::unique_ptr<SystolicEngine> engine = makeEngine(name);
        ASSERT_TRUE(engine);
        for (Operands ops : {Operands::Int, Operands::Real}) {
            std::vector<DiffRow> rows = runConfigSweep(
                sweep, defaultSweepThreads(),
                [&](const TriSolveConfig &cfg) {
                    // Real-valued (non-unit) diagonals: the divide in
                    // the substitution must itself be bit-identical.
                    const std::uint64_t seed =
                        43 + static_cast<std::uint64_t>(cfg.n + cfg.w);
                    EnginePlan plan = EnginePlan::triSolve(
                        randomDiagDominant(cfg.n, seed),
                        operandVec(ops, cfg.n, seed + 1), cfg.w);
                    return comparePoint(*engine, std::move(plan),
                                        name + " " + operandsName(ops) +
                                            " n=" +
                                            std::to_string(cfg.n) +
                                            " w=" +
                                            std::to_string(cfg.w));
                });
            expectAllEqual(rows);
        }
    }
}

//---------------------------------------------------------------------
// Mesh kernel instantiations, each against the simulator
//---------------------------------------------------------------------

/**
 * Run @p kernel on the real-valued matmul sweep plus shapes whose
 * rows and columns leave tile tails, and require C bit-equal to the
 * cycle simulation. Row 0 of A and of the preload E are −0.0 and
 * column 0 of B is non-negative, so C(0, 0) stays −0 through the
 * real steps; where p is not a multiple of w only the padded
 * (+0)·(+0) steps turn it into +0, as the array does.
 */
void
expectMeshKernelMatchesSimulator(MeshKernelFn kernel)
{
    std::vector<MatMulConfig> shapes = standardMatMulSweep();
    shapes.push_back({8, 19, 29, 23});
    shapes.push_back({4, 37, 5, 41});
    shapes.push_back({16, 128, 128, 128});
    for (const MatMulConfig &cfg : shapes) {
        const std::uint64_t seed =
            61 + static_cast<std::uint64_t>(cfg.n + cfg.p + cfg.m);
        Dense<Scalar> a = randomRealDense(cfg.n, cfg.p, seed);
        Dense<Scalar> b = randomRealDense(cfg.p, cfg.m, seed + 1);
        Dense<Scalar> e = randomRealDense(cfg.n, cfg.m, seed + 2);
        for (Index t = 0; t < cfg.p; ++t) {
            a(0, t) = -0.0;
            b(t, 0) = std::fabs(b(t, 0));
        }
        for (Index j = 0; j < cfg.m; ++j)
            e(0, j) = -0.0;

        const Dense<Scalar> sim = MeshMatMulPlan(a, b, cfg.w).run(e).c;

        const Index ptot = ceilDiv(cfg.p, cfg.w) * cfg.w;
        const Index ldb = ceilDiv(cfg.m, cfg.w) * cfg.w;
        const Dense<Scalar> a_padded =
            a.paddedTo(ceilDiv(cfg.n, cfg.w) * cfg.w, ptot);
        const Dense<Scalar> b_padded = b.paddedTo(ptot, ldb);
        Dense<Scalar> c = e;
        kernel(cfg.n, cfg.m, ptot, ldb, a_padded.raw(), b_padded.raw(),
               c.raw());

        const std::string label = std::to_string(cfg.n) + "x" +
                                  std::to_string(cfg.p) + "x" +
                                  std::to_string(cfg.m) +
                                  " w=" + std::to_string(cfg.w);
        ASSERT_EQ(sim.rows(), c.rows()) << label;
        ASSERT_EQ(sim.cols(), c.cols()) << label;
        EXPECT_EQ(std::memcmp(sim.raw(), c.raw(),
                              sizeof(Scalar) *
                                  static_cast<std::size_t>(cfg.n * cfg.m)),
                  0)
            << label << ": C not bit-equal to the simulator";
    }
}

TEST(SemanticsMeshKernel, PortableMatchesSimulatorBitForBit)
{
    expectMeshKernelMatchesSimulator(meshKernelPortable);
}

TEST(SemanticsMeshKernel, Avx2MatchesSimulatorBitForBit)
{
    MeshKernelFn avx2 = meshKernelAvx2();
    if (!avx2)
        GTEST_SKIP() << "no AVX2 instantiation on this build or CPU";
    expectMeshKernelMatchesSimulator(avx2);
}

//---------------------------------------------------------------------
// Validate mode
//---------------------------------------------------------------------

TEST(SemanticsValidateMode, AcceptsEveryEngineAndReturnsSimResult)
{
    // Validate runs both paths and throws on any field mismatch;
    // a clean pass over every registered engine is the end-to-end
    // proof the diff plumbing agrees with the sweeps above.
    for (const std::string &name : engineNames()) {
        std::unique_ptr<SystolicEngine> engine = makeEngine(name);
        ASSERT_TRUE(engine);
        EnginePlan plan;
        switch (engine->kind()) {
        case ProblemKind::MatVec:
            plan = EnginePlan::matVec(randomIntDense(7, 9, 81),
                                      randomIntVec(9, 82),
                                      randomIntVec(7, 83), 3);
            break;
        case ProblemKind::MatMul:
            plan = EnginePlan::matMul(randomIntDense(7, 5, 84),
                                      randomIntDense(5, 6, 85),
                                      randomIntDense(7, 6, 86), 3);
            break;
        case ProblemKind::TriSolve:
            plan = EnginePlan::triSolve(randomDiagDominant(7, 87),
                                        randomIntVec(7, 88), 3);
            break;
        }
        plan.mode = ExecMode::Validate;
        EngineRunResult validated;
        ASSERT_NO_THROW(validated = engine->run(plan)) << name;

        plan.mode = ExecMode::Simulate;
        expectAllEqual({diff(name, engine->run(plan), validated)});
    }
}

TEST(SemanticsValidateMode, FastModeWithRecordTraceThrows)
{
    std::unique_ptr<SystolicEngine> engine = makeEngine("linear");
    ASSERT_TRUE(engine);
    EnginePlan plan = EnginePlan::matVec(randomIntDense(4, 4, 91),
                                         randomIntVec(4, 92),
                                         randomIntVec(4, 93), 2);
    plan.recordTrace = true;
    plan.mode = ExecMode::Fast;
    EXPECT_THROW(engine->run(plan), EngineError);

    // Prepared path too: the mode rides on the per-request inputs.
    plan.mode = ExecMode::Simulate;
    std::shared_ptr<const PreparedPlan> prepared =
        engine->prepare(plan);
    EngineInputs in = EngineInputs::of(plan);
    in.recordTrace = true;
    in.mode = ExecMode::Fast;
    EXPECT_THROW(engine->runPrepared(*prepared, in), EngineError);

    // Validate mode still supports tracing (the sim half records).
    in.mode = ExecMode::Validate;
    EngineRunResult r;
    ASSERT_NO_THROW(r = engine->runPrepared(*prepared, in));
    EXPECT_FALSE(r.trace.events().empty());
}

//---------------------------------------------------------------------
// Recoverable validation (satellites 1 and 2)
//---------------------------------------------------------------------

TEST(PlanValidation, MalformedShapesThrowInsteadOfAborting)
{
    // check() reports, validate() throws: no SAP_ASSERT abort for
    // caller-input problems.
    EnginePlan plan;
    plan.kind = ProblemKind::MatVec;
    plan.w = 2;
    plan.a = randomIntDense(3, 4, 11);
    plan.x = randomIntVec(5, 12); // wrong length (4 expected)
    plan.b = randomIntVec(3, 13);
    EXPECT_FALSE(plan.check().empty());
    EXPECT_THROW(plan.validate(), EngineError);

    plan.x = randomIntVec(4, 12);
    EXPECT_TRUE(plan.check().empty());
    EXPECT_NO_THROW(plan.validate());

    plan.w = 0;
    EXPECT_FALSE(plan.check().empty());
    EXPECT_THROW(plan.validate(), EngineError);
}

TEST(PlanValidation, ZeroDiagonalTriSolveIsRecoverable)
{
    Dense<Scalar> l = randomUnitLowerTriangular(6, 21);
    l(3, 3) = 0;
    Vec<Scalar> b = randomIntVec(6, 22);

    // The plan factory, the plan's own check, and the direct
    // TriSolvePlan constructor all refuse recoverably.
    EXPECT_THROW(EnginePlan::triSolve(l, b, 2), EngineError);
    EXPECT_THROW(TriSolvePlan(l, 2), EngineError);

    EnginePlan plan;
    plan.kind = ProblemKind::TriSolve;
    plan.a = l;
    plan.b = b;
    plan.w = 2;
    EXPECT_NE(plan.check().find("zero diagonal"), std::string::npos);

    // And the serve path reports it as an error response (the shard
    // must survive, not die on an assert).
    Shard::Options opts;
    opts.threads = 1;
    Shard shard(opts);
    ServeRequest req;
    req.engine = "tri";
    req.plan = plan;
    ServeResponse resp = shard.submit(req).get();
    EXPECT_FALSE(resp.ok);
    EXPECT_NE(resp.error.find("zero diagonal"), std::string::npos);
}

//---------------------------------------------------------------------
// Mode through the batch and serve layers
//---------------------------------------------------------------------

TEST(SemanticsServe, BatchFastModeMatchesSimulate)
{
    std::unique_ptr<SystolicEngine> engine = makeEngine("linear");
    ASSERT_TRUE(engine);
    Dense<Scalar> a = randomIntDense(8, 6, 31);
    std::vector<EngineInputs> inputs;
    for (int i = 0; i < 5; ++i)
        inputs.push_back(EngineInputs::matVec(
            randomIntVec(6, 32 + static_cast<std::uint64_t>(i)),
            randomIntVec(8, 40 + static_cast<std::uint64_t>(i))));

    BatchOptions sim_opts;
    sim_opts.mode = ExecMode::Simulate;
    BatchResult sim = runManyMatVec(*engine, a, 3, inputs, sim_opts);

    BatchOptions fast_opts;
    fast_opts.mode = ExecMode::Fast;
    fast_opts.crossCheck = true;
    BatchResult fast = runManyMatVec(*engine, a, 3, inputs,
                                     fast_opts);
    EXPECT_EQ(fast.crossCheckFailures, 0u);

    ASSERT_EQ(sim.results.size(), fast.results.size());
    for (std::size_t i = 0; i < sim.results.size(); ++i)
        expectAllEqual({diff("batch input " + std::to_string(i),
                             sim.results[i], fast.results[i])});

    BatchOptions val_opts;
    val_opts.mode = ExecMode::Validate;
    EXPECT_NO_THROW(runManyMatVec(*engine, a, 3, inputs, val_opts));
}

TEST(SemanticsServe, ShardKeysStatsPerModeAndRejectsFastTrace)
{
    Shard::Options opts;
    opts.threads = 1;
    Shard shard(opts);

    ServeRequest req;
    req.engine = "linear";
    req.plan = EnginePlan::matVec(randomIntDense(6, 6, 51),
                                  randomIntVec(6, 52),
                                  randomIntVec(6, 53), 2);

    ServeResponse sim = shard.submit(req).get();
    ASSERT_TRUE(sim.ok) << sim.error;

    req.plan.mode = ExecMode::Fast;
    ServeResponse fast = shard.submit(req).get();
    ASSERT_TRUE(fast.ok) << fast.error;
    EXPECT_TRUE(fast.result.y == sim.result.y);
    // Same matrix: the fast request rides the cached plan.
    EXPECT_TRUE(fast.cacheHit);
    // Fast cycles come from the formulas and must equal measurement.
    EXPECT_EQ(fast.result.stats.cycles, sim.result.stats.cycles);

    req.plan.mode = ExecMode::Validate;
    ServeResponse val = shard.submit(req).get();
    ASSERT_TRUE(val.ok) << val.error;
    EXPECT_TRUE(val.result.y == sim.result.y);

    // Three groups: same engine and shape, one per execution mode.
    ServerStats stats = shard.stats();
    ASSERT_EQ(stats.groups.size(), 3u);
    EXPECT_EQ(stats.groups[0].key.mode, ExecMode::Simulate);
    EXPECT_EQ(stats.groups[1].key.mode, ExecMode::Fast);
    EXPECT_EQ(stats.groups[2].key.mode, ExecMode::Validate);
    for (const GroupStats &g : stats.groups)
        EXPECT_EQ(g.requests, 1u);
    EXPECT_NE(stats.groups[1].key.label().find("fast"),
              std::string::npos);

    // Fast + recordTrace is a recoverable request error.
    req.plan.mode = ExecMode::Fast;
    req.plan.recordTrace = true;
    ServeResponse bad = shard.submit(req).get();
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.error.find("recordTrace"), std::string::npos);
}

} // namespace
} // namespace sap
