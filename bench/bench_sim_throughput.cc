/**
 * @file
 * PERF: wall-clock throughput of the simulators themselves (not a
 * paper artifact — engineering data for users of the library):
 * simulated cycles per second of every registered engine, plus
 * scaling of the cycle-level simulators and the block-level oracle.
 *
 * All topologies run through the unified engine layer, so a newly
 * registered engine is benchmarked here with zero code changes.
 */

#include "bench/bench_common.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "base/heap.hh"
#include "base/math_util.hh"
#include "dbt/matmul_plan.hh"
#include "dbt/matvec_plan.hh"
#include "mat/generate.hh"
#include "semantics/mesh_kernel.hh"
#include "sim/mesh_array.hh"
#include "solve/trisolve_plan.hh"

namespace sap {
namespace {

/** Host cost of one engine on one plan (see hostCost()). */
struct HostCost
{
    double prepareUs = 0;
    double nsPerCycle = 0;
    /** Heap held by one prepared plan, KiB; −1 without mallinfo2. */
    double planKib = -1;
};

/**
 * Best of @p reps prepares and cycle-accurate runs of @p plan:
 * prepare time in µs, and Simulate time per simulated cycle
 * (stats.cycles) in ns — the same quantities the serving benchmark
 * reports as dbt.prepare_us and sim.host_ns_per_cycle — plus the
 * heap one prepared plan holds (what one plan cache entry costs: the
 * plan is also the ground truth a cache hit is verified against).
 */
HostCost
hostCost(const SystolicEngine &engine, const EnginePlan &plan, int reps)
{
    using Clock = std::chrono::steady_clock;
    auto micros = [](Clock::time_point t0) {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         t0)
            .count();
    };
    EngineInputs in = EngineInputs::of(plan);
    in.mode = ExecMode::Simulate;
    std::shared_ptr<const PreparedPlan> prepared;
    double prepare_us = 1e300, simulate_us = 1e300;
    Cycle cycles = 1;
    for (int r = 0; r < reps; ++r) {
        auto t0 = Clock::now();
        prepared = engine.prepare(plan);
        prepare_us = std::min(prepare_us, micros(t0));
        t0 = Clock::now();
        EngineRunResult res = engine.runPrepared(*prepared, in);
        simulate_us = std::min(simulate_us, micros(t0));
        cycles = res.stats.cycles;
    }
    prepared.reset();
    const std::int64_t before = heapBytesInUse();
    prepared = engine.prepare(plan);
    const std::int64_t after = heapBytesInUse();
    return {prepare_us, simulate_us * 1e3 / static_cast<double>(cycles),
            before < 0 ? -1.0 : static_cast<double>(after - before) / 1024};
}

void
print()
{
    printHeader("PERF", "simulator wall-clock throughput "
                        "(google-benchmark timings follow)");

    // One calibration row per engine so the raw numbers are on
    // stdout even without the timers; the same rows are emitted as
    // BENCH_sim_throughput.json for the cross-PR perf trajectory.
    const Index w = 4, s = 4 * w;
    EnginePlan mv = EnginePlan::matVec(randomIntDense(s, s, 1),
                                       randomIntVec(s, 2),
                                       randomIntVec(s, 3), w);
    EnginePlan mm = EnginePlan::matMul(randomIntDense(s, s, 1),
                                       randomIntDense(s, s, 2), w);
    EnginePlan ts = EnginePlan::triSolve(
        randomUnitLowerTriangular(s, 1), randomIntVec(s, 2), w);

    // Each row also carries the simulator's host cost at the shapes
    // of the serving benchmark's simulate_cold workload: 64² mat-vec
    // and trisolve, 24² mat-mul, w = 8, real-valued operands.
    const Index cost_w = 8, cost_vec = 64, cost_mm = 24;
    const int cost_reps = 25;
    EnginePlan mv_cost = EnginePlan::matVec(
        randomRealDense(cost_vec, cost_vec, 1),
        randomRealVec(cost_vec, 2), randomRealVec(cost_vec, 3), cost_w);
    EnginePlan mm_cost = EnginePlan::matMul(
        randomRealDense(cost_mm, cost_mm, 1),
        randomRealDense(cost_mm, cost_mm, 2),
        randomRealDense(cost_mm, cost_mm, 3), cost_w);
    EnginePlan ts_cost = EnginePlan::triSolve(
        randomUnitLowerTriangular(cost_vec, 1),
        randomRealVec(cost_vec, 2), cost_w);

    std::vector<BenchJsonEntry> json;
    for (const std::string &name : engineNames()) {
        auto engine = requireEngine(name);
        const ProblemKind kind = engine->kind();
        EngineRunResult r = engine->run(
            kind == ProblemKind::MatVec   ? mv
            : kind == ProblemKind::MatMul ? mm
                                          : ts);
        printEngineRow(name, r);

        const Index cost_s =
            kind == ProblemKind::MatMul ? cost_mm : cost_vec;
        HostCost cost = hostCost(*engine,
                                 kind == ProblemKind::MatVec   ? mv_cost
                                 : kind == ProblemKind::MatMul ? mm_cost
                                                               : ts_cost,
                                 cost_reps);
        std::printf("            host cost at s=%lld w=%lld: prepare "
                    "%.2f us, simulate %.1f ns/cycle (best of %d), "
                    "plan %.1f KiB\n",
                    (long long)cost_s, (long long)cost_w,
                    cost.prepareUs, cost.nsPerCycle, cost_reps,
                    cost.planKib);

        BenchJsonEntry e;
        e.name = "calibration";
        e.config = {{"engine", name},
                    {"kind", problemKindName(kind)},
                    {"w", std::to_string(w)},
                    {"s", std::to_string(s)},
                    {"cost_w", std::to_string(cost_w)},
                    {"cost_s", std::to_string(cost_s)},
                    {"cost_reps", std::to_string(cost_reps)}};
        e.metrics = {
            {"cycles", static_cast<double>(r.stats.cycles)},
            {"useful_macs", static_cast<double>(r.stats.usefulMacs)},
            {"utilization", r.stats.utilization()},
            {"prepare_us", cost.prepareUs},
            {"plan_kib", cost.planKib},
            {"host_ns_per_cycle", cost.nsPerCycle}};
        json.push_back(std::move(e));
    }
    writeBenchJson("sim_throughput", json);
}

/**
 * Per-engine sweeps over one mid-size problem per kind. These time
 * the end-to-end engine path (DBT transform + simulation per run);
 * the BM_* benches below time the simulators alone.
 */
void
registerSweeps()
{
    registerEngineSweep("engine_matvec", ProblemKind::MatVec, [] {
        const Index w = 8, s = 8 * w;
        return EnginePlan::matVec(randomIntDense(s, s, 1),
                                  randomIntVec(s, 2),
                                  randomIntVec(s, 3), w);
    });
    registerEngineSweep("engine_matmul", ProblemKind::MatMul, [] {
        const Index w = 3, s = 3 * w;
        return EnginePlan::matMul(randomIntDense(s, s, 1),
                                  randomIntDense(s, s, 2), w);
    });
    registerEngineSweep("engine_trisolve", ProblemKind::TriSolve, [] {
        const Index w = 8, s = 8 * w;
        return EnginePlan::triSolve(randomUnitLowerTriangular(s, 1),
                                    randomIntVec(s, 2), w);
    });
}

void
BM_LinearArrayCyclesPerSec(benchmark::State &state)
{
    Index w = state.range(0);
    Index s = 8 * w;
    Dense<Scalar> a = randomIntDense(s, s, 1);
    Vec<Scalar> x = randomIntVec(s, 2);
    Vec<Scalar> b = randomIntVec(s, 3);
    // Plan hoisted out of the loop: this times the simulator alone,
    // comparable with historical numbers.
    MatVecPlan plan(a, w);
    Cycle cycles = 0;
    for (auto _ : state) {
        MatVecPlanResult r = plan.run(x, b);
        cycles += r.stats.cycles;
        benchmark::DoNotOptimize(r.y);
    }
    state.counters["sim_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LinearArrayCyclesPerSec)->Arg(4)->Arg(8)->Arg(16);

void
BM_HexArrayCyclesPerSec(benchmark::State &state)
{
    Index w = state.range(0);
    Index s = 3 * w;
    Dense<Scalar> a = randomIntDense(s, s, 1);
    Dense<Scalar> b = randomIntDense(s, s, 2);
    Dense<Scalar> e(s, s);
    MatMulPlan plan(a, b, w);
    Cycle cycles = 0;
    for (auto _ : state) {
        MatMulPlanResult r = plan.run(e);
        cycles += r.totalCycles;
        benchmark::DoNotOptimize(r.c);
    }
    state.counters["sim_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HexArrayCyclesPerSec)->Arg(2)->Arg(3)->Arg(4);

void
BM_MeshArrayCyclesPerSec(benchmark::State &state)
{
    Index w = state.range(0);
    Index s = 3 * w;
    Dense<Scalar> a = randomIntDense(s, s, 1);
    Dense<Scalar> b = randomIntDense(s, s, 2);
    Dense<Scalar> e(s, s);
    MeshMatMulPlan plan(a, b, w);
    Cycle cycles = 0;
    for (auto _ : state) {
        MeshRunResult r = plan.run(e);
        cycles += r.stats.cycles;
        benchmark::DoNotOptimize(r.c);
    }
    state.counters["sim_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MeshArrayCyclesPerSec)->Arg(2)->Arg(4)->Arg(8);

/**
 * The mesh Fast kernel alone on an s² real-valued problem at array
 * side w: range(2) = 0 times the dispatched instantiation (what
 * MeshMatMulPlan::runSemantics runs), 1 the portable one. Reports
 * dense-equivalent GMAC/s (s³ multiply-adds per call).
 */
void
BM_MeshFastKernel(benchmark::State &state)
{
    const Index s = state.range(0), w = state.range(1);
    const bool portable = state.range(2) != 0;
    const Index sp = ceilDiv(s, w) * w;
    const Dense<Scalar> a = randomRealDense(s, s, 1).paddedTo(sp, sp);
    const Dense<Scalar> b = randomRealDense(s, s, 2).paddedTo(sp, sp);
    const Dense<Scalar> e = randomRealDense(s, s, 3);
    Dense<Scalar> c = e;
    const MeshKernelFn kernel = portable ? meshKernelPortable : meshKernel;
    for (auto _ : state) {
        kernel(s, s, sp, sp, a.raw(), b.raw(), c.raw());
        benchmark::DoNotOptimize(c.raw());
        benchmark::ClobberMemory();
    }
    state.SetLabel(portable                ? "portable"
                   : meshKernelAvx2()      ? "dispatched=avx2"
                                           : "dispatched=portable");
    state.counters["GMAC/s"] = benchmark::Counter(
        static_cast<double>(s * s * s) * 1e-9 *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MeshFastKernel)
    ->ArgNames({"s", "w", "portable"})
    ->Args({32, 8, 0})
    ->Args({32, 8, 1})
    ->Args({128, 16, 0})
    ->Args({128, 16, 1});

void
BM_TriArrayCyclesPerSec(benchmark::State &state)
{
    Index w = state.range(0);
    Index s = 8 * w;
    Dense<Scalar> l = randomUnitLowerTriangular(s, 1);
    Vec<Scalar> b = randomIntVec(s, 2);
    TriSolvePlan plan(l, w);
    Cycle cycles = 0;
    for (auto _ : state) {
        TriSolvePlanResult r = plan.run(b);
        cycles += r.stats.cycles;
        benchmark::DoNotOptimize(r.y);
    }
    state.counters["sim_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TriArrayCyclesPerSec)->Arg(4)->Arg(8)->Arg(16);

void
BM_BlockOracleVsCycleSim(benchmark::State &state)
{
    Index s = state.range(0);
    Dense<Scalar> a = randomIntDense(s, s, 1);
    Dense<Scalar> b = randomIntDense(s, s, 2);
    Dense<Scalar> e(s, s);
    MatMulPlan plan(a, b, 3);
    for (auto _ : state) {
        MatMulExecResult r = plan.runBlockLevel(e);
        benchmark::DoNotOptimize(r.c);
    }
}
BENCHMARK(BM_BlockOracleVsCycleSim)->Arg(6)->Arg(12)->Arg(24);

} // namespace
} // namespace sap

SAP_BENCH_MAIN_WITH_REGISTRATION(sap::print, sap::registerSweeps)
