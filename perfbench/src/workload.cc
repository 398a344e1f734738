#include "workload.hh"

#include "base/logging.hh"
#include "engine/registry.hh"
#include "mat/generate.hh"
#include "mat/ops.hh"
#include "serve/plan_cache.hh"

namespace perfbench {

using namespace sap;

std::string
RequestClass::label() const
{
    return engine + " " + problemKindName(kind) + " " +
           std::to_string(n) + " w=" + std::to_string(w);
}

const std::vector<WorkloadSpec> &
workloads()
{
    // The open-loop rates are about 30% of each mix's closed-loop
    // throughput on a quiet 4-thread x86-64 host. At half, a shared
    // host that stole half the CPU pushed the open loop past capacity:
    // queues grew until requests failed. BENCHMARK.json repeats the
    // rates in each workload's "why" and the self-test keeps the two
    // in step.
    static const std::vector<WorkloadSpec> all = [] {
        std::vector<WorkloadSpec> v;

        // Per-request fixed costs dominate: gateway hop, loopback
        // sockets, event loops, shard queue handoff. Nearly every
        // request hits the plan cache (96 plans, 256 slots).
        WorkloadSpec small;
        small.name = "small_hot";
        small.classes = {{"linear", ProblemKind::MatVec, 64, 8},
                         {"tri", ProblemKind::TriSolve, 64, 8},
                         {"mesh", ProblemKind::MatMul, 32, 8}};
        small.matricesPerClass = 32;
        small.variantsPerMatrix = 4;
        small.mode = ExecMode::Fast;
        small.openRateRps = 2200;
        v.push_back(small);

        // Costs that scale with data size dominate: the digest at
        // the gateway, the cache's exact matrix compare on a hit,
        // ~0.5 MB codec frames, and the mat-mul kernel.
        WorkloadSpec bulk;
        bulk.name = "bulk_hot";
        bulk.classes = {{"linear", ProblemKind::MatVec, 256, 64},
                        {"tri", ProblemKind::TriSolve, 256, 16},
                        {"mesh", ProblemKind::MatMul, 128, 16}};
        bulk.matricesPerClass = 8;
        bulk.variantsPerMatrix = 2;
        bulk.mode = ExecMode::Fast;
        bulk.openRateRps = 130;
        v.push_back(bulk);

        // Every topology, cycle-accurate, cache-cold: 512 distinct
        // plans cycled in order against 4 × 64 LRU slots, so every
        // lookup misses and every request pays DBT prepare, a cache
        // insert and an eviction.
        WorkloadSpec cold;
        cold.name = "simulate_cold";
        cold.classes = {{"linear", ProblemKind::MatVec, 64, 8},
                        {"grouped", ProblemKind::MatVec, 64, 8},
                        {"overlapped", ProblemKind::MatVec, 64, 8},
                        {"no-feedback", ProblemKind::MatVec, 64, 8},
                        {"tri", ProblemKind::TriSolve, 64, 8},
                        {"mesh", ProblemKind::MatMul, 24, 8},
                        {"hex", ProblemKind::MatMul, 24, 8},
                        {"spiral", ProblemKind::MatMul, 24, 8}};
        cold.matricesPerClass = 64;
        cold.variantsPerMatrix = 1;
        cold.mode = ExecMode::Simulate;
        cold.validateEvery = 4;
        cold.openRateRps = 850;
        v.push_back(cold);
        return v;
    }();
    return all;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

namespace {

/** splitmix64: decorrelates the per-operand generator seeds. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t
operandSeed(std::uint64_t seed, int cls, int matrix, int variant,
            int operand)
{
    std::uint64_t h = mix(seed);
    h = mix(h ^ static_cast<std::uint64_t>(cls));
    h = mix(h ^ static_cast<std::uint64_t>(matrix));
    h = mix(h ^ static_cast<std::uint64_t>(variant));
    return mix(h ^ static_cast<std::uint64_t>(operand));
}

} // namespace

Pool
buildPool(const WorkloadSpec &spec, std::uint64_t seed)
{
    Pool pool;
    pool.spec = &spec;

    std::vector<std::unique_ptr<SystolicEngine>> engines;
    for (const RequestClass &c : spec.classes) {
        engines.push_back(makeEngine(c.engine));
        if (!engines.back())
            SAP_FATAL("engine '", c.engine, "' is not registered");
    }

    const int C = static_cast<int>(spec.classes.size());
    const int per_class = spec.matricesPerClass * spec.variantsPerMatrix;
    pool.reqs.reserve(static_cast<std::size_t>(C * per_class));
    for (int i = 0; i < C * per_class; ++i) {
        const int cls = i % C;
        const int k = i / C;
        const int matrix = k % spec.matricesPerClass;
        const int variant = k / spec.matricesPerClass;
        const RequestClass &c = spec.classes[cls];
        const Index n = c.n;
        auto s = [&](int operand, bool per_variant) {
            return operandSeed(seed, cls, matrix,
                               per_variant ? variant : -1, operand);
        };

        PooledRequest p;
        p.cls = cls;
        p.req.engine = c.engine;
        switch (c.kind) {
        case ProblemKind::MatVec: {
            Dense<Scalar> a = randomIntDense(n, n, s(0, false));
            Vec<Scalar> x = randomIntVec(n, s(1, true));
            Vec<Scalar> b = randomIntVec(n, s(2, true));
            p.goldY = matVec(a, x, b);
            p.req.plan = EnginePlan::matVec(std::move(a), std::move(x),
                                            std::move(b), c.w);
            break;
        }
        case ProblemKind::TriSolve: {
            // b = L·x for small integer x: with a unit diagonal every
            // forward-substitution intermediate is an exact integer,
            // whatever order the array accumulates in.
            Dense<Scalar> l = randomUnitLowerTriangular(n, s(0, false));
            Vec<Scalar> x = randomIntVec(n, s(1, true));
            Vec<Scalar> b = matVec(l, x, Vec<Scalar>(n));
            p.goldY = forwardSolve(l, b);
            if (!(p.goldY == x))
                SAP_FATAL("trisolve oracle is not exact for ",
                          c.label());
            p.req.plan = EnginePlan::triSolve(std::move(l), std::move(b),
                                              c.w);
            break;
        }
        case ProblemKind::MatMul: {
            Dense<Scalar> a = randomIntDense(n, n, s(0, false));
            Dense<Scalar> bm = randomIntDense(n, n, s(1, false));
            Dense<Scalar> e = randomIntDense(n, n, s(2, true));
            p.goldC = matMulAdd(a, bm, e);
            p.req.plan = EnginePlan::matMul(std::move(a), std::move(bm),
                                            std::move(e), c.w);
            break;
        }
        }
        p.req.plan.mode = spec.mode;
        if (spec.validateEvery > 0 &&
            matrix % spec.validateEvery == spec.validateEvery - 1)
            p.req.plan.mode = ExecMode::Validate;

        // RunStats as the engine reports them for this request. Fast
        // mode returns the same stats as the cycle simulator (Validate
        // mode diffs them), at a fraction of the set-up time.
        EnginePlan fast = p.req.plan;
        fast.mode = ExecMode::Fast;
        p.stats = engines[static_cast<std::size_t>(cls)]->run(fast).stats;

        p.payload = encodeSubmit(p.req);
        p.digest = planDigest(p.req.engine, p.req.plan);
        pool.reqs.push_back(std::move(p));
    }
    return pool;
}

double
Pool::meanUtilization() const
{
    // Pool order gives every class an equal share, so the plain mean
    // over the pool is the mean over the mix.
    double sum = 0;
    for (const PooledRequest &p : reqs)
        sum += p.stats.utilization();
    return reqs.empty() ? 0 : sum / static_cast<double>(reqs.size());
}

std::uint64_t
Pool::streamDigest() const
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const PooledRequest &p : reqs)
        for (std::uint8_t byte : p.payload) {
            h ^= byte;
            h *= 0x100000001b3ull;
        }
    return h;
}

double
denseMacs(const RequestClass &c)
{
    const double n = static_cast<double>(c.n);
    switch (c.kind) {
    case ProblemKind::MatVec:
        return n * n;
    case ProblemKind::MatMul:
        return n * n * n;
    case ProblemKind::TriSolve:
        return n * (n - 1) / 2;
    }
    return 0;
}

double
operandBytes(const RequestClass &c)
{
    const double n = static_cast<double>(c.n);
    switch (c.kind) {
    case ProblemKind::MatVec: // A, x, b in; y out
        return 8 * (n * n + 3 * n);
    case ProblemKind::MatMul: // A, B, E in; C out
        return 8 * (4 * n * n);
    case ProblemKind::TriSolve: // lower triangle of L, b in; y out
        return 8 * (n * (n + 1) / 2 + 2 * n);
    }
    return 0;
}

bool
checkResponse(const PooledRequest &p, const WireResponse &r,
              std::string *why)
{
    auto fail = [&](std::string reason) {
        if (why)
            *why = std::move(reason);
        return false;
    };
    if (!r.ok)
        return fail("server error: " + r.error);
    const bool exact = p.req.plan.kind == ProblemKind::MatMul
                           ? r.c == p.goldC
                           : r.y == p.goldY;
    if (!exact)
        return fail("result differs from the host oracle");
    if (r.simCycles != p.stats.cycles)
        return fail("simCycles " + std::to_string(r.simCycles) +
                    " != engine RunStats.cycles " +
                    std::to_string(p.stats.cycles));
    return true;
}

} // namespace perfbench
