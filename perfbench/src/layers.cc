#include "layers.hh"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>

#include "analysis/formulas.hh"
#include "base/math_util.hh"
#include "cluster/cluster.hh"
#include "engine/registry.hh"
#include "net/client.hh"
#include "serve/plan_cache.hh"
#include "tiers.hh"

namespace perfbench {

using namespace sap;
using Clock = std::chrono::steady_clock;

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::size_t k = static_cast<std::size_t>(
        q * static_cast<double>(v.size() - 1) + 0.5);
    std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
    return v[k];
}

double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0 : s / static_cast<double>(v.size());
}

namespace {

double
microsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
}

/**
 * The in-process layers get the serving stack's total plan-cache
 * capacity, so the stream hits and misses in them as it does in the
 * stack (every hot pool fits; the cold pool does not).
 */
constexpr std::size_t kStackPlans =
    kBackends * kShardsPerBackend * PlanCache::kDefaultCapacity;

/** Fewest and most samples per class and layer. */
constexpr int kMinPerClass = 3;
constexpr int kMaxPerClass = 64;

/**
 * Walk the stream from its start, timing @p fn on each request, until
 * every class has kMaxPerClass samples, or @p deadline has passed and
 * every class has kMinPerClass. @p fn returns microseconds (it times
 * itself, so it can leave copies and set-up out). Returns the
 * per-class medians.
 */
std::vector<double>
perClassMedians(const Pool &pool,
                const std::function<double(const PooledRequest &)> &fn,
                Clock::time_point deadline)
{
    const std::size_t C = pool.spec->classes.size();
    std::vector<std::vector<double>> samples(C);
    for (std::size_t i = 0;; ++i) {
        const PooledRequest &p = pool.reqs[i % pool.reqs.size()];
        samples[static_cast<std::size_t>(p.cls)].push_back(fn(p));
        std::size_t least = samples[0].size();
        for (const std::vector<double> &s : samples)
            least = std::min(least, s.size());
        if (least >= static_cast<std::size_t>(kMaxPerClass) ||
            (least >= static_cast<std::size_t>(kMinPerClass) &&
             Clock::now() > deadline))
            break;
    }
    std::vector<double> medians;
    for (std::vector<double> &s : samples)
        medians.push_back(quantile(std::move(s), 0.5));
    return medians;
}

/** The response a correct server sends for @p p. */
WireResponse
goldResponse(const PooledRequest &p)
{
    WireResponse r;
    r.ok = true;
    r.y = p.goldY;
    r.c = p.goldC;
    r.simCycles = p.stats.cycles;
    return r;
}

/** T from the closed form covering @p c's engine, or 0 when none
 *  does (the no-feedback baseline). */
double
formulaCycles(const RequestClass &c)
{
    const Index b = ceilDiv(c.n, c.w);
    if (c.engine == "linear" || c.engine == "grouped")
        return static_cast<double>(formulas::tMatVec(c.w, b, b));
    if (c.engine == "overlapped")
        return static_cast<double>(formulas::tMatVecOverlap(c.w, b, b));
    if (c.engine == "tri")
        return static_cast<double>(formulas::tTriSolve(c.w, b));
    if (c.engine == "mesh")
        return static_cast<double>(formulas::tMesh(c.w, b, b, b));
    if (c.engine == "hex" || c.engine == "spiral")
        return static_cast<double>(formulas::tMatMul(c.w, b, b, b));
    return 0;
}

} // namespace

LayerTimes
measureLayers(const Pool &pool, std::uint16_t gateway_port,
              std::uint16_t backend_port, double budget_seconds)
{
    const WorkloadSpec &spec = *pool.spec;
    const std::size_t C = spec.classes.size();
    LayerTimes out;

    std::vector<std::unique_ptr<SystolicEngine>> engines;
    for (const RequestClass &c : spec.classes)
        engines.push_back(makeEngine(c.engine));
    auto engineOf = [&](const PooledRequest &p) -> const SystolicEngine & {
        return *engines[static_cast<std::size_t>(p.cls)];
    };

    // Every plan of a hot pool fits in the stack's caches, so the
    // stack's cache step is a hit; the cold pool does not fit, and
    // its hit path needs a walk of its own.
    const bool pool_fits =
        static_cast<std::size_t>(spec.matricesPerClass) * C <= kStackPlans;
    // Ten stream walks share the budget, eleven on the cold pool.
    const auto slice = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(budget_seconds /
                                      (pool_fits ? 10 : 11)));
    auto deadline = [&] { return Clock::now() + slice; };

    auto check = [&](const PooledRequest &p, const WireResponse &r) {
        ++out.attempted;
        std::string why;
        if (!checkResponse(p, r, &why)) {
            ++out.failed;
            if (out.firstFailure.empty())
                out.firstFailure = p.req.engine + ": " + why;
        }
    };

    // A cache holding every plan of the pool: the hit path, and the
    // prepared plans the kernel timings run through.
    PlanCache all(pool.reqs.size());
    for (const PooledRequest &p : pool.reqs)
        all.prepare(engineOf(p), p.req.plan, p.digest);

    out.digest = perClassMedians(
        pool,
        [&](const PooledRequest &p) {
            auto t0 = Clock::now();
            Digest d = planDigest(p.req.engine, p.req.plan);
            double us = microsSince(t0);
            if (d != p.digest)
                check(p, WireResponse()); // counts a failure
            return us;
        },
        deadline());

    // The cache step the stack actually takes: a cache as large as the
    // stack's, after one warm pass — hits on the hot mixes, misses
    // (prepare, insert, evict) on the cold one.
    {
        PlanCache stack_sized(kStackPlans);
        for (const PooledRequest &p : pool.reqs)
            stack_sized.prepare(engineOf(p), p.req.plan, p.digest);
        out.cacheStep = perClassMedians(
            pool,
            [&](const PooledRequest &p) {
                auto t0 = Clock::now();
                stack_sized.prepare(engineOf(p), p.req.plan, p.digest);
                return microsSince(t0);
            },
            deadline());
    }
    if (pool_fits)
        out.lookupHit = out.cacheStep;
    else
        out.lookupHit = perClassMedians(
            pool,
            [&](const PooledRequest &p) {
                auto t0 = Clock::now();
                all.prepare(engineOf(p), p.req.plan, p.digest);
                return microsSince(t0);
            },
            deadline());

    out.prepare = perClassMedians(
        pool,
        [&](const PooledRequest &p) {
            auto t0 = Clock::now();
            engineOf(p).prepare(p.req.plan);
            return microsSince(t0);
        },
        deadline());

    // Kernels, each mode in a walk of its own so the simulator does
    // not evict the fast kernel's working set between samples.
    auto kernelWalk = [&](ExecMode mode, std::vector<double> *ns_per_cycle,
                          std::vector<double> *vs_formula) {
        std::vector<std::vector<double>> nspc(C), vsf(C);
        std::vector<double> medians = perClassMedians(
            pool,
            [&](const PooledRequest &p) {
                const SystolicEngine &e = engineOf(p);
                std::shared_ptr<const PreparedPlan> prep =
                    all.prepare(e, p.req.plan, p.digest).plan;
                EngineInputs in = EngineInputs::of(p.req.plan);
                in.mode = mode;
                auto t0 = Clock::now();
                EngineRunResult r = e.runPrepared(*prep, in);
                double us = microsSince(t0);
                const std::size_t c = static_cast<std::size_t>(p.cls);
                nspc[c].push_back(us * 1e3 /
                                  static_cast<double>(r.stats.cycles));
                double formula = formulaCycles(spec.classes[c]);
                vsf[c].push_back(
                    formula > 0 ? static_cast<double>(r.stats.cycles) / formula
                                : -1);
                if (r.stats.cycles != p.stats.cycles)
                    check(p, WireResponse()); // counts a failure
                return us;
            },
            deadline());
        for (std::size_t c = 0; c < C; ++c) {
            if (ns_per_cycle)
                ns_per_cycle->push_back(quantile(nspc[c], 0.5));
            if (vs_formula)
                vs_formula->push_back(quantile(vsf[c], 0.5));
        }
        return medians;
    };
    out.kernelFast = kernelWalk(ExecMode::Fast, nullptr, nullptr);
    out.kernelSimulate = kernelWalk(ExecMode::Simulate, &out.simNsPerCycle,
                                    &out.cyclesVsFormula);
    // The ledger charges the mix's own mode. On the cold mix one
    // request in four runs Validate (simulate plus fast); a minority
    // does not move a per-class median, so Simulate stands for it.
    out.kernelOwnMode =
        spec.mode == ExecMode::Fast ? out.kernelFast : out.kernelSimulate;

    {
        double req_bytes = 0, resp_bytes = 0;
        for (const PooledRequest &p : pool.reqs) {
            req_bytes += static_cast<double>(kFrameHeaderBytes +
                                             p.payload.size());
            resp_bytes += static_cast<double>(
                kFrameHeaderBytes + encodeResponse(goldResponse(p)).size());
        }
        out.requestBytes = req_bytes / static_cast<double>(pool.reqs.size());
        out.responseBytes =
            resp_bytes / static_cast<double>(pool.reqs.size());
    }
    out.codec = perClassMedians(
        pool,
        [&](const PooledRequest &p) {
            WireResponse r = goldResponse(p);
            std::string err;
            ServeRequest decoded;
            WireResponse back;
            auto t0 = Clock::now();
            std::vector<std::uint8_t> sub = encodeSubmit(p.req);
            bool ok = decodeSubmit(sub, &decoded, &err);
            std::vector<std::uint8_t> resp = encodeResponse(r);
            ok = decodeResponse(resp, &back, &err) && ok;
            double us = microsSince(t0);
            if (!ok)
                check(p, WireResponse());
            return us;
        },
        deadline());

    // Round trips through the serving layers. Each gets one warm pass
    // over the pool first, as the serving stack did at set-up.
    auto roundTrips =
        [&](const std::function<WireResponse(const PooledRequest &,
                                             Clock::time_point *)> &call) {
            for (const PooledRequest &p : pool.reqs) {
                Clock::time_point t0;
                check(p, call(p, &t0));
            }
            return perClassMedians(
                pool,
                [&](const PooledRequest &p) {
                    Clock::time_point t0;
                    WireResponse r = call(p, &t0);
                    double us = microsSince(t0);
                    check(p, r);
                    return us;
                },
                deadline());
        };

    {
        Shard::Options so;
        so.threads = 1;
        so.planCacheCapacity = kStackPlans;
        Shard shard(so);
        out.shard = roundTrips([&](const PooledRequest &p,
                                   Clock::time_point *t0) {
            ServeRequest req = p.req; // the copy stays outside the timing
            *t0 = Clock::now();
            return WireResponse::of(
                shard.submit(std::move(req), p.digest).get());
        });
    }
    {
        Cluster::Options co;
        co.shards = kShardsPerBackend;
        co.threadsPerShard = 1;
        co.planCacheCapacityPerShard = kStackPlans / kShardsPerBackend;
        Cluster cluster(co);
        out.cluster = roundTrips([&](const PooledRequest &p,
                                     Clock::time_point *t0) {
            ServeRequest req = p.req;
            *t0 = Clock::now();
            return WireResponse::of(cluster.submit(std::move(req)).get());
        });
    }
    auto viaClient = [&](std::uint16_t port) {
        NetClient client;
        if (!client.connect("127.0.0.1", port)) {
            ++out.attempted;
            ++out.failed;
            out.firstFailure = "connect: " + client.lastError();
            return std::vector<double>(C, 0.0);
        }
        return roundTrips([&](const PooledRequest &p,
                              Clock::time_point *t0) {
            *t0 = Clock::now();
            NetClient::Result r = client.submit(p.req);
            if (!r.transportOk) {
                WireResponse bad;
                bad.error = "transport: " + r.transportError;
                return bad;
            }
            return r.response;
        });
    };
    out.server = viaClient(backend_port);
    out.gateway = viaClient(gateway_port);
    return out;
}

Roofline
probeRoofline()
{
    Roofline r;
    // STREAM triad a = b + s·c over arrays well past the last-level
    // cache; 24 bytes move per element (two loads, one store).
    {
        const std::size_t n = 2u << 20;
        std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
        volatile double s_in = 3.0;
        const double s = s_in;
        double best = 1e30;
        for (int rep = 0; rep < 10; ++rep) {
            auto t0 = Clock::now();
            for (std::size_t i = 0; i < n; ++i)
                a[i] = b[i] + s * c[i];
            best = std::min(best, microsSince(t0));
            volatile double sink = a[rep];
            (void)sink;
        }
        r.streamGBps = 24.0 * static_cast<double>(n) / (best * 1e3);
    }
    // Dense multiply-add peak: 16 independent accumulator chains, so
    // the loop is throughput-bound on whatever vector width and FMA
    // support the build's -march gives.
    {
        constexpr int kAcc = 16;
        volatile double m_in = 0.999999, a_in = 1e-7;
        const double m = m_in, add = a_in;
        double acc[kAcc];
        for (int j = 0; j < kAcc; ++j)
            acc[j] = 1.0 + j;
        const long iters = 4'000'000;
        double best = 1e30;
        for (int rep = 0; rep < 5; ++rep) {
            auto t0 = Clock::now();
            for (long i = 0; i < iters; ++i)
                for (int j = 0; j < kAcc; ++j)
                    acc[j] = acc[j] * m + add;
            best = std::min(best, microsSince(t0));
        }
        double sum = 0;
        for (double x : acc)
            sum += x;
        volatile double sink = sum;
        (void)sink;
        r.peakGmacs = static_cast<double>(iters) * kAcc / (best * 1e3);
    }
    return r;
}

TraceGaps
analyzeTraces(const std::vector<RequestTrace> &traces)
{
    std::vector<double> route, span, queue, writer;
    auto gap = [](const RequestTrace &t, TraceStage from, TraceStage to,
                  std::vector<double> *out) {
        std::uint64_t a = t.nanosAt(from), b = t.nanosAt(to);
        if (a != 0 && b >= a)
            out->push_back(static_cast<double>(b - a) / 1e3);
    };
    TraceGaps g;
    for (const RequestTrace &t : traces) {
        if (t.tier == TraceTier::Gateway) {
            ++g.gatewayTraces;
            gap(t, TraceStage::Decode, TraceStage::Dequeue, &route);
            gap(t, TraceStage::Decode, TraceStage::Flush, &span);
        } else {
            ++g.backendTraces;
            gap(t, TraceStage::Route, TraceStage::Dequeue, &queue);
            gap(t, TraceStage::CqPush, TraceStage::WriterPop, &writer);
        }
    }
    g.routeP50 = quantile(route, 0.5);
    g.gatewaySpanP50 = quantile(span, 0.5);
    g.queueWaitP50 = quantile(queue, 0.5);
    g.queueWaitP99 = quantile(queue, 0.99);
    g.writerWaitP50 = quantile(writer, 0.5);
    return g;
}

} // namespace perfbench
