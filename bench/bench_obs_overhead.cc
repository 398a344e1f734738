/**
 * @file
 * PERF: cost of the obs/ instrumentation on the serving hot path
 * (engineering data, not a paper artifact).
 *
 * The observability contract is that measurement must not distort
 * what it measures. Three configurations of the same end-to-end
 * loopback workload quantify it:
 *
 *  - baseline:   metrics off, tracing off — the pre-observability
 *                hot path (every instrument pointer is null, every
 *                trace handle is null).
 *  - metrics_on: metrics registries live, tracing off — the default
 *                serving configuration. Budget: <= 1% slower than
 *                baseline.
 *  - sampled:    metrics on plus request tracing at 1-in-64
 *                sampling — the recommended production-debug
 *                configuration. Budget: <= 3% slower than baseline.
 *  - admin:      metrics on plus the admin HTTP plane and the
 *                flight-recorder sampler ticking at 250 ms — the
 *                scrapeable production configuration. Budget: <= 1%
 *                slower than baseline (the sampler runs off the hot
 *                path and touches the registries only briefly).
 *
 * The workload is pipelined linear mat-vec over TCP loopback with a
 * warm plan cache, so the per-request cost is dominated by the
 * cycle-level simulation the instruments wrap — exactly the regime
 * the budgets are stated for. Each configuration is measured
 * several times and the best wall time is kept (the usual defense
 * against scheduler noise on shared CI hosts).
 *
 * The print section emits BENCH_obs_overhead.json with the measured
 * overheads next to their budgets; google-benchmark timers cover
 * the per-operation costs (histogram record, counter add, trace
 * begin/stamp/finish) for tracked history.
 */

#include "bench/bench_common.hh"

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "mat/generate.hh"
#include "net/client.hh"
#include "net/gateway.hh"
#include "net/server.hh"
#include "obs/metrics.hh"
#include "obs/trace_ring.hh"

namespace sap {
namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

struct ObsConfig
{
    const char *name;
    bool metrics;
    bool trace;
    std::uint64_t sampleEvery;
    /** Admin HTTP plane + flight-recorder sampler enabled. */
    bool admin;
    /** Acceptance budget vs baseline, in percent (0 = is baseline). */
    double budgetPct;
};

/**
 * One measured run: a fresh server in @p cfg's configuration,
 * @p clients threads pipelining batches of the same warm-cache
 * mat-vec. Returns requests per second (best of @p repeats).
 */
double
measure(const ObsConfig &cfg, int clients, int rounds, int batch,
        Index s, Index w, int repeats)
{
    double best_wall = 0;
    for (int rep = 0; rep < repeats; ++rep) {
        NetServer::Options opts;
        opts.cluster.shards = 2;
        opts.cluster.threadsPerShard = 2;
        opts.cluster.metrics = cfg.metrics;
        opts.metrics = cfg.metrics;
        opts.trace.enabled = cfg.trace;
        opts.trace.sampleEvery = cfg.sampleEvery;
        opts.admin.enabled = cfg.admin;
        // Fast enough that the sampler provably ticks (and contends
        // for the registry mutexes) during the timed region.
        opts.admin.samplerIntervalSeconds = 0.25;
        NetServer server(opts);
        SAP_ASSERT(server.start(), "obs bench server failed to start");

        // One matrix per client: after the warm-up round every
        // request is a plan-cache hit, so the timed region is
        // routing + queueing + simulation, not dense->band rebuilds.
        Dense<Scalar> a = randomIntDense(s, s, 42);
        auto makeBatch = [&](int c, int r) {
            std::vector<ServeRequest> reqs;
            for (int i = 0; i < batch; ++i) {
                ServeRequest req;
                req.engine = "linear";
                req.plan = EnginePlan::matVec(
                    a,
                    randomIntVec(s, static_cast<std::uint64_t>(
                                        100 * c + 10 * r + i)),
                    randomIntVec(s, static_cast<std::uint64_t>(
                                        7000 + 100 * c + 10 * r + i)),
                    w);
                reqs.push_back(std::move(req));
            }
            return reqs;
        };

        // Warm-up: land the plan in every shard's cache.
        {
            NetClient warm;
            SAP_ASSERT(warm.connect("127.0.0.1", server.port()),
                       "obs bench warm-up connect failed");
            for (const NetClient::Result &r :
                 warm.submitBatch(makeBatch(99, 99)))
                SAP_ASSERT(r.transportOk && r.response.ok,
                           "obs bench warm-up request failed");
        }

        auto t0 = std::chrono::steady_clock::now();
        std::vector<std::thread> threads;
        for (int c = 0; c < clients; ++c) {
            threads.emplace_back([&, c] {
                NetClient client;
                SAP_ASSERT(client.connect("127.0.0.1", server.port()),
                           "obs bench connect failed");
                for (int r = 0; r < rounds; ++r)
                    for (const NetClient::Result &res :
                         client.submitBatch(makeBatch(c, r)))
                        SAP_ASSERT(res.transportOk && res.response.ok,
                                   "obs bench request failed");
            });
        }
        for (std::thread &t : threads)
            t.join();
        double wall = secondsSince(t0);
        if (rep == 0 || wall < best_wall)
            best_wall = wall;
    }
    return static_cast<double>(clients) * rounds * batch / best_wall;
}

/**
 * The cross-tier run: the same warm-cache workload through a gateway
 * over two backends, with or without sampled edge tracing. When
 * @p tracing is on the gateway head-samples at 1-in-64 and the
 * backends commit only what the propagated flag tells them to — the
 * recommended production-debug configuration for the tier. Returns
 * requests per second (best of @p repeats).
 */
double
measureGateway(bool tracing, int clients, int rounds, int batch,
               Index s, Index w, int repeats)
{
    double best_wall = 0;
    for (int rep = 0; rep < repeats; ++rep) {
        std::vector<std::unique_ptr<NetServer>> backends;
        std::vector<Gateway::BackendAddr> addrs;
        for (int b = 0; b < 2; ++b) {
            NetServer::Options opts;
            opts.cluster.shards = 2;
            opts.cluster.threadsPerShard = 2;
            opts.trace.enabled = tracing;
            opts.trace.sampleEvery = 0; // commits ride the flag
            backends.push_back(std::make_unique<NetServer>(opts));
            SAP_ASSERT(backends.back()->start(),
                       "obs bench backend failed to start");
            addrs.push_back({"127.0.0.1", backends.back()->port(), 0});
        }
        Gateway::Options gopts;
        gopts.backends = std::move(addrs);
        gopts.trace.enabled = tracing;
        gopts.trace.sampleEvery = 64;
        Gateway gw(gopts);
        SAP_ASSERT(gw.start(), "obs bench gateway failed to start");
        while (gw.routableBackends() < 2)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));

        Dense<Scalar> a = randomIntDense(s, s, 42);
        auto makeBatch = [&](int c, int r) {
            std::vector<ServeRequest> reqs;
            for (int i = 0; i < batch; ++i) {
                ServeRequest req;
                req.engine = "linear";
                req.plan = EnginePlan::matVec(
                    a,
                    randomIntVec(s, static_cast<std::uint64_t>(
                                        100 * c + 10 * r + i)),
                    randomIntVec(s, static_cast<std::uint64_t>(
                                        7000 + 100 * c + 10 * r + i)),
                    w);
                reqs.push_back(std::move(req));
            }
            return reqs;
        };

        {
            NetClient warm;
            SAP_ASSERT(warm.connect("127.0.0.1", gw.port()),
                       "obs bench gateway warm-up connect failed");
            for (const NetClient::Result &r :
                 warm.submitBatch(makeBatch(99, 99)))
                SAP_ASSERT(r.transportOk && r.response.ok,
                           "obs bench gateway warm-up request failed");
        }

        auto t0 = std::chrono::steady_clock::now();
        std::vector<std::thread> threads;
        for (int c = 0; c < clients; ++c) {
            threads.emplace_back([&, c] {
                NetClient client;
                SAP_ASSERT(client.connect("127.0.0.1", gw.port()),
                           "obs bench gateway connect failed");
                for (int r = 0; r < rounds; ++r)
                    for (const NetClient::Result &res :
                         client.submitBatch(makeBatch(c, r)))
                        SAP_ASSERT(res.transportOk && res.response.ok,
                                   "obs bench gateway request failed");
            });
        }
        for (std::thread &t : threads)
            t.join();
        double wall = secondsSince(t0);
        gw.stop();
        for (std::unique_ptr<NetServer> &b : backends)
            b->stop();
        if (rep == 0 || wall < best_wall)
            best_wall = wall;
    }
    return static_cast<double>(clients) * rounds * batch / best_wall;
}

void
print()
{
    const bool tiny = std::getenv("SAP_BENCH_TINY") != nullptr;
    const int kClients = 2;
    const int kRounds = tiny ? 4 : 24;
    const int kBatch = 8;
    const Index s = tiny ? 48 : 128;
    const Index w = 8;
    const int kRepeats = tiny ? 1 : 3;

    const ObsConfig configs[] = {
        {"baseline", false, false, 0, false, 0.0},
        {"metrics_on", true, false, 0, false, 1.0},
        {"sampled", true, true, 64, false, 3.0},
        // The full admin plane: metrics + flight-recorder sampler +
        // HTTP server thread idling on its port. The sampler snapshots
        // the whole registry every 250 ms; its cost must stay inside
        // the metrics budget because it contends only briefly.
        {"admin", true, false, 0, true, 1.0},
    };

    printHeader("OBS-1",
                "observability overhead: end-to-end loopback serving "
                "(warm cache, linear mat-vec)");
    std::printf("workload: %d clients x %d rounds x %d-deep batches, "
                "%lldx%lld w=%lld, best of %d\n",
                kClients, kRounds, kBatch, (long long)s, (long long)s,
                (long long)w, kRepeats);
    std::printf("%-12s %10s %10s %10s\n", "config", "req/s",
                "overhead", "budget");

    std::vector<BenchJsonEntry> json;
    double base_rps = 0;
    for (const ObsConfig &cfg : configs) {
        double rps = measure(cfg, kClients, kRounds, kBatch, s, w,
                             kRepeats);
        if (cfg.budgetPct == 0.0)
            base_rps = rps;
        double overhead_pct = (base_rps / rps - 1.0) * 100.0;
        char budget[24] = "-";
        if (cfg.budgetPct > 0)
            std::snprintf(budget, sizeof(budget), "<=%.0f%% %s",
                          cfg.budgetPct,
                          overhead_pct <= cfg.budgetPct ? "ok"
                                                        : "OVER");
        std::printf("%-12s %10.0f %9.2f%% %10s\n", cfg.name, rps,
                    overhead_pct, budget);
        json.push_back(
            {"obs_overhead",
             {{"config", cfg.name},
              {"engine", "linear"},
              {"s", std::to_string(s)},
              {"w", std::to_string(w)},
              {"clients", std::to_string(kClients)},
              {"sample_every", std::to_string(cfg.sampleEvery)},
              {"admin", cfg.admin ? "on" : "off"}},
             {{"req_per_s", rps},
              {"overhead_pct", overhead_pct},
              {"budget_pct", cfg.budgetPct}}});
    }

    // The cross-tier pair: gateway + 2 backends, tracing off as its
    // own baseline vs 1-in-64 edge-sampled tracing with propagation.
    // The budget mirrors the single-tier sampled one: the context
    // block on the wire plus the gateway's own stamps must stay
    // inside 3%.
    std::printf("\ncross-tier: gateway over 2 backends\n");
    std::printf("%-16s %10s %10s %10s\n", "config", "req/s",
                "overhead", "budget");
    double gw_base_rps = 0;
    struct
    {
        const char *name;
        bool tracing;
        double budgetPct;
    } gwConfigs[] = {
        {"gateway_baseline", false, 0.0},
        {"gateway-tracing", true, 3.0},
    };
    for (const auto &cfg : gwConfigs) {
        double rps = measureGateway(cfg.tracing, kClients, kRounds,
                                    kBatch, s, w, kRepeats);
        if (cfg.budgetPct == 0.0)
            gw_base_rps = rps;
        double overhead_pct = (gw_base_rps / rps - 1.0) * 100.0;
        char budget[24] = "-";
        if (cfg.budgetPct > 0)
            std::snprintf(budget, sizeof(budget), "<=%.0f%% %s",
                          cfg.budgetPct,
                          overhead_pct <= cfg.budgetPct ? "ok"
                                                        : "OVER");
        std::printf("%-16s %10.0f %9.2f%% %10s\n", cfg.name, rps,
                    overhead_pct, budget);
        json.push_back(
            {"obs_overhead",
             {{"config", cfg.name},
              {"engine", "linear"},
              {"s", std::to_string(s)},
              {"w", std::to_string(w)},
              {"clients", std::to_string(kClients)},
              {"sample_every", cfg.tracing ? "64" : "0"},
              {"admin", "off"}},
             {{"req_per_s", rps},
              {"overhead_pct", overhead_pct},
              {"budget_pct", cfg.budgetPct}}});
    }
    writeBenchJson("obs_overhead", json);
}

//---------------------------------------------------------------------
// Tracked google-benchmark timers: per-operation instrument costs.
//---------------------------------------------------------------------

void
BM_HistogramRecord(benchmark::State &state)
{
    Histogram h;
    double v = 0.5;
    for (auto _ : state) {
        h.record(v);
        v = v < 1e6 ? v * 1.01 : 0.5;
    }
    benchmark::DoNotOptimize(h.snapshot().count);
}
BENCHMARK(BM_HistogramRecord);

void
BM_CounterAdd(benchmark::State &state)
{
    Counter c;
    for (auto _ : state)
        c.add();
    benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_CounterAdd);

/** Full trace lifecycle at 1-in-64 sampling: what one request pays
 *  when tracing is enabled. */
void
BM_TraceBeginStampFinish(benchmark::State &state)
{
    TraceConfig cfg;
    cfg.enabled = true;
    cfg.sampleEvery = 64;
    TraceCollector collector(cfg, nullptr);
    for (auto _ : state) {
        std::shared_ptr<RequestTrace> t = collector.begin();
        traceStamp(t, TraceStage::Decode);
        traceStamp(t, TraceStage::Route);
        traceStamp(t, TraceStage::Dequeue);
        traceStamp(t, TraceStage::Execute);
        traceStamp(t, TraceStage::Flush);
        collector.finish(t);
    }
    benchmark::DoNotOptimize(collector.totalCommitted());
}
BENCHMARK(BM_TraceBeginStampFinish);

/** The disabled path: what every request pays when tracing is off
 *  (null handle, all stamps no-ops). */
void
BM_TraceDisabled(benchmark::State &state)
{
    TraceCollector collector(TraceConfig{}, nullptr);
    for (auto _ : state) {
        std::shared_ptr<RequestTrace> t = collector.begin();
        traceStamp(t, TraceStage::Decode);
        traceStamp(t, TraceStage::Execute);
        collector.finish(t);
    }
    benchmark::DoNotOptimize(collector.totalCommitted());
}
BENCHMARK(BM_TraceDisabled);

} // namespace
} // namespace sap

SAP_BENCH_MAIN(sap::print)
