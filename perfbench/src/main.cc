/**
 * @file
 * The serving benchmark's entry point.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--out DIR] [--corrupt-one] [--dump-stream]
 *
 * --trace 0 measures the end-to-end metrics with tracing off, over
 * several fresh serving stacks: set-up time, a closed loop for
 * throughput, CPU per request and memory, then an open loop at the
 * workload's fixed Poisson rate for latency. --trace 1 measures the
 * per-layer ledger: an untraced closed and open loop, the in-process
 * layer timings, then a second stack with every request traced.
 *
 * Every response is checked against the host oracle. The last line
 * of stdout is one JSON object: {"correct", "attempted", "failed",
 * "metrics"}; the lines before it print every metric by name and
 * unit plus the run's provenance, which --out also writes to a JSON
 * file. The exit code is non-zero when any answer was wrong.
 *
 * --corrupt-one flips one result before it is checked (the
 * self-test's proof that wrong answers count); --dump-stream prints
 * the request stream's digests and exits.
 */

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "build_info.hh"
#include "layers.hh"
#include "loadgen.hh"
#include "net/client.hh"
#include "tiers.hh"
#include "workload.hh"

using namespace perfbench;
using namespace sap;
using Clock = std::chrono::steady_clock;

namespace {

/** Fresh serving stacks per --trace 0 run, and how many of them (the
 *  least disturbed by the host; see runEndToEnd) the metrics come
 *  from. */
constexpr int kStacks = 12;
constexpr int kKeptStacks = 6;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    std::string outDir;
    bool corruptOne = false;
    bool dumpStream = false;
};

[[noreturn]] void
usageError(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out DIR] [--corrupt-one] "
                 "[--dump-stream]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError(k + " needs a value");
            return argv[++i];
        };
        if (k == "--workload")
            a.workload = value();
        else if (k == "--seed")
            a.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::atof(value().c_str());
        else if (k == "--trace")
            a.trace = std::atoi(value().c_str());
        else if (k == "--out")
            a.outDir = value();
        else if (k == "--corrupt-one")
            a.corruptOne = true;
        else if (k == "--dump-stream")
            a.dumpStream = true;
        else
            usageError("unknown argument " + k);
    }
    if (a.workload.empty())
        usageError("--workload is required");
    if (!(a.seconds > 0) || (a.trace != 0 && a.trace != 1))
        usageError("--seconds must be > 0 and --trace 0 or 1");
    return a;
}

/** Cumulative (busy, steal) jiffies of all CPUs from /proc/stat:
 *  steal is time the hypervisor ran something else while this host
 *  had work. */
std::pair<double, double>
hostJiffies()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    double v[8] = {};
    in >> cpu;
    for (double &x : v)
        in >> x;
    // user nice system idle iowait irq softirq steal
    return {v[0] + v[1] + v[2] + v[5] + v[6] + v[7], v[7]};
}

/** Share of the CPU time this host wanted between two hostJiffies()
 *  readings that the hypervisor gave to something else. */
double
stealShare(std::pair<double, double> j0, std::pair<double, double> j1)
{
    return (j1.second - j0.second) / std::max(1.0, j1.first - j0.first);
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string
selfExe()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n <= 0)
        SAP_FATAL("cannot resolve /proc/self/exe");
    buf[n] = '\0';
    return buf;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) >= 0x20)
            out.push_back(c);
    }
    return out;
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** A named metric in emission order. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Everything a run reports besides its metrics. */
struct Report
{
    std::vector<std::pair<std::string, std::string>> provenance;
    std::vector<Metric> metrics;
    /** Printed with the metrics but left out of the JSON result. */
    std::vector<Metric> ungated;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string firstFailure;

    void addPhase(const PhaseStats &p)
    {
        attempted += p.attempted;
        failed += p.failed;
        if (firstFailure.empty())
            firstFailure = p.firstFailure;
    }
};

/** Fresh stack: spawn, warm (one pass over the pool), time it. */
std::unique_ptr<Tiers>
setUp(const std::string &exe, const Pool &pool, bool traced,
      double *seconds)
{
    auto t0 = Clock::now();
    std::string err;
    std::unique_ptr<Tiers> tiers = Tiers::spawn(exe, traced, &err);
    if (!tiers)
        SAP_FATAL("perfbench: ", err);
    LoadOptions warm;
    warm.port = tiers->gatewayPort();
    warm.closedLoop = true;
    warm.seconds = 120;
    warm.maxRequests = pool.reqs.size();
    PhaseStats w = runLoad(pool, warm);
    if (w.failed > 0 || w.succeeded != pool.reqs.size())
        SAP_FATAL("perfbench: warm-up failed (", w.failed,
                  " failures): ", w.firstFailure);
    *seconds = secondsSince(t0);
    return tiers;
}

/** Closed-loop figures are medians over slices of about a second, so
 *  a transient stall on a shared host costs one slice, not the
 *  phase. */
constexpr double kClosedSliceSeconds = 1.0;

/** Open-loop percentiles are taken per window of this many
 *  consecutive arrivals — enough for a p99 with ten samples beyond
 *  it — and the median over the windows is reported. A host stall of
 *  a few milliseconds then moves the p99 of the windows it hits, not
 *  of the whole run. */
constexpr double kOpenWindowArrivals = 1000;

/** A closed loop and its per-slice medians. */
struct Closed
{
    PhaseStats phase;
    double throughputRps = 0;
    double cpuUsPerReq = 0;
};

Closed
closedLoop(const Pool &pool, Tiers &tiers, double seconds)
{
    LoadOptions o;
    o.port = tiers.gatewayPort();
    o.closedLoop = true;
    o.seconds = seconds;
    o.tickSeconds =
        seconds / std::max(1.0, std::floor(seconds / kClosedSliceSeconds));
    std::vector<TierUsage> ticks;
    o.atTick = [&] {
        TierUsage u;
        if (!tiers.usage(&u))
            SAP_FATAL("perfbench: serving child stopped answering");
        ticks.push_back(u);
    };
    Closed c;
    c.phase = runLoad(pool, o);

    const std::size_t slices = ticks.size() - 1;
    std::vector<double> done(slices, 0);
    for (double t : c.phase.doneAtS) {
        std::size_t k = static_cast<std::size_t>(t / o.tickSeconds);
        if (k < slices)
            done[k] += 1;
    }
    std::vector<double> rps, cpu;
    for (std::size_t k = 0; k < slices; ++k) {
        rps.push_back(done[k] / o.tickSeconds);
        if (done[k] > 0)
            cpu.push_back((ticks[k + 1].cpuMicros - ticks[k].cpuMicros) /
                          done[k]);
    }
    c.throughputRps = quantile(rps, 0.5);
    c.cpuUsPerReq = quantile(cpu, 0.5);
    return c;
}

PhaseStats
openLoop(const Pool &pool, Tiers &tiers, double seconds,
         std::uint64_t seed)
{
    LoadOptions o;
    o.port = tiers.gatewayPort();
    o.rateRps = pool.spec->openRateRps;
    o.seconds = seconds;
    o.seed = seed;
    return runLoad(pool, o);
}

/** Append @p open's latencies to @p out in arrival (due-time) order. */
void
appendByArrival(const PhaseStats &open, std::vector<double> *out)
{
    std::vector<std::pair<double, double>> v;
    for (std::size_t i = 0; i < open.latencyUs.size(); ++i)
        v.push_back({open.dueAtS[i], open.latencyUs[i]});
    std::sort(v.begin(), v.end());
    for (const auto &x : v)
        out->push_back(x.second);
}

/** Cut @p lat (arrival order) into windows of kOpenWindowArrivals —
 *  the last one takes the remainder — and return the per-window
 *  quantile @p q. */
std::vector<double>
windowQuantiles(const std::vector<double> &lat, double q)
{
    const std::size_t n = static_cast<std::size_t>(kOpenWindowArrivals);
    const std::size_t windows = std::max<std::size_t>(1, lat.size() / n);
    std::vector<double> out;
    for (std::size_t w = 0; w < windows; ++w) {
        auto first = lat.begin() + static_cast<long>(w * n);
        auto last = w + 1 == windows ? lat.end() : first + static_cast<long>(n);
        out.push_back(quantile(std::vector<double>(first, last), q));
    }
    return out;
}

/** Mean over classes of the observed wire simCycles (the paper's T). */
double
wireCyclesPerReq(const PhaseStats &p)
{
    std::vector<double> per_class;
    for (std::size_t c = 0; c < p.cyclesSum.size(); ++c)
        if (p.cyclesCount[c] > 0)
            per_class.push_back(p.cyclesSum[c] / p.cyclesCount[c]);
    return mean(per_class);
}

/** What one fresh stack measured. */
struct StackRun
{
    /** Set-up wall time, and the share of it the hypervisor stole. */
    double setupWallS = 0;
    double setupSteal = 0;
    double throughputRps = 0;
    double cpuUsPerReq = 0;
    double peakRssMb = 0;
    /** Open-loop latencies in arrival order. */
    std::vector<double> latencyUs;
    double lagP99Us = 0;
    /** Share of the host's CPU time the hypervisor stole while the
     *  stack ran, percent. */
    double stealPct = 0;
};

void
runEndToEnd(const Args &args, const Pool &pool, const std::string &exe,
            Report *rep)
{
    // Each stack gets an equal share of the run: a closed loop, then
    // an open loop. Which cores a fresh stack's threads land on moves
    // its throughput by several percent, so figures are medians over
    // stacks. On a shared host the hypervisor steals CPU in bursts of
    // seconds to minutes, and a stack measured through a burst is
    // measuring the neighbours; the run keeps the kKeptStacks stacks
    // with the least steal. The choice reads only /proc/stat, never
    // the figures themselves.
    const double phase = args.seconds / (2 * kStacks);
    std::vector<StackRun> runs;
    PhaseStats all;
    for (int k = 0; k < kStacks; ++k) {
        StackRun r;
        auto j0 = hostJiffies();
        std::unique_ptr<Tiers> tiers =
            setUp(exe, pool, false, &r.setupWallS);
        r.setupSteal = stealShare(j0, hostJiffies());
        if (k == 0 && args.corruptOne)
            corruptNextResponse();
        Closed closed = closedLoop(pool, *tiers, phase);
        // Peak RSS is read after the closed loop, whose outstanding
        // work is bounded; an open-loop queueing burst would make it
        // a measure of the burst instead of the stack.
        TierUsage mem;
        if (!tiers->usage(&mem))
            SAP_FATAL("perfbench: serving child stopped answering");
        PhaseStats open = openLoop(pool, *tiers, phase,
                                   args.seed * kStacks + k);
        if (!tiers->stop())
            SAP_FATAL("perfbench: serving child did not exit cleanly");
        auto j1 = hostJiffies();

        r.stealPct = 100.0 * stealShare(j0, j1);
        r.throughputRps = closed.throughputRps;
        r.cpuUsPerReq = closed.cpuUsPerReq;
        r.peakRssMb = mem.peakRssKib / 1024.0;
        appendByArrival(open, &r.latencyUs);
        r.lagP99Us = quantile(open.lagUs, 0.99);
        runs.push_back(std::move(r));
        // Every answer of every stack counts toward correctness.
        rep->addPhase(closed.phase);
        rep->addPhase(open);
        all.merge(closed.phase);
        all.merge(open);
    }

    auto list = [](const std::vector<double> &v) {
        std::string out;
        for (double x : v)
            out += (out.empty() ? "" : " ") + num(x);
        return out;
    };
    // Set-up is CPU-bound (spawn, then the warm pass saturates the
    // host), so time stolen during it stretches it in proportion: each
    // set-up counts the time the stack itself needed. With the steal
    // taken out, every stack's set-up counts toward the median.
    std::vector<double> steal_all, setup, setup_wall, setup_steal;
    for (const StackRun &r : runs) {
        steal_all.push_back(r.stealPct);
        setup.push_back(r.setupWallS * (1.0 - r.setupSteal));
        setup_wall.push_back(r.setupWallS);
        setup_steal.push_back(100.0 * r.setupSteal);
    }
    std::stable_sort(runs.begin(), runs.end(),
                     [](const StackRun &a, const StackRun &b) {
                         return a.stealPct < b.stealPct;
                     });
    runs.resize(kKeptStacks);

    std::vector<double> rps, cpu, rss, lat, lag, steal;
    for (const StackRun &r : runs) {
        rps.push_back(r.throughputRps);
        cpu.push_back(r.cpuUsPerReq);
        rss.push_back(r.peakRssMb);
        lat.insert(lat.end(), r.latencyUs.begin(), r.latencyUs.end());
        lag.push_back(r.lagP99Us);
        steal.push_back(r.stealPct);
    }
    const std::vector<double> p50 = windowQuantiles(lat, 0.5);
    const std::vector<double> p99 = windowQuantiles(lat, 0.99);
    rep->metrics = {
        {"setup_s", quantile(setup, 0.5), "s"},
        {"cpu_us_per_req", quantile(cpu, 0.5), "us"},
        {"peak_rss_mb", quantile(rss, 0.5), "MiB"},
        {"sim_cycles_per_req", wireCyclesPerReq(all), "cycles"},
        {"pe_utilization", pool.meanUtilization(), "frac"},
    };
    // Throughput and latency are printed on every run but are not
    // gated: on a shared host they fall by 40% or double whenever the
    // hypervisor steals CPU for minutes at a time, longer than a run
    // (see perfbench/README.md). The traced run reports them among the
    // per-layer metrics.
    rep->ungated = {
        {"throughput_rps", quantile(rps, 0.5), "1/s"},
        {"latency_p50_us", quantile(p50, 0.5), "us"},
        {"latency_p99_us", quantile(p99, 0.5), "us"},
    };
    rep->provenance.push_back(
        {"phases",
         std::to_string(kStacks) + " fresh stacks, each: closed loop " +
             num(phase) + " s (window " + std::to_string(kWindow) + " x " +
             std::to_string(kConnections) + " connections, median over " +
             num(kClosedSliceSeconds) + " s slices), then open loop " +
             num(phase) + " s (Poisson; percentiles per window of " +
             num(kOpenWindowArrivals) + " arrivals); metrics are medians " +
             "over the " + std::to_string(kKeptStacks) +
             " stacks with the least host steal, or over their windows; " +
             "setup_s over all " + std::to_string(kStacks) + " stacks"});
    rep->provenance.push_back({"host_steal_pct_per_stack", list(steal_all)});
    rep->provenance.push_back({"kept_steal_pct", list(steal)});
    rep->provenance.push_back({"setup_s_per_stack", list(setup)});
    rep->provenance.push_back({"setup_wall_s_per_stack", list(setup_wall)});
    rep->provenance.push_back(
        {"setup_steal_pct_per_stack", list(setup_steal)});
    rep->provenance.push_back({"kept_throughput_rps", list(rps)});
    rep->provenance.push_back(
        {"open_loop_windows", std::to_string(p99.size())});
    rep->provenance.push_back({"latency_p99_us_per_window", list(p99)});
    rep->provenance.push_back({"kept_open_loop_lag_p99_us", list(lag)});
}

/** Plan-cache hits and lookups, summed over every backend. */
PlanCacheStats
cacheStats(std::uint16_t gateway_port)
{
    NetClient c;
    ServerStats s;
    if (!c.connect("127.0.0.1", gateway_port) || !c.stats(&s))
        SAP_FATAL("perfbench: STATS through the gateway failed");
    return s.planCache;
}

MetricsSnapshot
metricsOf(std::uint16_t gateway_port)
{
    NetClient c;
    MetricsSnapshot m;
    if (!c.connect("127.0.0.1", gateway_port) || !c.metrics(&m))
        SAP_FATAL("perfbench: METRICS through the gateway failed");
    return m;
}

void
runLayers(const Args &args, const Pool &pool, const std::string &exe,
          Report *rep)
{
    const WorkloadSpec &spec = *pool.spec;
    Roofline roof = probeRoofline();

    // Untraced stack: throughput and latency bases, then the ledger.
    double setup = 0;
    std::unique_ptr<Tiers> tiers = setUp(exe, pool, false, &setup);
    if (args.corruptOne)
        corruptNextResponse();
    PlanCacheStats before = cacheStats(tiers->gatewayPort());
    Closed closed = closedLoop(pool, *tiers, args.seconds * 0.2);
    PhaseStats open = openLoop(pool, *tiers, args.seconds * 0.2, args.seed);
    PlanCacheStats after = cacheStats(tiers->gatewayPort());
    MetricsSnapshot plain_metrics = metricsOf(tiers->gatewayPort());
    LayerTimes lt = measureLayers(pool, tiers->gatewayPort(),
                                  tiers->backendPort(), args.seconds * 0.3);
    if (!tiers->stop())
        SAP_FATAL("perfbench: serving child did not exit cleanly");

    // Traced stack: every request committed at both tiers.
    tiers = setUp(exe, pool, true, &setup);
    Closed traced = closedLoop(pool, *tiers, args.seconds * 0.2);
    std::vector<RequestTrace> traces;
    {
        NetClient c;
        if (!c.connect("127.0.0.1", tiers->gatewayPort()) ||
            !c.traces(&traces, nullptr))
            SAP_FATAL("perfbench: TRACES through the gateway failed");
    }
    MetricsSnapshot traced_metrics = metricsOf(tiers->gatewayPort());
    if (!tiers->stop())
        SAP_FATAL("perfbench: serving child did not exit cleanly");

    rep->addPhase(closed.phase);
    rep->addPhase(open);
    rep->addPhase(traced.phase);
    rep->attempted += lt.attempted;
    rep->failed += lt.failed;
    if (rep->firstFailure.empty())
        rep->firstFailure = lt.firstFailure;

    TraceGaps gaps = analyzeTraces(traces);
    const std::size_t C = spec.classes.size();
    auto mix = [](const std::vector<double> &v) { return mean(v); };

    const double kernel = mix(lt.kernelOwnMode);
    const double cache = mix(lt.cacheStep);
    const double shard_self = mix(lt.shard) - cache - kernel;
    const double digest = mix(lt.digest);
    const double cluster_self = mix(lt.cluster) - mix(lt.shard) - digest;
    const double codec = mix(lt.codec);
    const double server_self = mix(lt.server) - mix(lt.cluster) - codec;
    const double hop = mix(lt.gateway) - mix(lt.server);
    const double ledger = kernel + cache + shard_self + digest +
                          cluster_self + codec + server_self + hop;
    const double loaded_p50 = quantile(open.latencyUs, 0.5);

    double macs = 0, kernel_us = 0, roof_sum = 0;
    for (std::size_t c = 0; c < C; ++c) {
        const RequestClass &rc = spec.classes[c];
        macs += denseMacs(rc);
        kernel_us += lt.kernelFast[c];
        const double achieved = denseMacs(rc) / (lt.kernelFast[c] * 1e3);
        const double bound =
            std::min(roof.peakGmacs,
                     roof.streamGBps * denseMacs(rc) / operandBytes(rc));
        roof_sum += achieved / bound;
    }
    std::vector<double> covered;
    for (double r : lt.cyclesVsFormula)
        if (r > 0)
            covered.push_back(r);

    const double hits = static_cast<double>(after.hits - before.hits);
    const double lookups =
        hits + static_cast<double>(after.misses - before.misses);
    auto counter = [](const MetricsSnapshot &m, const char *name) {
        auto it = m.counters.find(name);
        return it == m.counters.end() ? 0.0
                                      : static_cast<double>(it->second);
    };
    const double untraced_rps = closed.throughputRps;
    const double traced_rps = traced.throughputRps;

    rep->metrics = {
        {"gateway.hop_us_p50", hop, "us"},
        {"gateway.route_us_p50", gaps.routeP50, "us"},
        {"gateway.resubmits",
         counter(plain_metrics, "gateway_resubmits_total") +
             counter(traced_metrics, "gateway_resubmits_total"),
         "count"},
        {"net.server_self_us_p50", server_self, "us"},
        {"net.codec_us_p50", codec, "us"},
        {"net.request_bytes", lt.requestBytes, "bytes"},
        {"net.response_bytes", lt.responseBytes, "bytes"},
        {"net.writer_wait_us_p50", gaps.writerWaitP50, "us"},
        {"cluster.self_us_p50", cluster_self, "us"},
        {"serve.digest_us_p50", digest, "us"},
        {"serve.cache_lookup_us_p50", mix(lt.lookupHit), "us"},
        {"serve.plan_cache_hit_rate", lookups > 0 ? hits / lookups : 0,
         "frac"},
        {"serve.queue_wait_us_p50", gaps.queueWaitP50, "us"},
        {"serve.queue_wait_us_p99", gaps.queueWaitP99, "us"},
        {"serve.shard_self_us_p50", shard_self, "us"},
        {"dbt.prepare_us_p50", mix(lt.prepare), "us"},
        {"semantics.kernel_us_p50", mix(lt.kernelFast), "us"},
        {"semantics.gmacs", macs / (kernel_us * 1e3), "GMAC/s"},
        {"semantics.roofline_frac", roof_sum / static_cast<double>(C),
         "frac"},
        {"sim.simulate_us_p50", mix(lt.kernelSimulate), "us"},
        {"sim.host_ns_per_cycle", mix(lt.simNsPerCycle), "ns"},
        {"sim.cycles_vs_formula", mean(covered), "frac"},
        {"obs.trace_overhead_frac", 1.0 - traced_rps / untraced_rps, "frac"},
        {"throughput_rps", untraced_rps, "1/s"},
        {"latency_p50_us", quantile(open.latencyUs, 0.5), "us"},
        {"latency_p99_us", quantile(open.latencyUs, 0.99), "us"},
        {"loadgen.lag_p99_us", quantile(open.lagUs, 0.99), "us"},
        {"ledger.attributed_frac", ledger / loaded_p50, "frac"},
        {"failed_frac",
         static_cast<double>(rep->failed) /
             static_cast<double>(std::max<std::uint64_t>(1, rep->attempted)),
         "frac"},
    };

    // Human-readable detail: the ledger, the roofline base, and the
    // trace cross-checks against the outside timings.
    std::printf("ledger (unloaded, us per request, mean over %zu classes "
                "of per-class medians):\n",
                C);
    const std::pair<const char *, double> rows[] = {
        {"kernel (runPrepared, request's mode)", kernel},
        {"plan cache step", cache},
        {"shard self", shard_self},
        {"digest", digest},
        {"cluster self", cluster_self},
        {"codec (4 calls)", codec},
        {"net server self", server_self},
        {"gateway hop", hop},
    };
    for (const auto &r : rows)
        std::printf("  %-38s %10.2f\n", r.first, r.second);
    std::printf("  %-38s %10.2f  (= unloaded gateway round trip)\n",
                "sum", ledger);
    std::printf("  %-38s %10.2f  (open loop at %.0f req/s; the rest is "
                "queueing)\n",
                "loaded latency_p50_us", loaded_p50, spec.openRateRps);
    std::printf("roofline: STREAM triad %.2f GB/s, dense multiply-add peak "
                "%.2f GMAC/s (one thread, -march=%s); kernel bytes are "
                "computed from operand sizes, not measured\n",
                roof.streamGBps, roof.peakGmacs, PB_MARCH);
    for (std::size_t c = 0; c < C; ++c)
        std::printf("  class %-28s fast %9.2f us  simulate %10.2f us  "
                    "prepare %9.2f us  T/formula %s\n",
                    spec.classes[c].label().c_str(), lt.kernelFast[c],
                    lt.kernelSimulate[c], lt.prepare[c],
                    lt.cyclesVsFormula[c] > 0
                        ? num(lt.cyclesVsFormula[c]).c_str()
                        : "n/a");

    auto hist = traced_metrics.histograms.find("serve_queue_wait_micros");
    const double hist_p50 = hist == traced_metrics.histograms.end()
                                ? 0
                                : hist->second.quantile(0.5);
    // The rings keep the most recent traces, so the outside timing to
    // compare with is the client round trip of as many of the last
    // requests to complete.
    std::vector<std::pair<double, double>> by_done;
    for (std::size_t i = 0; i < traced.phase.latencyUs.size(); ++i)
        by_done.push_back({traced.phase.doneAtS[i], traced.phase.latencyUs[i]});
    std::sort(by_done.begin(), by_done.end());
    std::vector<double> last_rtt;
    for (std::size_t i = by_done.size() -
                         std::min(by_done.size(), gaps.gatewayTraces);
         i < by_done.size(); ++i)
        last_rtt.push_back(by_done[i].second);
    const double traced_client_p50 = quantile(last_rtt, 0.5);
    std::printf("traces: %zu gateway + %zu backend; queue wait p50 %.2f us "
                "(backend histogram over the stack's life: p50 %.2f us); "
                "gateway span p50 %.2f us vs client round trip p50 of the "
                "last %zu requests %.2f us: %s\n",
                gaps.gatewayTraces, gaps.backendTraces, gaps.queueWaitP50,
                hist_p50, gaps.gatewaySpanP50, last_rtt.size(),
                traced_client_p50,
                gaps.gatewaySpanP50 <= traced_client_p50 ? "consistent"
                                                         : "INCONSISTENT");
    rep->provenance.push_back(
        {"phases", "untraced closed loop " + num(args.seconds * 0.2) +
                       " s, open loop " + num(args.seconds * 0.2) +
                       " s, layer timings " + num(args.seconds * 0.3) +
                       " s, traced closed loop " + num(args.seconds * 0.2) +
                       " s"});
    rep->provenance.push_back({"stream_GBps", num(roof.streamGBps)});
    rep->provenance.push_back({"peak_GMACps", num(roof.peakGmacs)});
}

} // namespace

int
main(int argc, char **argv)
{
    std::signal(SIGPIPE, SIG_IGN);
    if (argc >= 2 && std::strcmp(argv[1], "--serve-tiers") == 0)
        return serveTiersMain(argc >= 3 &&
                              std::strcmp(argv[2], "--traced") == 0);

    const Args args = parseArgs(argc, argv);
    const WorkloadSpec *spec = findWorkload(args.workload);
    if (!spec)
        usageError("unknown workload '" + args.workload + "'");

    auto t0 = Clock::now();
    const Pool pool = buildPool(*spec, args.seed);
    const double oracle_s = secondsSince(t0);

    if (args.dumpStream) {
        for (std::size_t i = 0; i < pool.reqs.size(); ++i) {
            const PooledRequest &p = pool.reqs[i];
            std::printf("%zu %s %016llx\n", i,
                        spec->classes[static_cast<std::size_t>(p.cls)]
                            .label()
                            .c_str(),
                        static_cast<unsigned long long>(p.digest));
        }
        std::printf("stream %016llx\n",
                    static_cast<unsigned long long>(pool.streamDigest()));
        return 0;
    }

    Report rep;
    const char *commit = std::getenv("PERFBENCH_COMMIT");
    const char *source = std::getenv("PERFBENCH_SOURCE_SHA256");
    rep.provenance = {
        {"workload", args.workload},
        {"seed", std::to_string(args.seed)},
        {"seconds", num(args.seconds)},
        {"trace", std::to_string(args.trace)},
        {"commit", commit ? commit : "unknown"},
        {"source_sha256", source ? source : "unknown"},
        {"compiler", PB_COMPILER},
        {"build_type", PB_BUILD_TYPE},
        {"cxx_flags", PB_CXX_FLAGS},
        {"fp_contract", PB_FP_CONTRACT},
        {"march", PB_MARCH},
        {"cpu", cpuModel()},
        {"nproc", std::to_string(::sysconf(_SC_NPROCESSORS_ONLN))},
        {"pool_requests", std::to_string(pool.reqs.size())},
        {"stream_digest", [&] {
             char b[32];
             std::snprintf(b, sizeof b, "%016llx",
                           static_cast<unsigned long long>(
                               pool.streamDigest()));
             return std::string(b);
         }()},
        {"oracle_precompute_s", num(oracle_s)},
        {"open_rate_rps", num(spec->openRateRps)},
    };

    const std::string exe = selfExe();
    if (args.trace == 0)
        runEndToEnd(args, pool, exe, &rep);
    else
        runLayers(args, pool, exe, &rep);

    const bool correct = rep.failed == 0;
    if (!correct)
        rep.provenance.push_back({"first_failure", rep.firstFailure});
    for (const auto &kv : rep.provenance)
        std::printf("provenance %s = %s\n", kv.first.c_str(),
                    kv.second.c_str());
    if (args.trace == 0)
        rep.ungated.push_back(
            {"failed_frac",
             static_cast<double>(rep.failed) /
                 static_cast<double>(std::max<std::uint64_t>(1, rep.attempted)),
             "frac"});
    for (const std::vector<Metric> *set : {&rep.metrics, &rep.ungated})
        for (const Metric &m : *set)
            std::printf("metric %-28s %16.4f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
    if (!correct)
        std::printf("FAILED: %llu of %llu requests; first: %s\n",
                    static_cast<unsigned long long>(rep.failed),
                    static_cast<unsigned long long>(rep.attempted),
                    rep.firstFailure.c_str());

    std::ostringstream metrics;
    metrics << "{";
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
        const Metric &m = rep.metrics[i];
        metrics << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
                << num(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    metrics << "}";
    std::ostringstream result;
    result << "{\"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << rep.attempted
           << ", \"failed\": " << rep.failed
           << ", \"metrics\": " << metrics.str() << "}";

    if (!args.outDir.empty()) {
        ::mkdir(args.outDir.c_str(), 0755);
        std::string path = args.outDir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           std::to_string(args.trace) + ".json";
        std::ofstream f(path);
        f << "{\"provenance\": {";
        for (std::size_t i = 0; i < rep.provenance.size(); ++i)
            f << (i ? ", " : "") << "\"" << jsonEscape(rep.provenance[i].first)
              << "\": \"" << jsonEscape(rep.provenance[i].second) << "\"";
        f << "}, \"result\": " << result.str() << "}\n";
    }
    std::printf("%s\n", result.str().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
