/**
 * @file
 * Observability demo: end-to-end request tracing and the merged
 * metrics snapshot on a loopback serving installation.
 *
 * A NetServer runs with request tracing enabled (sampled, plus an
 * always-sample-slow threshold); concurrent clients push mixed
 * workloads through it. Afterwards the demo:
 *
 *  - fetches the installation-wide metrics with a METRICS frame
 *    (the same snapshot tools/sap_stats prints) and shows the key
 *    counters, queue-wait and latency quantiles from the exactly
 *    merged histograms, and the measured-vs-formula drift gauge;
 *
 *  - exports the committed traces as Chrome trace_event JSON
 *    (load obs_demo_trace.json in ui.perfetto.dev or
 *    chrome://tracing) and as CSV, and prints one sampled request's
 *    stage-by-stage span breakdown;
 *
 *  - scrapes the admin HTTP plane over loopback: a /metrics excerpt
 *    (with the equivalent curl command line), the flight recorder's
 *    /timeseriesz after a few sampler ticks, and a /healthz
 *    saturation drill on a deliberately starved one-worker server —
 *    watch it flip 200 -> 503 under a pipelined burst and recover
 *    to 200 once drained.
 *
 * Exits nonzero on any failure: transport errors, zero committed
 * traces, missing pipeline stages in the sampled traces, or a
 * metrics snapshot that disagrees with the request count. Set
 * SAP_EXAMPLE_TINY=1 to shrink the workload (ctest smoke target).
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "mat/generate.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "obs/trace_export.hh"

using namespace sap;

namespace {

/** Mixed-kind batch, seeds derived from (client, round). */
std::vector<ServeRequest>
makeBatch(int client, int round, Index s, Index w)
{
    std::uint64_t seed = 500 + 100 * static_cast<std::uint64_t>(client)
                         + static_cast<std::uint64_t>(round);
    std::vector<ServeRequest> batch;

    ServeRequest mv;
    mv.engine = "linear";
    mv.plan = EnginePlan::matVec(
        randomIntDense(s, s, seed), randomIntVec(s, seed + 1),
        randomIntVec(s, seed + 2), w);
    batch.push_back(std::move(mv));

    ServeRequest tri;
    tri.engine = "tri";
    tri.plan = EnginePlan::triSolve(
        randomUnitLowerTriangular(s, seed + 3),
        randomIntVec(s, seed + 4), w);
    batch.push_back(std::move(tri));

    return batch;
}

bool
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << content;
    return os.good();
}

std::uint64_t
counterOf(const MetricsSnapshot &snap, const std::string &name)
{
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

/** Minimal loopback HTTP GET: returns the status code (0 on
 *  transport failure) and fills @p body. What curl does, inline. */
int
httpGet(std::uint16_t port, const std::string &target,
        std::string *body)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return 0;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return 0;
    }
    const std::string req =
        "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
    std::size_t off = 0;
    while (off < req.size()) {
        ssize_t n = ::send(fd, req.data() + off, req.size() - off,
                           MSG_NOSIGNAL);
        if (n <= 0)
            break;
        off += static_cast<std::size_t>(n);
    }
    std::string resp;
    char buf[4096];
    for (;;) {
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        resp.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    if (resp.rfind("HTTP/1.1 ", 0) != 0 || resp.size() < 12)
        return 0;
    const int status = std::atoi(resp.c_str() + 9);
    const std::size_t headEnd = resp.find("\r\n\r\n");
    if (body)
        *body = headEnd == std::string::npos
                    ? std::string()
                    : resp.substr(headEnd + 4);
    return status;
}

/** The /healthz saturation drill: a one-worker server, a pipelined
 *  burst, and the 200 -> 503 -> 200 transition observed live. */
bool
healthzDrill(bool tiny)
{
    NetServer::Options opts;
    opts.cluster.shards = 1;
    opts.cluster.threadsPerShard = 1;
    opts.admin.enabled = true;
    opts.admin.health.degradedQueueDepth = 2;
    opts.admin.health.unhealthyQueueDepth = 8;
    NetServer server(opts);
    if (!server.start()) {
        std::printf("healthz drill server failed: %s\n",
                    server.error().c_str());
        return false;
    }
    std::printf("\nhealthz drill (1 shard x 1 worker, unhealthy at "
                "queue depth %.0f):\n",
                opts.admin.health.unhealthyQueueDepth);
    std::printf("  before burst:  GET /healthz -> %d\n",
                httpGet(server.adminPort(), "/healthz", nullptr));

    const int burstLen = tiny ? 96 : 192;
    const Index bs = 64;
    std::vector<ServeRequest> burst;
    for (int i = 0; i < burstLen; ++i) {
        std::uint64_t seed = 9000 + 3 * static_cast<std::uint64_t>(i);
        ServeRequest req;
        req.engine = "linear";
        req.plan = EnginePlan::matVec(randomIntDense(bs, bs, seed),
                                      randomIntVec(bs, seed + 1),
                                      randomIntVec(bs, seed + 2), 1);
        burst.push_back(std::move(req));
    }
    std::atomic<bool> done{false};
    std::thread submitter([&] {
        NetClient client;
        if (client.connect("127.0.0.1", server.port()))
            client.submitBatch(burst);
        done.store(true);
    });
    bool saw503 = false;
    std::string reason;
    for (int spin = 0; spin < 4000 && !saw503; ++spin) {
        std::string body;
        if (httpGet(server.adminPort(), "/healthz", &body) == 503) {
            saw503 = true;
            reason = body;
        }
        if (done.load())
            break;
    }
    submitter.join();
    if (saw503) {
        while (!reason.empty() && reason.back() == '\n')
            reason.pop_back();
        std::printf("  under burst:   GET /healthz -> 503 (%s)\n",
                    reason.c_str());
    } else {
        std::printf("  under burst:   never saw 503\n");
    }
    bool recovered = false;
    for (int spin = 0; spin < 4000 && !recovered; ++spin) {
        recovered =
            httpGet(server.adminPort(), "/healthz", nullptr) == 200;
        if (!recovered)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::printf("  after drain:   GET /healthz -> %d\n",
                recovered ? 200 : -1);
    server.stop();
    return saw503 && recovered;
}

} // namespace

int
main()
{
    const bool tiny = std::getenv("SAP_EXAMPLE_TINY") != nullptr;
    const int kClients = tiny ? 2 : 4;
    const int kRounds = tiny ? 4 : 16;
    const Index s = tiny ? 8 : 16;
    const Index w = 4;

    NetServer::Options opts;
    opts.cluster.shards = 2;
    opts.cluster.threadsPerShard = 2;
    opts.trace.enabled = true;
    opts.trace.sampleEvery = 4;    // 1-in-4: demo wants visible traces
    opts.trace.slowMicros = 50000; // always commit + warn-log >=50ms
    opts.admin.enabled = true;
    opts.admin.samplerIntervalSeconds = 0.1; // fast ticks for the demo
    NetServer server(opts);
    if (!server.start()) {
        std::printf("server failed to start: %s\n",
                    server.error().c_str());
        return 1;
    }
    std::printf("obs demo: 127.0.0.1:%u, %zu shards, tracing 1-in-%u "
                "(slow >= %.0fms always)\n",
                unsigned(server.port()), server.cluster().shardCount(),
                opts.trace.sampleEvery, opts.trace.slowMicros / 1e3);
    std::printf("admin plane: http://127.0.0.1:%u/ (metrics, healthz, "
                "tracez, timeseriesz)\n",
                unsigned(server.adminPort()));

    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            NetClient client;
            if (!client.connect("127.0.0.1", server.port())) {
                std::printf("client %d: %s\n", c,
                            client.lastError().c_str());
                ++failures;
                return;
            }
            for (int round = 0; round < kRounds; ++round)
                for (const NetClient::Result &r : client.submitBatch(
                         makeBatch(c, round, s, w)))
                    if (!r.transportOk || !r.response.ok) {
                        std::printf("client %d FAILED: %s%s\n", c,
                                    r.transportError.c_str(),
                                    r.response.error.c_str());
                        ++failures;
                    }
        });
    }
    for (std::thread &t : clients)
        t.join();
    const std::uint64_t expected =
        static_cast<std::uint64_t>(kClients) * kRounds * 2;

    // The merged metrics snapshot, over the wire.
    NetClient monitor;
    MetricsSnapshot snap;
    if (!monitor.connect("127.0.0.1", server.port()) ||
        !monitor.metrics(&snap)) {
        std::printf("METRICS fetch failed: %s\n",
                    monitor.lastError().c_str());
        return 1;
    }
    std::printf("\nmerged metrics (METRICS frame):\n");
    for (const char *name :
         {"serve_requests_total", "plan_cache_hits_total",
          "plan_cache_misses_total", "net_frames_received_total",
          "net_responses_sent_total"})
        std::printf("  %-28s %8llu\n", name,
                    static_cast<unsigned long long>(
                        counterOf(snap, name)));
    for (const char *name :
         {"serve_queue_wait_micros", "serve_latency_micros"}) {
        auto it = snap.histograms.find(name);
        if (it == snap.histograms.end())
            continue;
        std::printf("  %-28s n=%-6llu p50=%8.1fus p99=%8.1fus\n",
                    name,
                    static_cast<unsigned long long>(it->second.count),
                    it->second.quantile(0.5),
                    it->second.quantile(0.99));
    }
    auto drift = snap.gauges.find("serve_cycles_formula_drift");
    if (drift != snap.gauges.end())
        std::printf("  %-28s %8.4f (worst relative "
                    "measured-vs-formula cycle drift)\n",
                    "serve_cycles_formula_drift", drift->second.value);

    // Committed traces: export + one request's span breakdown.
    std::vector<RequestTrace> traces = server.traceSnapshot();
    std::printf("\ncommitted traces: %zu of %llu requests "
                "(1-in-%u sampling)\n",
                traces.size(),
                static_cast<unsigned long long>(expected),
                opts.trace.sampleEvery);
    if (!traces.empty()) {
        const RequestTrace &t = traces.front();
        std::printf("request %llu [%s] %s, %.1fus total:\n",
                    static_cast<unsigned long long>(t.requestId),
                    t.label.c_str(),
                    t.cacheHit ? "cache hit" : "cache miss",
                    t.totalMicros());
        for (const TraceSpan &span : traceSpans(t))
            std::printf("  %-9s -> %-9s %10.1fus\n",
                        traceStageName(span.from),
                        traceStageName(span.to), span.micros);
    }

    // The admin plane: what an operator (or Prometheus) sees. The
    // same bytes, from a shell:  curl http://127.0.0.1:PORT/metrics
    std::string promText;
    const int promStatus =
        httpGet(server.adminPort(), "/metrics", &promText);
    std::printf("\nGET /metrics -> %d (curl http://127.0.0.1:%u"
                "/metrics); excerpt:\n",
                promStatus, unsigned(server.adminPort()));
    std::size_t shown = 0, pos = 0;
    while (shown < 6 && pos < promText.size()) {
        std::size_t eol = promText.find('\n', pos);
        const std::string line = promText.substr(pos, eol - pos);
        pos = eol == std::string::npos ? promText.size() : eol + 1;
        if (line.rfind("serve_", 0) == 0 && ++shown)
            std::printf("  %s\n", line.c_str());
    }

    // The flight recorder after a few 100 ms sampler ticks.
    const FlightRecorder *recorder = server.flightRecorder();
    for (int spin = 0; spin < 200; ++spin) {
        if (recorder && recorder->samplesTaken() >= 3)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    std::string tsBody;
    const int tsStatus =
        httpGet(server.adminPort(), "/timeseriesz", &tsBody);
    std::printf("GET /timeseriesz -> %d (%zu samples recorded, "
                "%zu bytes of JSON)\n",
                tsStatus, recorder ? recorder->samplesTaken() : 0,
                tsBody.size());

    const bool healthz_ok = healthzDrill(tiny);

    const char *dir = std::getenv("SAP_OBS_DEMO_DIR");
    const std::string base = dir ? std::string(dir) + "/" : "";
    bool wrote_json =
        writeFile(base + "obs_demo_trace.json",
                  toChromeTraceJson(traces));
    bool wrote_csv =
        writeFile(base + "obs_demo_trace.csv", toTraceCsv(traces));
    if (wrote_json)
        std::printf("\nwrote %sobs_demo_trace.json (load in "
                    "ui.perfetto.dev) and %sobs_demo_trace.csv\n",
                    base.c_str(), base.c_str());

    // Demo health: every request served and counted, traces
    // committed, and each committed trace crossed the full pipeline.
    bool traces_complete = !traces.empty();
    for (const RequestTrace &t : traces)
        for (TraceStage stage :
             {TraceStage::Decode, TraceStage::Route,
              TraceStage::Dequeue, TraceStage::Execute,
              TraceStage::Flush})
            traces_complete = traces_complete && t.nanosAt(stage) > 0;
    bool ok = failures.load() == 0 &&
              counterOf(snap, "serve_requests_total") == expected &&
              traces_complete && wrote_json && wrote_csv &&
              promStatus == 200 && tsStatus == 200 && healthz_ok;
    std::printf("%s\n", ok ? "all good" : "FAILURES detected");
    return ok ? 0 : 1;
}
