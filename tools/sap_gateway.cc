/**
 * @file
 * Operator CLI that runs a gateway in the foreground: one front-door
 * port routing SUBMITs over a fleet of NetServer backends by plan
 * digest (net/gateway.hh), with failover, until SIGINT/SIGTERM.
 *
 * Backends are listed as PORT or HOST:PORT or HOST:PORT:ADMIN_PORT;
 * with an admin port the gateway probes that backend's /healthz
 * plane in addition to PING liveness, so an operator can drain a
 * backend by flipping its health without touching its socket.
 *
 * On exit (and every --stats-interval seconds while running) the
 * gateway's counters are printed: requests routed, responses
 * relayed, failovers, resubmits, errors returned, routable backends.
 *
 * --admin-port starts the embedded admin plane (/metrics, /varz,
 * /healthz, /readyz, /timeseriesz, and the stitched cross-tier
 * /tracez); --trace turns on edge head-sampled request tracing,
 * propagated to the backends over the FORWARD trace-context block.
 *
 * Usage:
 *   sap_gateway --backend SPEC [--backend SPEC ...]
 *               [--port P] [--admin-port P] [--stats-interval SECS]
 *               [--trace] [--sample-every N] [--slow-us MICROS]
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "net/gateway.hh"

using namespace sap;

namespace {

std::atomic<bool> g_stop{false};

void
onSignal(int)
{
    g_stop.store(true);
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --backend SPEC [--backend SPEC ...] [options]\n"
        "  --backend SPEC        PORT | HOST:PORT | "
        "HOST:PORT:ADMIN_PORT\n"
        "                        (repeat per backend; admin port "
        "enables\n"
        "                        /healthz probing of that backend)\n"
        "  --port P              client-facing port (default: "
        "ephemeral,\n"
        "                        printed on startup)\n"
        "  --stats-interval S    print counters every S seconds "
        "(default\n"
        "                        10; 0 = only on exit)\n"
        "  --admin-port P        serve the admin HTTP plane (incl. "
        "the\n"
        "                        stitched cross-tier /tracez) on P "
        "(0 =\n"
        "                        ephemeral, printed on startup)\n"
        "  --trace               head-sample request traces at the "
        "edge\n"
        "                        and propagate them to the backends\n"
        "  --sample-every N      trace 1 in N requests (default 64;\n"
        "                        1 = all)\n"
        "  --slow-us MICROS      always trace+warn requests slower "
        "than\n"
        "                        MICROS (default 0 = off)\n",
        argv0);
}

/** PORT | HOST:PORT | HOST:PORT:ADMIN_PORT → BackendAddr. */
bool
parseBackend(const std::string &spec, Gateway::BackendAddr *out)
{
    std::string host = "127.0.0.1", port_s = spec, admin_s;
    std::size_t colon = spec.find(':');
    if (colon != std::string::npos) {
        host = spec.substr(0, colon);
        port_s = spec.substr(colon + 1);
        std::size_t colon2 = port_s.find(':');
        if (colon2 != std::string::npos) {
            admin_s = port_s.substr(colon2 + 1);
            port_s = port_s.substr(0, colon2);
        }
    }
    char *end = nullptr;
    long port = std::strtol(port_s.c_str(), &end, 10);
    if (!end || *end || port <= 0 || port > 65535)
        return false;
    long admin = 0;
    if (!admin_s.empty()) {
        admin = std::strtol(admin_s.c_str(), &end, 10);
        if (!end || *end || admin <= 0 || admin > 65535)
            return false;
    }
    out->host = host.empty() ? "127.0.0.1" : host;
    out->port = static_cast<std::uint16_t>(port);
    out->adminPort = static_cast<std::uint16_t>(admin);
    return true;
}

void
printStats(const Gateway &gw, std::size_t fleet_size)
{
    GatewayStats s = gw.stats();
    std::printf("routed %llu  relayed %llu  failovers %llu  "
                "resubmits %llu  errors %llu  routable %zu/%zu\n",
                static_cast<unsigned long long>(s.requestsRouted),
                static_cast<unsigned long long>(s.responsesRelayed),
                static_cast<unsigned long long>(s.failovers),
                static_cast<unsigned long long>(s.resubmits),
                static_cast<unsigned long long>(s.errorsReturned),
                gw.routableBackends(), fleet_size);
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    Gateway::Options opts;
    int stats_interval = 10;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--backend") {
            const char *spec = next();
            Gateway::BackendAddr addr;
            if (!spec || !parseBackend(spec, &addr)) {
                std::fprintf(stderr, "bad --backend spec\n");
                usage(argv[0]);
                return 2;
            }
            opts.backends.push_back(addr);
        } else if (arg == "--port") {
            const char *p = next();
            if (!p) {
                usage(argv[0]);
                return 2;
            }
            opts.port = static_cast<std::uint16_t>(std::atoi(p));
        } else if (arg == "--stats-interval") {
            const char *p = next();
            if (!p) {
                usage(argv[0]);
                return 2;
            }
            stats_interval = std::atoi(p);
        } else if (arg == "--admin-port") {
            const char *p = next();
            if (!p) {
                usage(argv[0]);
                return 2;
            }
            opts.admin.enabled = true;
            opts.admin.port =
                static_cast<std::uint16_t>(std::atoi(p));
        } else if (arg == "--trace") {
            opts.trace.enabled = true;
        } else if (arg == "--sample-every") {
            const char *p = next();
            if (!p) {
                usage(argv[0]);
                return 2;
            }
            opts.trace.enabled = true;
            opts.trace.sampleEvery =
                static_cast<std::uint32_t>(std::atoi(p));
        } else if (arg == "--slow-us") {
            const char *p = next();
            if (!p) {
                usage(argv[0]);
                return 2;
            }
            opts.trace.enabled = true;
            opts.trace.slowMicros = std::atof(p);
        } else {
            usage(argv[0]);
            return arg == "--help" ? 0 : 2;
        }
    }
    if (opts.backends.empty()) {
        std::fprintf(stderr, "at least one --backend is required\n");
        usage(argv[0]);
        return 2;
    }

    Gateway gw(opts);
    if (!gw.start()) {
        std::fprintf(stderr, "gateway start failed: %s\n",
                     gw.error().c_str());
        return 1;
    }
    std::printf("gateway listening on 127.0.0.1:%u over %zu "
                "backends\n",
                gw.port(), opts.backends.size());
    if (opts.admin.enabled)
        std::printf("admin plane on 127.0.0.1:%u (curl /tracez for "
                    "stitched traces)\n",
                    gw.adminPort());
    std::fflush(stdout);

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    auto last_stats = std::chrono::steady_clock::now();
    while (!g_stop.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        if (stats_interval > 0 &&
            std::chrono::steady_clock::now() - last_stats >=
                std::chrono::seconds(stats_interval)) {
            printStats(gw, opts.backends.size());
            last_stats = std::chrono::steady_clock::now();
        }
    }
    std::printf("shutting down\n");
    printStats(gw, opts.backends.size());
    gw.stop();
    return 0;
}
