/**
 * @file
 * The per-layer cost ledger, measured from outside the program.
 *
 * Each layer is timed by calling its public entry point on the
 * workload's own requests, unloaded and one at a time:
 *
 *   kernel     SystolicEngine::runPrepared (Fast, Simulate)
 *   prepare    SystolicEngine::prepare (the cache-miss path)
 *   cache      PlanCache::prepare(engine, plan, digest)
 *   digest     planDigest
 *   shard      Shard::submit(req, digest) round trip
 *   cluster    Cluster::submit round trip
 *   codec      encode/decodeSubmit + encode/decodeResponse
 *   server     NetClient::submit straight to one NetServer backend
 *   gateway    NetClient::submit through the gateway
 *
 * Every layer walks the request stream from its start, after one
 * warm pass over the whole pool (the same warm-up the serving stack
 * gets), so the hot mixes hit every cache and the cold mix misses.
 * A layer's figure is the median per request class, averaged over
 * the classes — the mix serves them in equal shares. Increments are
 * differences of these figures, so they telescope: kernel + cache +
 * shard self + digest + cluster self + codec + server self + gateway
 * hop equals the unloaded gateway round trip exactly.
 *
 * The second half reads the program's own stage stamps: stitched
 * traces from a traced run give the gateway route time, the shard
 * queue wait and the writer wait.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace_ring.hh"
#include "workload.hh"

namespace perfbench {

/** Per-class medians (microseconds unless noted) of every layer. */
struct LayerTimes
{
    /** lookupHit is a plan-cache hit; cacheStep is the step the
     *  stack takes, the same hit on a pool that fits its caches and a
     *  miss on one that does not. */
    std::vector<double> digest, lookupHit, cacheStep, prepare;
    std::vector<double> kernelFast, kernelSimulate, kernelOwnMode;
    /** Host nanoseconds per simulated cycle. */
    std::vector<double> simNsPerCycle;
    /** Measured T / closed form; negative where no formula covers
     *  the engine. */
    std::vector<double> cyclesVsFormula;
    std::vector<double> codec, shard, cluster, server, gateway;
    /** Mean frame sizes over the pool, header included. */
    double requestBytes = 0;
    double responseBytes = 0;
    /** Requests whose answer was wrong on any in-process or direct
     *  path (counted into the run's failures). */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string firstFailure;
};

/**
 * Time every layer on @p pool's requests (see the file comment).
 * @p budget_seconds bounds the whole measurement; every class still
 * gets a few samples per layer.
 */
LayerTimes measureLayers(const Pool &pool, std::uint16_t gateway_port,
                         std::uint16_t backend_port,
                         double budget_seconds);

/** Host roofline: single-thread STREAM triad and dense FMA peak. */
struct Roofline
{
    double streamGBps = 0;
    double peakGmacs = 0;
};

/** Measure the host roofline (about a quarter of a second). */
Roofline probeRoofline();

/** Stage gaps read from a traced run's stitched traces. */
struct TraceGaps
{
    std::size_t gatewayTraces = 0;
    std::size_t backendTraces = 0;
    /** gw_decode → gw_forward: decode + digest + route. */
    double routeP50 = 0;
    /** gw_decode → gw_flush: the gateway's whole span. */
    double gatewaySpanP50 = 0;
    /** Route → Dequeue in the backend. */
    double queueWaitP50 = 0;
    double queueWaitP99 = 0;
    /** CqPush → WriterPop in the backend. */
    double writerWaitP50 = 0;
};

TraceGaps analyzeTraces(const std::vector<sap::RequestTrace> &traces);

/** Quantile @p q of @p v (nearest rank); 0 when empty. */
double quantile(std::vector<double> v, double q);

/** Mean of @p v; 0 when empty. */
double mean(const std::vector<double> &v);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
