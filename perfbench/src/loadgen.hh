/**
 * @file
 * The load generator: replays a request pool against a wire-protocol
 * port over a few connections, one thread each, and checks every
 * response against the pool's oracle answers.
 *
 * Two disciplines share one connection loop:
 *  - closed loop: each connection keeps a fixed window of requests
 *    outstanding and sends the next one as soon as a response lands;
 *  - open loop: each connection sends on its own Poisson schedule
 *    (the connections' schedules merge into one Poisson stream at
 *    the total rate), whatever the responses do. Latency is timed
 *    from when a request was due, so a stall charges every request
 *    queued behind it, and the lag between due and actual send time
 *    is reported separately.
 * Requests are pre-encoded; the generator only prepends a frame
 * header with a fresh tag. All connections draw from one shared
 * cursor over the pool, so the stream is the pool in order.
 */

#ifndef PERFBENCH_LOADGEN_HH
#define PERFBENCH_LOADGEN_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "workload.hh"

namespace perfbench {

/** Connections to the port under load, one thread each. */
constexpr int kConnections = 4;
/** Outstanding requests per connection in the closed loop. */
constexpr int kWindow = 8;

/** How one load phase is driven. */
struct LoadOptions
{
    std::uint16_t port = 0;
    /** Closed loop (kWindow outstanding per connection) or open. */
    bool closedLoop = false;
    /** Open loop: total Poisson arrival rate, req/s. */
    double rateRps = 0;
    /** Length of the sending window. */
    double seconds = 1;
    /** Stop sending after this many requests (0 = no cap). */
    std::uint64_t maxRequests = 0;
    /** Seeds the open-loop arrival schedule. */
    std::uint64_t seed = 1;
    /** When set, run on the calling thread as the window opens, every
     *  tickSeconds after that, and as it closes (before the drain) —
     *  resource readings at slice boundaries. */
    std::function<void()> atTick;
    double tickSeconds = 0;
};

/** What one phase observed. */
struct PhaseStats
{
    std::uint64_t attempted = 0;
    std::uint64_t succeeded = 0;
    /** ERROR frames, transport failures and wrong answers. */
    std::uint64_t failed = 0;
    /** Per successful request: latency in microseconds (from the due
     *  time in the open loop, from the send in the closed loop), when
     *  it was due and when it completed, in seconds since the window
     *  opened. */
    std::vector<double> latencyUs;
    std::vector<double> dueAtS;
    std::vector<double> doneAtS;
    /** Open loop: how late each request was sent, microseconds. */
    std::vector<double> lagUs;
    /** Per class: sum and count of the wire simCycles of successful
     *  responses. */
    std::vector<double> cyclesSum;
    std::vector<double> cyclesCount;
    /** The first failure's description ("" when none). */
    std::string firstFailure;

    /** Fold @p other into this (counts add, samples concatenate). */
    void merge(const PhaseStats &other);
};

/** Drive one phase of @p pool against opts.port (see file comment). */
PhaseStats runLoad(const Pool &pool, const LoadOptions &opts);

/**
 * Corrupt the result of the next checked response before it is
 * compared with the oracle: the self-test's proof that a wrong answer
 * is counted. Affects exactly one response.
 */
void corruptNextResponse();

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_HH
