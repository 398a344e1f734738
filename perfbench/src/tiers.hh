/**
 * @file
 * The serving stack under test, in a child process of its own.
 *
 * One gateway in front of two NetServer backends, each a Cluster of
 * 2 shards × 1 worker with the default plan-cache capacity (64 per
 * shard), metrics on. The benchmark re-executes its own binary in
 * serve mode, so the child starts from a fresh address space: its
 * CPU time and peak RSS count the serving tiers alone, not the load
 * generator or the request pool.
 *
 * Control runs over two pipes. The child writes one line with its
 * ports once both backends are routable, then answers each "usage"
 * line with its CPU time and peak RSS, and shuts down cleanly when
 * its stdin reaches end of file.
 */

#ifndef PERFBENCH_TIERS_HH
#define PERFBENCH_TIERS_HH

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>

namespace perfbench {

/** Backends behind the gateway, and shards per backend. */
constexpr int kBackends = 2;
constexpr int kShardsPerBackend = 2;

/** Resource use of the serving process. */
struct TierUsage
{
    /** User + system CPU time of every thread, microseconds
     *  (getrusage). */
    double cpuMicros = 0;
    /** Peak resident set size since exec, KiB (VmHWM). */
    double peakRssKib = 0;
};

/** Parent-side handle on a running serving child. */
class Tiers
{
  public:
    /**
     * Spawn the child from @p self_exe and wait until the gateway
     * routes to both backends. @p traced turns on gateway and
     * backend tracing with every request committed (sampleEvery=1).
     * @return null with @p error set on failure.
     */
    static std::unique_ptr<Tiers> spawn(const std::string &self_exe,
                                        bool traced, std::string *error);

    /** Stops the child and waits for it. */
    ~Tiers();

    Tiers(const Tiers &) = delete;
    Tiers &operator=(const Tiers &) = delete;

    std::uint16_t gatewayPort() const { return gateway_port_; }
    /** Data port of backend 0 (for the direct round-trip probe). */
    std::uint16_t backendPort() const { return backend_port_; }

    /** Ask the child for its resource use; false if it is gone. */
    bool usage(TierUsage *out);

    /** Close the control pipe and reap the child; idempotent.
     *  @return true when it exited with status 0. */
    bool stop();

  private:
    Tiers() = default;

    pid_t pid_ = -1;
    int to_child_ = -1;
    int from_child_ = -1;
    std::uint16_t gateway_port_ = 0;
    std::uint16_t backend_port_ = 0;
};

/**
 * Body of the child (`perfbench --serve-tiers [--traced]`): run the
 * stack, serve the control protocol on stdin/stdout, return the
 * process exit code.
 */
int serveTiersMain(bool traced);

} // namespace perfbench

#endif // PERFBENCH_TIERS_HH
