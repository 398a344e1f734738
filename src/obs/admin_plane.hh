/**
 * @file
 * The admin plane of a serving tier: one owner of the HealthModel,
 * the FlightRecorder and the HttpAdminServer, with the standard
 * routes built once for NetServer and the gateway alike.
 *
 *   /             index of the routes below
 *   /metrics      Prometheus text exposition of the tier's snapshot
 *   /varz         the same snapshot as JSON
 *   /healthz      liveness, 200 / 503 (obs/health.hh)
 *   /readyz       readiness, 200 / 503
 *   /tracez       committed traces as JSON; ?format=chrome downloads
 *                 them for Perfetto; ?min_us= and ?kind= filter
 *   /timeseriesz  the flight recorder's series (obs/timeseries.hh)
 *
 * A tier hands in what differs (AdminPlane::Sources): its metrics
 * snapshot, its health inputs, and its /tracez source and renderer —
 * NetServer renders its local rings, the gateway stitches its own
 * with every backend's.
 *
 * Disabled (AdminOptions::enabled off), the plane starts nothing and
 * healthReport() degrades to the tier's lifecycle: live, and ready
 * while serving.
 *
 * Thread-safety: start()/stop() belong to the tier's lifecycle
 * (serialized by it); the accessors are safe once start() returned.
 */

#ifndef SAP_OBS_ADMIN_PLANE_HH
#define SAP_OBS_ADMIN_PLANE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/health.hh"
#include "obs/http_admin.hh"
#include "obs/metrics.hh"
#include "obs/timeseries.hh"
#include "obs/trace_ring.hh"

namespace sap {

/** A tier's admin-plane settings. */
struct AdminOptions
{
    /**
     * Serve the admin plane on a second loopback port: curl,
     * Prometheus scrapers and load-balancer health checks reach the
     * routes listed in obs/admin_plane.hh. The binary METRICS/STATS
     * frames remain the data-plane path.
     */
    bool enabled = false;
    /** Admin TCP port; 0 binds an ephemeral port. */
    std::uint16_t port = 0;
    /** Health state machine thresholds (obs/health.hh). */
    HealthThresholds health;
    /** Flight recorder sample interval, seconds; the recorder (and
     *  its sampler thread) runs only while the plane is enabled. */
    double samplerIntervalSeconds = 1.0;
    /** Flight recorder ring capacity per series (300 × 1 s ≈ 5
     *  minutes of history at the default interval). */
    std::size_t samplerRetainSamples = 300;
};

/** One tier's admin plane (see file comment). */
class AdminPlane
{
  public:
    /** What the tier supplies. */
    struct Sources
    {
        /** "sap" or "sap gateway": titles the index page and names
         *  the Perfetto download. */
        std::string name;
        /** The snapshot /metrics, /varz and the recorder read. */
        std::function<MetricsSnapshot()> metrics;
        /** Lifecycle, queue depth and error count; the plane fills
         *  in the p99 and the time. */
        std::function<HealthInputs()> health;
        /** Recorder series whose newest value is the health p99. */
        std::string p99Series;
        /** The traces /tracez shows; sets the committed total. */
        std::function<std::vector<RequestTrace>(std::uint64_t *total)>
            traces;
        /** /tracez's JSON view of the filtered traces. */
        std::function<std::string(std::vector<RequestTrace> traces,
                                  std::uint64_t total)>
            renderTracez;
    };

    AdminPlane(const AdminOptions &opts, Sources sources);

    /** Calls stop(). */
    ~AdminPlane();

    AdminPlane(const AdminPlane &) = delete;
    AdminPlane &operator=(const AdminPlane &) = delete;

    /** Bind the admin port and start the HTTP and sampler threads
     *  (nothing when disabled). @return false with @p error set when
     *  the port cannot bind; nothing is left running. */
    bool start(std::string *error);

    /** Stop both threads; idempotent. The recorder stays readable. */
    void stop();

    /** The bound admin port (0 unless enabled and started). */
    std::uint16_t port() const { return http_ ? http_->port() : 0; }

    /** One health evaluation right now — what /healthz and /readyz
     *  serve (lifecycle only when disabled). */
    HealthReport healthReport() const;

    /** The flight recorder (null unless enabled and started). */
    const FlightRecorder *recorder() const { return recorder_.get(); }

  private:
    void addRoutes();

    AdminOptions opts_;
    Sources src_;
    std::unique_ptr<HealthModel> health_;
    std::unique_ptr<FlightRecorder> recorder_;
    std::unique_ptr<HttpAdminServer> http_;
};

} // namespace sap

#endif // SAP_OBS_ADMIN_PLANE_HH
