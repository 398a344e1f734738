#include "obs/admin_plane.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"
#include "obs/trace_export.hh"

namespace sap {

AdminPlane::AdminPlane(const AdminOptions &opts, Sources sources)
    : opts_(opts), src_(std::move(sources))
{
}

AdminPlane::~AdminPlane()
{
    stop();
}

bool
AdminPlane::start(std::string *error)
{
    if (!opts_.enabled)
        return true;
    health_ = std::make_unique<HealthModel>(opts_.health);
    FlightRecorderConfig rc;
    rc.intervalSeconds = opts_.samplerIntervalSeconds;
    rc.retainSamples = opts_.samplerRetainSamples;
    recorder_ = std::make_unique<FlightRecorder>(
        [this] { return src_.metrics(); }, rc);
    HttpAdminServer::Options http_opts;
    http_opts.port = opts_.port;
    http_ = std::make_unique<HttpAdminServer>(http_opts);
    addRoutes();
    if (!http_->start()) {
        *error = "admin: " + http_->error();
        http_.reset();
        recorder_.reset();
        health_.reset();
        return false;
    }
    recorder_->start();
    return true;
}

void
AdminPlane::stop()
{
    if (http_)
        http_->stop();
    if (recorder_)
        recorder_->stop();
}

HealthReport
AdminPlane::healthReport() const
{
    HealthInputs in = src_.health();
    if (!health_) {
        // No admin plane: a degenerate always-healthy report keyed
        // off the lifecycle alone.
        HealthReport report;
        report.state = HealthState::Ok;
        report.live = true;
        report.ready = in.serving;
        return report;
    }
    in.p99Micros = recorder_->latestValue(src_.p99Series);
    in.nowSeconds = monotonicSeconds();
    return health_->evaluate(in);
}

void
AdminPlane::addRoutes()
{
    HttpAdminServer &http = *http_;
    const std::string title = src_.name + " admin";
    http.addHandler("/", [title](const HttpRequest &) {
        HttpResponse resp;
        resp.contentType = "text/html; charset=utf-8";
        resp.body =
            "<!doctype html><title>" + title + "</title><h1>" + title +
            "</h1><ul>"
            "<li><a href=\"/metrics\">/metrics</a> — Prometheus "
            "text exposition</li>"
            "<li><a href=\"/healthz\">/healthz</a> — liveness "
            "(200/503)</li>"
            "<li><a href=\"/readyz\">/readyz</a> — readiness "
            "(200/503)</li>"
            "<li><a href=\"/tracez\">/tracez</a> — recent request "
            "traces (<a href=\"/tracez?format=chrome\">Perfetto "
            "format</a>)</li>"
            "<li><a href=\"/varz\">/varz</a> — full metrics "
            "snapshot as JSON</li>"
            "<li><a href=\"/timeseriesz\">/timeseriesz</a> — "
            "flight-recorder time series</li>"
            "</ul>";
        return resp;
    });
    http.addHandler("/metrics", [this](const HttpRequest &) {
        HttpResponse resp;
        resp.contentType = "text/plain; version=0.0.4; charset=utf-8";
        resp.body = renderPrometheus(src_.metrics());
        return resp;
    });
    http.addHandler("/varz", [this](const HttpRequest &) {
        HttpResponse resp;
        resp.contentType = "application/json";
        resp.body = renderMetricsJson(src_.metrics());
        return resp;
    });
    http.addHandler("/healthz", [this](const HttpRequest &) {
        const HealthReport report = healthReport();
        HttpResponse resp;
        resp.status = report.live ? 200 : 503;
        resp.body = std::string(healthStateName(report.state));
        if (!report.reason.empty())
            resp.body += ": " + report.reason;
        resp.body += "\n";
        return resp;
    });
    http.addHandler("/readyz", [this](const HttpRequest &) {
        const HealthReport report = healthReport();
        HttpResponse resp;
        resp.status = report.ready ? 200 : 503;
        resp.body = std::string(report.ready ? "ready" : "not ready");
        if (!report.reason.empty())
            resp.body += ": " + report.reason;
        resp.body += "\n";
        return resp;
    });
    std::string download = src_.name + "_trace.json";
    std::replace(download.begin(), download.end(), ' ', '_');
    http.addHandler("/tracez", [this, download](const HttpRequest &req) {
        HttpResponse resp;
        resp.contentType = "application/json";
        std::uint64_t min_us = 0;
        std::string kind, parse_err;
        if (!parseTraceQuery(req.query, &min_us, &kind, &parse_err)) {
            resp.status = 400;
            resp.contentType = "text/plain; charset=utf-8";
            resp.body = parse_err + "\n";
            return resp;
        }
        std::uint64_t total = 0;
        std::vector<RequestTrace> traces =
            filterTraces(src_.traces(&total), min_us, kind);
        auto it = req.query.find("format");
        if (it != req.query.end() && it->second == "chrome") {
            // A download, not a page: chrome://tracing / Perfetto
            // load the saved file.
            resp.body = toChromeTraceJson(traces);
            resp.extraHeaders.emplace_back(
                "Content-Disposition",
                "attachment; filename=\"" + download + "\"");
        } else {
            resp.body = src_.renderTracez(std::move(traces), total);
        }
        return resp;
    });
    http.addHandler("/timeseriesz", [this](const HttpRequest &) {
        HttpResponse resp;
        resp.contentType = "application/json";
        resp.body = toTimeseriesJson(recorder_->snapshot());
        return resp;
    });
}

} // namespace sap
