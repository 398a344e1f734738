#include "net/server.hh"

#include <cerrno>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "base/logging.hh"
#include "obs/trace_export.hh"

namespace sap {

namespace {

/** Wait period; also bounds shutdown-flush latency and how long a
 *  closing connection can linger after its last response flushed. */
constexpr int kWaitTimeoutMs = 50;

/** Event-loop keys below this are reserved (0 = wake pipe,
 *  1 = listen socket); connection ids start above them. */
constexpr std::uint64_t kWakeKey = 0;
constexpr std::uint64_t kListenKey = 1;

/** Shutdown flush gives a slow client at most this many periods. */
constexpr int kMaxFlushSpins = 40; // ~2 s with kWaitTimeoutMs

bool
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::string
errnoString(const char *what)
{
    return std::string(what) + ": " + std::strerror(errno);
}

} // namespace

NetServer::NetServer(const Options &opts)
    : opts_(opts),
      net_metrics_(opts.metrics ? std::make_unique<MetricsRegistry>()
                                : nullptr),
      collector_(opts.trace, net_metrics_.get())
{
    if (net_metrics_) {
        inst_.bytesIn =
            &net_metrics_->counter("net_bytes_received_total");
        inst_.bytesOut =
            &net_metrics_->counter("net_bytes_sent_total");
        inst_.framesReceived =
            &net_metrics_->counter("net_frames_received_total");
        inst_.responsesSent =
            &net_metrics_->counter("net_responses_sent_total");
        inst_.protocolErrors =
            &net_metrics_->counter("net_protocol_errors_total");
        inst_.connectionsAccepted =
            &net_metrics_->counter("net_connections_accepted_total");
        inst_.connectionsLive =
            &net_metrics_->gauge("net_connections_live",
                                 GaugeAgg::Sum);
    }
}

NetServer::~NetServer()
{
    stop();
}

bool
NetServer::start()
{
    std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
    if (running_.load()) {
        error_ = "start() called twice";
        return false;
    }
    if (stopped_) {
        // stop() permanently shuts the completion queue down (its
        // writer may have late completions to drain); a stopped
        // server cannot be revived.
        error_ = "NetServer cannot be restarted after stop(); "
                 "construct a new instance";
        return false;
    }
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        error_ = errnoString("socket");
        return false;
    }
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(opts_.port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 64) != 0 || !setNonBlocking(listen_fd_)) {
        error_ = errnoString("bind/listen");
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0) {
        error_ = errnoString("getsockname");
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }
    port_ = ntohs(addr.sin_port);

    if (::pipe(wake_pipe_) != 0 || !setNonBlocking(wake_pipe_[0]) ||
        !setNonBlocking(wake_pipe_[1])) {
        error_ = errnoString("pipe");
        ::close(listen_fd_);
        listen_fd_ = -1;
        if (wake_pipe_[0] >= 0)
            ::close(wake_pipe_[0]);
        if (wake_pipe_[1] >= 0)
            ::close(wake_pipe_[1]);
        wake_pipe_[0] = wake_pipe_[1] = -1;
        return false;
    }

    // Admin plane comes up before the data-plane threads: if its
    // port cannot bind, start() fails with nothing left to unwind
    // but sockets. Its handlers tolerate the not-yet-serving state
    // (healthz answers "not serving" until serving_ flips below).
    if (opts_.adminEnabled) {
        health_ = std::make_unique<HealthModel>(opts_.health);
        FlightRecorderConfig rc;
        rc.intervalSeconds = opts_.samplerIntervalSeconds;
        rc.retainSamples = opts_.samplerRetainSamples;
        recorder_ = std::make_unique<FlightRecorder>(
            [this] { return metricsSnapshot(); }, rc);

        HttpAdminServer::Options admin_opts;
        admin_opts.port = opts_.adminPort;
        admin_ = std::make_unique<HttpAdminServer>(admin_opts);
        registerAdminRoutes(*admin_);
        if (!admin_->start()) {
            error_ = "admin: " + admin_->error();
            admin_.reset();
            recorder_.reset();
            health_.reset();
            ::close(listen_fd_);
            listen_fd_ = -1;
            ::close(wake_pipe_[0]);
            ::close(wake_pipe_[1]);
            wake_pipe_[0] = wake_pipe_[1] = -1;
            return false;
        }
        recorder_->start();
    }

    cluster_ = std::make_unique<Cluster>(opts_.cluster);
    reads_quiesced_ = false;
    flush_and_exit_.store(false);
    serving_.store(true);
    running_.store(true);
    io_thread_ = std::thread([this] { ioLoop(); });
    writer_thread_ = std::thread([this] { writerLoop(); });
    SAP_LOG_INFO("net server listening on 127.0.0.1:", port_, " (",
                 opts_.cluster.shards, " shards, tracing ",
                 collector_.enabled() ? "on" : "off", ")");
    return true;
}

void
NetServer::stop()
{
    std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
    bool expected = true;
    if (!running_.compare_exchange_strong(expected, false))
        return;
    stopped_ = true;

    // 0. Admin plane first: its threads call back into the cluster
    //    and queue surfaces torn down below. The objects stay alive
    //    (adminPort() remains answerable), only their threads stop.
    if (admin_)
        admin_->stop();
    if (recorder_)
        recorder_->stop();

    // 1. Stop accepting and reading; wait for the IO thread to
    //    acknowledge, so no submitToQueue() races the cluster drain.
    serving_.store(false);
    wakeIoThread();
    {
        std::unique_lock<std::mutex> lock(quiesce_mutex_);
        quiesce_cv_.wait(lock, [this] { return reads_quiesced_; });
    }

    // 2. Drain the cluster: every accepted request completes and its
    //    completion lands in queue_ (shards drain on destruction).
    //    Under cluster_mutex_, so a STATS snapshot the writer is
    //    taking right now finishes first.
    {
        std::lock_guard<std::mutex> lock(cluster_mutex_);
        cluster_.reset();
    }

    // 3. The writer converts the remaining completions to output
    //    buffers, then exits on the shutdown signal.
    queue_.shutdown();
    writer_thread_.join();

    // 4. Let the IO thread flush what clients will accept (bounded),
    //    then close everything.
    flush_and_exit_.store(true);
    wakeIoThread();
    io_thread_.join();

    ::close(listen_fd_);
    listen_fd_ = -1;
    ::close(wake_pipe_[0]);
    ::close(wake_pipe_[1]);
    wake_pipe_[0] = wake_pipe_[1] = -1;
    SAP_LOG_INFO("net server on port ", port_, " stopped");
}

NetServerStats
NetServer::netStats() const
{
    std::lock_guard<std::mutex> lock(stats_mutex_);
    return net_stats_;
}

MetricsSnapshot
NetServer::metricsSnapshot() const
{
    MetricsSnapshot snap;
    if (net_metrics_)
        snap = net_metrics_->snapshot();
    std::lock_guard<std::mutex> lock(cluster_mutex_);
    if (cluster_)
        snap.merge(cluster_->metricsSnapshot());
    return snap;
}

HealthReport
NetServer::evaluateHealth() const
{
    HealthInputs in;
    in.serving = serving_.load();
    in.queueDepth = static_cast<double>(queue_.size());
    {
        std::lock_guard<std::mutex> lock(cluster_mutex_);
        if (cluster_)
            in.queueDepth += cluster_->queueDepth();
    }
    {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        in.protocolErrors = net_stats_.protocolErrors;
    }
    if (recorder_)
        in.p99Micros =
            recorder_->latestValue("serve_latency_micros:p99");
    in.nowSeconds = monotonicSeconds();
    return health_->evaluate(in);
}

HealthReport
NetServer::healthReport() const
{
    if (!health_) {
        // No admin plane: degenerate always-healthy report keyed off
        // the lifecycle flag alone.
        HealthReport report;
        report.state = HealthState::Ok;
        report.live = true;
        report.ready = serving_.load();
        return report;
    }
    return evaluateHealth();
}

void
NetServer::registerAdminRoutes(HttpAdminServer &admin)
{
    admin.addHandler("/", [](const HttpRequest &) {
        HttpResponse resp;
        resp.contentType = "text/html; charset=utf-8";
        resp.body =
            "<!doctype html><title>sap admin</title>"
            "<h1>sap admin</h1><ul>"
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
    admin.addHandler("/metrics", [this](const HttpRequest &) {
        HttpResponse resp;
        resp.contentType = "text/plain; version=0.0.4; charset=utf-8";
        resp.body = renderPrometheus(metricsSnapshot());
        return resp;
    });
    admin.addHandler("/varz", [this](const HttpRequest &) {
        HttpResponse resp;
        resp.contentType = "application/json";
        resp.body = renderMetricsJson(metricsSnapshot());
        return resp;
    });
    admin.addHandler("/healthz", [this](const HttpRequest &) {
        const HealthReport report = evaluateHealth();
        HttpResponse resp;
        resp.status = report.live ? 200 : 503;
        resp.body = std::string(healthStateName(report.state));
        if (!report.reason.empty())
            resp.body += ": " + report.reason;
        resp.body += "\n";
        return resp;
    });
    admin.addHandler("/readyz", [this](const HttpRequest &) {
        const HealthReport report = evaluateHealth();
        HttpResponse resp;
        resp.status = report.ready ? 200 : 503;
        resp.body = std::string(report.ready ? "ready" : "not ready");
        if (!report.reason.empty())
            resp.body += ": " + report.reason;
        resp.body += "\n";
        return resp;
    });
    admin.addHandler("/tracez", [this](const HttpRequest &req) {
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
        std::vector<RequestTrace> traces =
            filterTraces(traceSnapshot(), min_us, kind);
        auto it = req.query.find("format");
        if (it != req.query.end() && it->second == "chrome") {
            resp.body = toChromeTraceJson(traces);
            // A download, not a page: chrome://tracing / Perfetto
            // load the saved file.
            resp.extraHeaders.emplace_back(
                "Content-Disposition",
                "attachment; filename=\"sap_trace.json\"");
        } else {
            resp.body = toTracezJson(traces,
                                     collector_.totalCommitted());
        }
        return resp;
    });
    admin.addHandler("/timeseriesz", [this](const HttpRequest &) {
        HttpResponse resp;
        resp.contentType = "application/json";
        resp.body = toTimeseriesJson(recorder_->snapshot());
        return resp;
    });
}

void
NetServer::wakeIoThread()
{
    std::uint8_t byte = 1;
    // Best-effort: a full pipe already guarantees a pending wake.
    [[maybe_unused]] ssize_t n =
        ::write(wake_pipe_[1], &byte, 1);
}

void
NetServer::forgetTags(std::uint64_t conn_id)
{
    std::lock_guard<std::mutex> lock(tags_mutex_);
    for (auto it = tags_.begin(); it != tags_.end();) {
        if (it->second.connId == conn_id)
            it = tags_.erase(it);
        else
            ++it;
    }
}

bool
NetServer::hasPendingTags(std::uint64_t conn_id)
{
    {
        std::lock_guard<std::mutex> lock(tags_mutex_);
        for (const auto &entry : tags_)
            if (entry.second.connId == conn_id)
                return true;
    }
    std::lock_guard<std::mutex> lock(stats_requests_mutex_);
    for (const PendingTag &req : stats_requests_)
        if (req.connId == conn_id)
            return true;
    return false;
}

void
NetServer::closeConnLocked(std::uint64_t conn_id)
{
    auto it = conns_.find(conn_id);
    if (it == conns_.end())
        return;
    loop_.remove(it->second->fd); // before close(): see EventLoop
    closing_conns_.erase(conn_id);
    ::close(it->second->fd);
    conns_.erase(it);
    if (inst_.connectionsLive)
        inst_.connectionsLive->add(-1);
    SAP_LOG_DEBUG("conn ", conn_id, " closed");
    // Completions still in flight for this connection are dropped
    // when the writer fails to find their tag mapping.
    forgetTags(conn_id);
}

bool
NetServer::enqueueOutput(std::uint64_t conn_id, OutFrame frame)
{
    {
        std::lock_guard<std::mutex> lock(conns_mutex_);
        auto it = conns_.find(conn_id);
        if (it == conns_.end())
            return false; // connection is gone; drop the frame
        it->second->out.push(std::move(frame));
        // The IO thread owns the event loop; ask it to pick up the
        // new write interest when the wake lands.
        interest_dirty_.push_back(conn_id);
    }
    wakeIoThread();
    return true;
}

void
NetServer::updateInterestLocked(std::uint64_t conn_id,
                                Connection &conn)
{
    const std::size_t queued = conn.out.queuedBytes();
    std::uint32_t mask = 0;
    // Backpressure: a client that is not reading its responses
    // stops being read from until its queued output drains.
    if (serving_.load() && !conn.closing &&
        queued <= opts_.maxQueuedOutputBytes)
        mask |= EventLoop::kRead;
    if (queued > 0)
        mask |= EventLoop::kWrite;
    if (mask != conn.interest) {
        loop_.set(conn.fd, mask, conn_id);
        conn.interest = mask;
    }
}

bool
NetServer::flushLocked(Connection &conn)
{
    const ssize_t n = conn.out.flush(conn.fd);
    if (n < 0)
        return false; // peer is gone
    if (n > 0 && inst_.bytesOut)
        inst_.bytesOut->add(static_cast<std::uint64_t>(n));
    return true;
}

void
NetServer::acceptReady()
{
    for (;;) {
        int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            if (errno != EAGAIN && errno != EWOULDBLOCK) {
                // Persistent failure (EMFILE/ENFILE...): the pending
                // connection keeps the listen socket readable, so
                // back off from polling it for a while instead of
                // spinning the IO thread hot.
                listen_backoff_ = 20; // ~1 s of poll periods
            }
            return;
        }
        if (!setNonBlocking(fd)) {
            ::close(fd);
            continue;
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        std::uint64_t conn_id;
        {
            std::lock_guard<std::mutex> lock(conns_mutex_);
            conn_id = next_conn_id_;
            auto [it, inserted] = conns_.emplace(
                next_conn_id_, std::make_unique<Connection>(
                                   fd, opts_.maxPayloadBytes));
            ++next_conn_id_;
            updateInterestLocked(conn_id, *it->second);
        }
        if (inst_.connectionsAccepted) {
            inst_.connectionsAccepted->add();
            inst_.connectionsLive->add(1);
        }
        SAP_LOG_DEBUG("conn ", conn_id, " accepted");
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++net_stats_.connectionsAccepted;
    }
}

bool
NetServer::readReady(std::uint64_t conn_id, Connection &conn)
{
    for (;;) {
        {
            std::lock_guard<std::mutex> lock(conns_mutex_);
            if (conn.closing)
                return true; // a malformed frame ended reading
        }
        ssize_t n = conn.decoder.receive(conn.fd);
        if (n > 0) {
            if (inst_.bytesIn)
                inst_.bytesIn->add(static_cast<std::uint64_t>(n));
            Frame frame;
            std::string err;
            for (;;) {
                FrameDecoder::Result res =
                    conn.decoder.next(&frame, &err);
                if (res == FrameDecoder::Result::NeedMore)
                    break;
                if (res == FrameDecoder::Result::Ok) {
                    handleFrame(conn_id, conn, frame);
                    continue;
                }
                // Frame-level violation: the stream cannot recover.
                // One ERROR frame, then close after the flush.
                {
                    std::lock_guard<std::mutex> lock(stats_mutex_);
                    ++net_stats_.protocolErrors;
                }
                if (inst_.protocolErrors)
                    inst_.protocolErrors->add();
                SAP_LOG_WARN("conn ", conn_id,
                             ": unrecoverable frame error: ", err);
                std::lock_guard<std::mutex> lock(conns_mutex_);
                conn.out.push(buildErrorFrame(0, err));
                conn.closing = true;
                return true;
            }
            continue;
        }
        if (n == 0) {
            // Peer finished writing; deliver what we owe, then close.
            std::lock_guard<std::mutex> lock(conns_mutex_);
            conn.closing = true;
            return true;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return true;
        if (errno == EINTR)
            continue;
        return false; // dead socket
    }
}

void
NetServer::handleFrame(std::uint64_t conn_id, Connection &conn,
                       const Frame &frame)
{
    {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++net_stats_.framesReceived;
    }
    if (inst_.framesReceived)
        inst_.framesReceived->add();
    const std::uint64_t tag = frame.header.tag;

    auto send_error = [&](const std::string &message) {
        {
            std::lock_guard<std::mutex> lock(stats_mutex_);
            ++net_stats_.protocolErrors;
        }
        if (inst_.protocolErrors)
            inst_.protocolErrors->add();
        SAP_LOG_DEBUG("conn ", conn_id, ": protocol error: ", message);
        std::lock_guard<std::mutex> lock(conns_mutex_);
        conn.out.push(buildErrorFrame(tag, message));
    };

    switch (frame.header.type) {
    case static_cast<std::uint16_t>(FrameType::Submit): {
        ServeRequest req;
        std::string err;
        if (!decodeSubmit(frame.payload, &req, &err)) {
            send_error(err);
            return;
        }
        // Tracing begins at the network boundary: the Decode stamp
        // anchors every later span to the IO thread's hand-off time.
        // A request carrying a propagated context adopts the edge's
        // sampling decision instead of rolling a local one.
        req.trace = req.traceContext.valid()
                        ? collector_.adopt(req.traceContext)
                        : collector_.begin();
        traceStamp(req.trace, TraceStage::Decode);
        std::uint64_t server_tag;
        {
            std::lock_guard<std::mutex> lock(tags_mutex_);
            server_tag = next_tag_++;
            tags_[server_tag] = {conn_id, tag};
        }
        cluster_->submitToQueue(std::move(req), &queue_, server_tag);
        return;
    }
    case static_cast<std::uint16_t>(FrameType::Forward): {
        // The gateway hop: a SUBMIT whose routing digest was already
        // computed one tier up. Same life cycle as SUBMIT; the
        // digest rides through to the shard plan cache.
        Digest digest = 0;
        ServeRequest req;
        std::string err;
        if (!decodeForward(frame.payload, &digest, &req, &err)) {
            send_error(err);
            return;
        }
        req.trace = req.traceContext.valid()
                        ? collector_.adopt(req.traceContext)
                        : collector_.begin();
        traceStamp(req.trace, TraceStage::Decode);
        std::uint64_t server_tag;
        {
            std::lock_guard<std::mutex> lock(tags_mutex_);
            server_tag = next_tag_++;
            tags_[server_tag] = {conn_id, tag};
        }
        cluster_->submitToQueue(std::move(req), &queue_, server_tag,
                                digest);
        return;
    }
    case static_cast<std::uint16_t>(FrameType::Ping): {
        // Echoed verbatim, payload included (protocol.hh contract).
        std::vector<std::uint8_t> echo =
            buildFrame(FrameType::Ping, tag, frame.payload);
        std::lock_guard<std::mutex> lock(conns_mutex_);
        conn.out.push(std::move(echo));
        return;
    }
    case static_cast<std::uint16_t>(FrameType::Stats): {
        // Empty payload = request (a snapshot in either direction is
        // harmless to serve again, so no payload check). The
        // snapshot + encode work is milliseconds on a loaded
        // installation, so it runs on the writer thread — the IO
        // thread only hands the request over via the tag-0 marker.
        {
            std::lock_guard<std::mutex> lock(stats_requests_mutex_);
            stats_requests_.push_back({conn_id, tag, SnapKind::Stats});
        }
        queue_.push({0, {}});
        return;
    }
    case static_cast<std::uint16_t>(FrameType::Metrics): {
        // Same hand-off discipline as STATS: the merged registry
        // snapshot is the writer thread's job.
        {
            std::lock_guard<std::mutex> lock(stats_requests_mutex_);
            stats_requests_.push_back(
                {conn_id, tag, SnapKind::Metrics});
        }
        queue_.push({0, {}});
        return;
    }
    case static_cast<std::uint16_t>(FrameType::Traces): {
        // Ring snapshots follow the STATS/METRICS hand-off: the
        // writer serializes them, the IO thread never stalls. This
        // is the scatter leg of the gateway's stitched /tracez.
        {
            std::lock_guard<std::mutex> lock(stats_requests_mutex_);
            stats_requests_.push_back(
                {conn_id, tag, SnapKind::Traces});
        }
        queue_.push({0, {}});
        return;
    }
    case static_cast<std::uint16_t>(FrameType::Response):
    case static_cast<std::uint16_t>(FrameType::Error):
        send_error("unexpected " + frameTypeName(frame.header.type) +
                   " frame from a client");
        return;
    default:
        send_error("unknown frame " + frameTypeName(frame.header.type));
        return;
    }
}

void
NetServer::ioLoop()
{
    SAP_ASSERT(loop_.valid(), "event loop creation failed (",
               EventLoop::backendName(), ")");
    loop_.set(wake_pipe_[0], EventLoop::kRead, kWakeKey);
    loop_.set(listen_fd_, EventLoop::kRead, kListenKey);
    int flush_spins = 0;
    bool was_serving = true;

    for (;;) {
        const bool serving = serving_.load();
        if (!serving && !reads_quiesced_) {
            std::lock_guard<std::mutex> lock(quiesce_mutex_);
            reads_quiesced_ = true;
            quiesce_cv_.notify_all();
        }
        const bool exiting = flush_and_exit_.load();

        // Listen-socket interest follows the serving flag and the
        // accept() backoff (see acceptReady()).
        if (serving && listen_backoff_ == 0) {
            loop_.set(listen_fd_, EventLoop::kRead, kListenKey);
        } else {
            loop_.remove(listen_fd_);
            if (listen_backoff_ > 0)
                --listen_backoff_;
        }

        bool any_output = false;
        {
            std::lock_guard<std::mutex> lock(conns_mutex_);
            // Interest masks are event-driven, not rebuilt per
            // wakeup: only connections somebody marked dirty (the
            // writer buffering a response, backpressure crossings)
            // are touched — unless the serving flag just flipped or
            // we are flushing to exit, which changes every mask.
            if (serving != was_serving || exiting) {
                for (auto &entry : conns_)
                    updateInterestLocked(entry.first, *entry.second);
            } else {
                for (std::uint64_t id : interest_dirty_) {
                    auto it = conns_.find(id);
                    if (it != conns_.end())
                        updateInterestLocked(id, *it->second);
                }
            }
            interest_dirty_.clear();
            was_serving = serving;

            // Close what is closing, fully flushed, AND owed
            // nothing: a client may pipeline SUBMITs and shutdown
            // its write side before reading — its responses are
            // still in flight in the cluster, so the connection must
            // survive until the writer has delivered (and we
            // flushed) them. Swept every wakeup (bounded by the
            // closing set, not the connection count) because the
            // final tag erase happens writer-side without a wake.
            for (auto it = closing_conns_.begin();
                 it != closing_conns_.end();) {
                auto cit = conns_.find(*it);
                if (cit == conns_.end()) {
                    it = closing_conns_.erase(it);
                    continue;
                }
                Connection &c = *cit->second;
                if (c.out.empty() && !hasPendingTags(*it)) {
                    std::uint64_t id = *it;
                    ++it;
                    closeConnLocked(id); // erases from closing_conns_
                } else {
                    ++it;
                }
            }

            if (exiting)
                for (const auto &entry : conns_)
                    any_output |= !entry.second->out.empty();
        }

        if (exiting) {
            if (!any_output || ++flush_spins > kMaxFlushSpins)
                break;
        }

        loop_.wait(kWaitTimeoutMs);

        for (const EventLoop::Ready &ev : loop_.ready()) {
            if (ev.key == kWakeKey) {
                std::uint8_t drain[256];
                while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
                }
                continue;
            }
            if (ev.key == kListenKey) {
                acceptReady();
                continue;
            }
            const std::uint64_t conn_id = ev.key;
            Connection *conn = nullptr;
            {
                std::lock_guard<std::mutex> lock(conns_mutex_);
                auto it = conns_.find(conn_id);
                if (it == conns_.end())
                    continue; // closed earlier in this batch
                conn = it->second.get();
            }
            // Only this thread erases connections, so the pointer
            // stays valid without holding the lock.
            if (ev.error) {
                std::lock_guard<std::mutex> lock(conns_mutex_);
                closeConnLocked(conn_id);
                continue;
            }
            bool alive = true;
            if (ev.writable) {
                std::lock_guard<std::mutex> lock(conns_mutex_);
                alive = flushLocked(*conn);
            }
            // Gated on `serving` (not just the installed interest):
            // both backends report hangup even when reads were not
            // asked for, and once this iteration acknowledged
            // quiesce, reading — and the submitToQueue it can
            // trigger — must not race stop()'s cluster teardown.
            if (alive && serving && (ev.readable || ev.hangup))
                alive = readReady(conn_id, *conn);
            std::lock_guard<std::mutex> lock(conns_mutex_);
            if (!alive) {
                closeConnLocked(conn_id);
                continue;
            }
            // Reading/flushing changed queued bytes (responses,
            // ping echoes, error frames) or set closing; reinstall
            // the mask and track closing conns for the sweep.
            updateInterestLocked(conn_id, *conn);
            if (conn->closing)
                closing_conns_.insert(conn_id);
        }
    }

    // Exit: close every remaining connection, and make sure stop()
    // never waits on a quiesce acknowledgement that already happened
    // implicitly (e.g. the loop broke on a poll failure).
    {
        std::lock_guard<std::mutex> lock(quiesce_mutex_);
        reads_quiesced_ = true;
        quiesce_cv_.notify_all();
    }
    std::lock_guard<std::mutex> lock(conns_mutex_);
    while (!conns_.empty())
        closeConnLocked(conns_.begin()->first);
}

void
NetServer::writerLoop()
{
    Completion c;
    while (queue_.next(&c)) {
        if (c.tag == 0) {
            // STATS/METRICS marker from the IO thread: snapshot,
            // encode, and deliver here so the poll loop never stalls
            // on it. The request is peeked, not popped, until the
            // frame is buffered — its deque entry is what keeps a
            // half-closed requester open (hasPendingTags).
            PendingTag stats_req;
            {
                std::lock_guard<std::mutex> lock(
                    stats_requests_mutex_);
                if (stats_requests_.empty())
                    continue;
                stats_req = stats_requests_.front();
            }
            if (stats_req.kind == SnapKind::Metrics) {
                // metricsSnapshot() takes cluster_mutex_ itself and
                // degrades to the wire-level half during shutdown —
                // still a well-formed frame, so always deliver.
                enqueueOutput(stats_req.connId,
                              buildMetricsFrame(stats_req.clientTag,
                                                metricsSnapshot()));
            } else if (stats_req.kind == SnapKind::Traces) {
                enqueueOutput(
                    stats_req.connId,
                    buildTracesFrame(stats_req.clientTag,
                                     collector_.snapshot(),
                                     collector_.totalCommitted()));
            } else {
                ServerStats stats;
                bool have = false;
                {
                    std::lock_guard<std::mutex> lock(cluster_mutex_);
                    if (cluster_) { // else: shutting down, drop it
                        stats = cluster_->statsSnapshot();
                        have = true;
                    }
                }
                if (have)
                    enqueueOutput(stats_req.connId,
                                  buildStatsFrame(stats_req.clientTag,
                                                  stats));
            }
            std::lock_guard<std::mutex> lock(stats_requests_mutex_);
            stats_requests_.pop_front();
            continue;
        }
        PendingTag pending;
        {
            std::lock_guard<std::mutex> lock(tags_mutex_);
            auto it = tags_.find(c.tag);
            if (it == tags_.end())
                continue; // connection died; drop the response
            pending = it->second;
            // NOT erased yet: the tag entry is what keeps the IO
            // thread from closing a half-closed (EOF'd) connection
            // that is still owed this response. Erase only after
            // the frame is in the connection's output buffer.
        }
        // WireResponse::of moves the response, so detach the trace
        // (and its outcome) first.
        std::shared_ptr<RequestTrace> trace = c.response.trace;
        if (trace) {
            trace->ok = c.response.ok;
            trace->stamp(TraceStage::WriterPop);
        }
        bool delivered = enqueueOutput(
            pending.connId,
            buildResponseFrame(pending.clientTag,
                               WireResponse::of(std::move(c.response))));
        {
            std::lock_guard<std::mutex> lock(tags_mutex_);
            tags_.erase(c.tag);
        }
        if (delivered) {
            if (inst_.responsesSent)
                inst_.responsesSent->add();
            std::lock_guard<std::mutex> lock(stats_mutex_);
            ++net_stats_.responsesSent;
        }
        // Flush = response bytes handed to the socket layer; the
        // commit decides sampled-or-slow and records stage spans.
        traceStamp(trace, TraceStage::Flush);
        collector_.finish(trace);
    }
}

} // namespace sap
