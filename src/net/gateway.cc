#include "net/gateway.hh"

#include <cerrno>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "base/logging.hh"
#include "engine/engine.hh"
#include "net/client.hh"
#include "obs/trace_export.hh"
#include "serve/server_stats.hh"

namespace sap {

namespace {

/** Wait period; bounds ping/reconnect tick granularity too. */
constexpr int kWaitTimeoutMs = 50;

/** Event-loop key layout: 0 = wake pipe, 1 = listen socket,
 *  kBackendKeyBase + i = backend i, client ids from next_conn_id_. */
constexpr std::uint64_t kWakeKey = 0;
constexpr std::uint64_t kListenKey = 1;
constexpr std::uint64_t kBackendKeyBase = 2;

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

/** " trace=<32hex>" when @p ctx is valid, "" otherwise — the log ↔
 *  trace correlation suffix for failover/resubmit lines. */
std::string
traceSuffix(const TraceContext &ctx)
{
    return ctx.valid() ? " trace=" + traceIdHex(ctx) : std::string();
}

} // namespace

//----------------------------------------------------------------------
// Lifecycle.
//----------------------------------------------------------------------

Gateway::Gateway(const Options &opts)
    : opts_(opts),
      metrics_(opts.metrics ? std::make_unique<MetricsRegistry>()
                            : nullptr),
      collector_(opts.trace, metrics_.get())
{
    SAP_ASSERT(!opts_.backends.empty(),
               "gateway needs at least one backend");
    if (metrics_) {
        inst_.requests = &metrics_->counter("gateway_requests_total");
        inst_.relayed =
            &metrics_->counter("gateway_responses_relayed_total");
        inst_.failovers =
            &metrics_->counter("gateway_failovers_total");
        inst_.resubmits =
            &metrics_->counter("gateway_resubmits_total");
        inst_.errors = &metrics_->counter("gateway_errors_total");
        inst_.backendsRoutable = &metrics_->gauge(
            "gateway_backends_routable", GaugeAgg::Sum);
        inst_.clientsLive =
            &metrics_->gauge("gateway_clients_live", GaugeAgg::Sum);
        inst_.routeMicros =
            &metrics_->histogram("gateway_route_micros");
    }
    backends_.reserve(opts_.backends.size());
    for (std::size_t i = 0; i < opts_.backends.size(); ++i) {
        backends_.push_back(std::make_unique<Backend>(
            opts_.backends[i], opts_.maxPayloadBytes));
        if (metrics_)
            backends_.back()->inflightGauge = &metrics_->gauge(
                "gateway_backend_inflight_" + std::to_string(i),
                GaugeAgg::Sum);
    }
}

Gateway::~Gateway()
{
    stop();
}

bool
Gateway::start()
{
    std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
    if (running_.load()) {
        error_ = "start() called twice";
        return false;
    }
    if (stopped_) {
        error_ = "Gateway cannot be restarted after stop(); "
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
        // Front-door backlog: a reconnect storm (every client of a
        // restarted fleet at once) must queue, not shed SYNs onto
        // 1-second client retry timers. Clamped to somaxconn by the
        // kernel.
        ::listen(listen_fd_, 1024) != 0 ||
        !setNonBlocking(listen_fd_)) {
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

    // Client ids must stay clear of the backend key range.
    next_conn_id_ = std::max<std::uint64_t>(
        16, kBackendKeyBase + backends_.size());

    // Admin plane before the IO thread (as NetServer): if its port
    // cannot bind, start() fails with only sockets to unwind.
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

    exiting_.store(false);
    running_.store(true);
    io_thread_ = std::thread([this] { ioLoop(); });

    bool any_admin = false;
    for (const auto &b : backends_)
        any_admin |= b->addr.adminPort != 0;
    if (any_admin && opts_.healthzIntervalMs > 0)
        prober_thread_ = std::thread([this] { proberLoop(); });

    SAP_LOG_INFO("gateway listening on 127.0.0.1:", port_, " over ",
                 backends_.size(), " backends (",
                 EventLoop::backendName(), ")");
    return true;
}

void
Gateway::stop()
{
    std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
    if (!running_.load())
        return;
    // Admin plane first: its /tracez handler round-trips through the
    // still-live data plane; stopping it before the IO thread keeps
    // that path well-defined.
    if (admin_)
        admin_->stop();
    if (recorder_)
        recorder_->stop();
    exiting_.store(true);
    wakeIoThread();
    if (io_thread_.joinable())
        io_thread_.join();
    if (prober_thread_.joinable())
        prober_thread_.join();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    for (int i = 0; i < 2; ++i)
        if (wake_pipe_[i] >= 0) {
            ::close(wake_pipe_[i]);
            wake_pipe_[i] = -1;
        }
    running_.store(false);
    stopped_ = true;
}

void
Gateway::wakeIoThread()
{
    if (wake_pipe_[1] >= 0) {
        std::uint8_t b = 1;
        [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
    }
}

GatewayStats
Gateway::stats() const
{
    std::lock_guard<std::mutex> lock(stats_mutex_);
    return stats_;
}

MetricsSnapshot
Gateway::metricsSnapshot() const
{
    return metrics_ ? metrics_->snapshot() : MetricsSnapshot{};
}

//----------------------------------------------------------------------
// Backend liveness and the ring.
//----------------------------------------------------------------------

void
Gateway::rebuildRing()
{
    ring_map_.clear();
    for (std::size_t i = 0; i < backends_.size(); ++i)
        if (backends_[i]->routable)
            ring_map_.push_back(i);
    ring_ = ring_map_.empty()
                ? nullptr
                : std::make_unique<ConsistentHashRouter>(
                      ring_map_.size(), opts_.virtualNodesPerBackend);
    routable_count_.store(ring_map_.size());
    if (inst_.backendsRoutable)
        inst_.backendsRoutable->set(
            static_cast<double>(ring_map_.size()));
}

void
Gateway::tryConnect(std::size_t idx)
{
    Backend &b = *backends_[idx];
    const std::uint64_t key = kBackendKeyBase + idx;
    if (!b.conn.connectStart(b.addr.host, b.addr.port)) {
        b.reconnectWaitMs = opts_.reconnectIntervalMs;
        return;
    }
    loop_.set(b.conn.fd(), b.conn.desiredInterest(), key);
    if (b.conn.connected())
        sendLivenessPing(idx); // loopback can connect synchronously
}

void
Gateway::sendLivenessPing(std::size_t idx)
{
    Backend &b = *backends_[idx];
    b.pingTag = next_tag_++;
    b.pingOutstanding = true;
    b.conn.send(buildPingFrame(b.pingTag));
    updateBackendInterest(idx);
}

void
Gateway::updateBackendInterest(std::size_t idx)
{
    Backend &b = *backends_[idx];
    if (b.conn.fd() >= 0)
        loop_.set(b.conn.fd(), b.conn.desiredInterest(),
                  kBackendKeyBase + idx);
}

void
Gateway::backendUp(std::size_t idx)
{
    Backend &b = *backends_[idx];
    if (b.routable)
        return;
    b.routable = true;
    rebuildRing();
    SAP_LOG_INFO("gateway: backend ", idx, " (", b.addr.host, ":",
                 b.addr.port, ") routable, ring size ",
                 ring_map_.size());
}

void
Gateway::backendDown(std::size_t idx, const std::string &reason)
{
    Backend &b = *backends_[idx];
    const bool was_routable = b.routable;
    if (b.conn.fd() >= 0) {
        loop_.remove(b.conn.fd());
        b.conn.close();
    } else if (b.conn.state() == AsyncClient::State::Closed) {
        b.conn.close(); // reset Closed → Idle for the reconnect path
    }
    b.routable = false;
    b.pingOutstanding = false;
    b.missedPings = 0;
    b.reconnectWaitMs = opts_.reconnectIntervalMs;
    b.inflight = 0;
    if (b.inflightGauge)
        b.inflightGauge->set(0);

    if (was_routable) {
        SAP_LOG_WARN("gateway: backend ", idx, " down (", reason,
                     "); failing over");
        {
            std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.failovers;
        }
        if (inst_.failovers)
            inst_.failovers->add();
        rebuildRing();
    }

    // Release gather legs owed by this backend: the merge simply
    // proceeds without its part.
    for (auto it = gather_tags_.begin(); it != gather_tags_.end();) {
        if (it->second.backendIdx != idx) {
            ++it;
            continue;
        }
        std::uint64_t gather_id = it->second.gatherId;
        it = gather_tags_.erase(it);
        auto git = gathers_.find(gather_id);
        if (git != gathers_.end() && git->second.awaiting > 0) {
            --git->second.awaiting;
            finishGatherIfDone(gather_id);
        }
    }

    // Migrate the in-flight SUBMITs that were awaiting this backend:
    // serving is pure compute, so resubmission re-executes safely,
    // and the client sees at most one reply because the in-flight
    // entry is erased when the first response relays. A request out
    // of resubmit budget (or with nowhere to go) gets a clean ERROR
    // — clients never hang on a dead backend.
    std::vector<std::uint64_t> to_move;
    for (const auto &entry : inflight_)
        if (entry.second.backendIdx == idx)
            to_move.push_back(entry.first);
    for (std::uint64_t gwtag : to_move) {
        Inflight &fl = inflight_[gwtag];
        if (fl.resubmits < opts_.maxResubmits && ring_ != nullptr) {
            ++fl.resubmits;
            // The attempt counter rides the propagated context so
            // both tiers' traces record which delivery this was.
            fl.ctx.attempt =
                static_cast<std::uint8_t>(fl.resubmits);
            if (fl.trace)
                fl.trace->addEvent("resubmit attempt " +
                                   std::to_string(fl.resubmits));
            fl.backendIdx = ring_map_[ring_->shardFor(fl.digest)];
            Backend &nb = *backends_[fl.backendIdx];
            // The same payload buffer again, behind a fresh header.
            nb.conn.send(forwardFrame(gwtag, fl.digest, fl.submitPayload,
                                      fl.payloadOffset,
                                      fl.ctx.valid() ? &fl.ctx
                                                     : nullptr));
            ++nb.inflight;
            if (nb.inflightGauge)
                nb.inflightGauge->set(
                    static_cast<double>(nb.inflight));
            updateBackendInterest(fl.backendIdx);
            SAP_LOG_WARN("gateway: resubmitting request to backend ",
                         fl.backendIdx, " attempt ", fl.resubmits,
                         traceSuffix(fl.ctx));
            {
                std::lock_guard<std::mutex> lock(stats_mutex_);
                ++stats_.resubmits;
            }
            if (inst_.resubmits)
                inst_.resubmits->add();
        } else {
            Inflight fl_copy = std::move(fl);
            inflight_.erase(gwtag);
            SAP_LOG_WARN("gateway: resubmit budget spent after ",
                         fl_copy.resubmits, " tries",
                         traceSuffix(fl_copy.ctx));
            if (fl_copy.trace) {
                fl_copy.trace->addEvent("resubmit budget spent");
                fl_copy.trace->ok = false;
                collector_.finish(fl_copy.trace);
            }
            sendClientError(fl_copy.clientConnId, fl_copy.clientTag,
                            "backend failed (" + reason +
                                ") and the resubmit budget is spent");
        }
    }
}

void
Gateway::sendPings()
{
    for (std::size_t i = 0; i < backends_.size(); ++i) {
        Backend &b = *backends_[i];
        if (b.routable && !b.adminHealthy.load()) {
            backendDown(i, "healthz probe failed");
            continue;
        }
        if (!b.conn.connected())
            continue;
        if (b.pingOutstanding) {
            if (++b.missedPings >= opts_.pingMissLimit)
                backendDown(i, "ping timeout");
        } else {
            sendLivenessPing(i);
        }
    }
}

void
Gateway::tryReconnects(int elapsed_ms)
{
    for (std::size_t i = 0; i < backends_.size(); ++i) {
        Backend &b = *backends_[i];
        if (b.conn.fd() >= 0)
            continue; // connected or connecting
        b.reconnectWaitMs -= elapsed_ms;
        if (b.reconnectWaitMs > 0)
            continue;
        b.reconnectWaitMs = opts_.reconnectIntervalMs;
        if (b.conn.state() == AsyncClient::State::Closed)
            b.conn.close(); // reset to Idle
        tryConnect(i);
    }
}

//----------------------------------------------------------------------
// Client side.
//----------------------------------------------------------------------

void
Gateway::acceptReady()
{
    for (;;) {
        int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            if (errno != EAGAIN && errno != EWOULDBLOCK)
                listen_backoff_ = 20; // ~1 s of wait periods
            return;
        }
        if (!setNonBlocking(fd)) {
            ::close(fd);
            continue;
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        std::uint64_t conn_id = next_conn_id_++;
        auto [it, inserted] = conns_.emplace(
            conn_id,
            std::make_unique<ClientConn>(fd, opts_.maxPayloadBytes));
        updateClientInterest(conn_id, *it->second);
        if (inst_.clientsLive)
            inst_.clientsLive->add(1);
        {
            std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.connectionsAccepted;
        }
        SAP_LOG_DEBUG("gateway: conn ", conn_id, " accepted");
    }
}

void
Gateway::updateClientInterest(std::uint64_t conn_id, ClientConn &conn)
{
    const std::size_t queued = conn.out.queuedBytes();
    std::uint32_t mask = 0;
    if (!conn.closing && queued <= opts_.maxQueuedOutputBytes)
        mask |= EventLoop::kRead;
    if (queued > 0)
        mask |= EventLoop::kWrite;
    if (mask != conn.interest) {
        loop_.set(conn.fd, mask, conn_id);
        conn.interest = mask;
    }
}

void
Gateway::closeClientConn(std::uint64_t conn_id)
{
    auto it = conns_.find(conn_id);
    if (it == conns_.end())
        return;
    loop_.remove(it->second->fd);
    ::close(it->second->fd);
    conns_.erase(it);
    closing_conns_.erase(conn_id);
    if (inst_.clientsLive)
        inst_.clientsLive->add(-1);
    SAP_LOG_DEBUG("gateway: conn ", conn_id, " closed");
}

bool
Gateway::clientOwedWork(std::uint64_t conn_id) const
{
    for (const auto &entry : inflight_)
        if (entry.second.clientConnId == conn_id)
            return true;
    for (const auto &entry : gathers_)
        if (entry.second.clientConnId == conn_id)
            return true;
    return false;
}

void
Gateway::sendToClient(std::uint64_t conn_id, OutFrame frame)
{
    auto it = conns_.find(conn_id);
    if (it == conns_.end())
        return; // client went away; the reply is dropped
    ClientConn &conn = *it->second;
    conn.out.push(std::move(frame));
    updateClientInterest(conn_id, conn);
}

void
Gateway::sendClientError(std::uint64_t conn_id, std::uint64_t tag,
                         const std::string &message)
{
    {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.errorsReturned;
    }
    if (inst_.errors)
        inst_.errors->add();
    sendToClient(conn_id, buildErrorFrame(tag, message));
}

bool
Gateway::readReady(std::uint64_t conn_id, ClientConn &conn)
{
    for (;;) {
        if (conn.closing)
            return true;
        ssize_t n = conn.decoder.receive(conn.fd);
        if (n > 0) {
            for (;;) {
                Frame frame;
                std::string err;
                FrameDecoder::Result res =
                    conn.decoder.next(&frame, &err);
                if (res == FrameDecoder::Result::NeedMore)
                    break;
                if (res == FrameDecoder::Result::Ok) {
                    handleClientFrame(conn_id, conn,
                                      std::move(frame));
                    continue;
                }
                // Frame-level violation: ERROR, then close after
                // the flush (same policy as NetServer).
                SAP_LOG_WARN("gateway: conn ", conn_id,
                             ": unrecoverable frame error: ", err);
                sendClientError(conn_id, 0, err);
                conn.closing = true;
                return true;
            }
            continue;
        }
        if (n == 0) {
            conn.closing = true;
            return true;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return true;
        if (errno == EINTR)
            continue;
        return false;
    }
}

//----------------------------------------------------------------------
// Routing.
//----------------------------------------------------------------------

void
Gateway::routeSubmit(std::uint64_t conn_id, std::uint64_t client_tag,
                     Digest digest, SharedBytes payload,
                     std::size_t offset, const TraceContext &ctx,
                     std::shared_ptr<RequestTrace> trace)
{
    if (inst_.requests)
        inst_.requests->add();
    {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.requestsRouted;
    }
    if (ring_ == nullptr) {
        sendClientError(conn_id, client_tag, "no routable backend");
        if (trace) {
            trace->ok = false;
            collector_.finish(trace);
        }
        return;
    }
    const std::size_t idx = ring_map_[ring_->shardFor(digest)];
    traceStamp(trace, TraceStage::Route);
    const std::uint64_t gwtag = next_tag_++;
    Backend &b = *backends_[idx];
    b.conn.send(forwardFrame(gwtag, digest, payload, offset,
                             ctx.valid() ? &ctx : nullptr));
    traceStamp(trace, TraceStage::Dequeue); // "gw_forward"
    ++b.inflight;
    if (b.inflightGauge)
        b.inflightGauge->set(static_cast<double>(b.inflight));
    updateBackendInterest(idx);
    Inflight fl;
    fl.clientConnId = conn_id;
    fl.clientTag = client_tag;
    fl.backendIdx = idx;
    fl.digest = digest;
    fl.submitPayload = std::move(payload);
    fl.payloadOffset = offset;
    fl.start = std::chrono::steady_clock::now();
    fl.ctx = ctx;
    fl.trace = std::move(trace);
    inflight_.emplace(gwtag, std::move(fl));
}

void
Gateway::startGather(std::uint64_t conn_id, std::uint64_t client_tag,
                     Gather::Kind kind)
{
    const std::uint64_t gather_id = next_gather_id_++;
    Gather g;
    g.clientConnId = conn_id;
    g.clientTag = client_tag;
    g.kind = kind;
    if (kind == Gather::Kind::Metrics)
        g.metricsMerged = metricsSnapshot();
    if (kind == Gather::Kind::Traces) {
        // Seed with the gateway's own rings; backend parts append.
        g.tracesMerged = collector_.snapshot();
        g.tracesTotal = collector_.totalCommitted();
    }
    for (std::size_t i = 0; i < backends_.size(); ++i) {
        Backend &b = *backends_[i];
        if (!b.routable)
            continue;
        const std::uint64_t gwtag = next_tag_++;
        gather_tags_[gwtag] = {gather_id, i};
        b.conn.send(kind == Gather::Kind::Metrics
                        ? buildMetricsRequestFrame(gwtag)
                    : kind == Gather::Kind::Traces
                        ? buildTracesRequestFrame(gwtag)
                        : buildStatsRequestFrame(gwtag));
        updateBackendInterest(i);
        ++g.awaiting;
    }
    gathers_.emplace(gather_id, std::move(g));
    finishGatherIfDone(gather_id); // zero routable backends
}

void
Gateway::finishGatherIfDone(std::uint64_t gather_id)
{
    auto it = gathers_.find(gather_id);
    if (it == gathers_.end() || it->second.awaiting > 0)
        return;
    Gather g = std::move(it->second);
    gathers_.erase(it);
    std::vector<std::uint8_t> reply;
    switch (g.kind) {
    case Gather::Kind::Metrics:
        reply = buildMetricsFrame(g.clientTag, g.metricsMerged);
        break;
    case Gather::Kind::Traces:
        reply = buildTracesFrame(g.clientTag, g.tracesMerged,
                                 g.tracesTotal);
        break;
    case Gather::Kind::Stats:
        reply = buildStatsFrame(g.clientTag,
                                mergeServerStats(g.statsParts));
        break;
    }
    sendToClient(g.clientConnId, std::move(reply));
}

std::shared_ptr<RequestTrace>
Gateway::admitTrace(TraceContext *ctx, const SubmitView &req)
{
    // The edge owns the head-sampling decision: a request that
    // arrives without a context gets one minted here (sampled 1-in-N
    // by the gateway's counter); one that arrives with a context
    // keeps it — sampling is decided exactly once per request.
    if (!ctx->valid() && collector_.enabled())
        *ctx = makeTraceContext(collector_.headSample());
    std::shared_ptr<RequestTrace> trace = collector_.adopt(*ctx);
    if (trace) {
        trace->tier = TraceTier::Gateway;
        trace->label = req.engine;
        trace->kind = problemKindName(req.kind);
        trace->stamp(TraceStage::Decode);
    }
    return trace;
}

void
Gateway::handleClientFrame(std::uint64_t conn_id, ClientConn &conn,
                           Frame &&frame)
{
    (void)conn;
    const std::uint64_t tag = frame.header.tag;
    switch (frame.header.type) {
    case static_cast<std::uint16_t>(FrameType::Submit): {
        // Check with full wire strictness (bad payloads must not
        // reach a backend) and hash the operands where they lie; the
        // payload buffer itself relays behind a FORWARD header.
        SubmitView req;
        std::string err;
        if (!checkSubmit(frame.payload.data(), frame.payload.size(),
                         &req, &err)) {
            sendClientError(conn_id, tag, err);
            return;
        }
        const Digest digest = submitDigest(req);
        TraceContext ctx = req.traceContext;
        std::shared_ptr<RequestTrace> trace = admitTrace(&ctx, req);
        routeSubmit(conn_id, tag, digest,
                    std::make_shared<const std::vector<std::uint8_t>>(
                        std::move(frame.payload)),
                    0, ctx, std::move(trace));
        return;
    }
    case static_cast<std::uint16_t>(FrameType::Forward): {
        // A gateway one tier up already computed the digest: check
        // the embedded SUBMIT and route it, the old envelope skipped
        // by offset — rings of rings compose.
        Digest digest = 0;
        SubmitView req;
        std::size_t offset = 0;
        std::string err;
        if (!checkForward(frame.payload.data(), frame.payload.size(),
                          &digest, &req, &offset, &err)) {
            sendClientError(conn_id, tag, err);
            return;
        }
        TraceContext ctx = req.traceContext;
        std::shared_ptr<RequestTrace> trace = admitTrace(&ctx, req);
        routeSubmit(conn_id, tag, digest,
                    std::make_shared<const std::vector<std::uint8_t>>(
                        std::move(frame.payload)),
                    offset, ctx, std::move(trace));
        return;
    }
    case static_cast<std::uint16_t>(FrameType::Ping): {
        // Answered at the gateway: PING measures the front door.
        sendToClient(conn_id,
                     buildFrame(FrameType::Ping, tag, frame.payload));
        return;
    }
    case static_cast<std::uint16_t>(FrameType::Stats):
        startGather(conn_id, tag, Gather::Kind::Stats);
        return;
    case static_cast<std::uint16_t>(FrameType::Metrics):
        startGather(conn_id, tag, Gather::Kind::Metrics);
        return;
    case static_cast<std::uint16_t>(FrameType::Traces):
        startGather(conn_id, tag, Gather::Kind::Traces);
        return;
    default:
        sendClientError(conn_id, tag,
                        "unexpected " +
                            frameTypeName(frame.header.type) +
                            " frame at the gateway");
        return;
    }
}

//----------------------------------------------------------------------
// Backend frames.
//----------------------------------------------------------------------

void
Gateway::handleBackendFrame(std::size_t idx, Frame &&frame)
{
    Backend &b = *backends_[idx];
    const std::uint64_t tag = frame.header.tag;

    switch (frame.header.type) {
    case static_cast<std::uint16_t>(FrameType::Response):
    case static_cast<std::uint16_t>(FrameType::Error): {
        auto it = inflight_.find(tag);
        if (it == inflight_.end())
            return; // late duplicate after a failover: dropped
        Inflight fl = std::move(it->second);
        inflight_.erase(it);
        if (b.inflight > 0)
            --b.inflight;
        if (b.inflightGauge)
            b.inflightGauge->set(static_cast<double>(b.inflight));
        if (fl.trace) {
            fl.trace->stamp(TraceStage::WriterPop); // "gw_relay_pop"
            fl.trace->ok =
                frame.header.type ==
                static_cast<std::uint16_t>(FrameType::Response);
        }
        // Relay the payload buffer itself under the client's tag.
        sendToClient(fl.clientConnId,
                     relayFrame(static_cast<FrameType>(frame.header.type),
                                fl.clientTag, std::move(frame.payload)));
        if (fl.trace) {
            fl.trace->stamp(TraceStage::Flush); // "gw_flush"
            collector_.finish(fl.trace);
        }
        if (inst_.routeMicros)
            inst_.routeMicros->record(
                std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - fl.start)
                    .count());
        if (inst_.relayed)
            inst_.relayed->add();
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.responsesRelayed;
        return;
    }
    case static_cast<std::uint16_t>(FrameType::Ping): {
        if (b.pingOutstanding && tag == b.pingTag) {
            b.pingOutstanding = false;
            b.missedPings = 0;
            if (!b.routable && b.adminHealthy.load())
                backendUp(idx);
        }
        return;
    }
    case static_cast<std::uint16_t>(FrameType::Stats):
    case static_cast<std::uint16_t>(FrameType::Metrics):
    case static_cast<std::uint16_t>(FrameType::Traces): {
        auto it = gather_tags_.find(tag);
        if (it == gather_tags_.end())
            return;
        std::uint64_t gather_id = it->second.gatherId;
        gather_tags_.erase(it);
        auto git = gathers_.find(gather_id);
        if (git == gathers_.end())
            return;
        Gather &g = git->second;
        std::string err;
        if (g.kind == Gather::Kind::Metrics) {
            MetricsSnapshot part;
            if (decodeMetrics(frame.payload, &part, &err))
                g.metricsMerged.merge(part);
        } else if (g.kind == Gather::Kind::Traces) {
            std::vector<RequestTrace> part;
            std::uint64_t part_total = 0;
            if (decodeTraces(frame.payload, &part, &part_total,
                             &err)) {
                g.tracesTotal += part_total;
                for (RequestTrace &t : part)
                    g.tracesMerged.push_back(std::move(t));
            }
        } else {
            ServerStats part;
            if (decodeStats(frame.payload, &part, &err))
                g.statsParts.push_back(std::move(part));
        }
        if (g.awaiting > 0)
            --g.awaiting;
        finishGatherIfDone(gather_id);
        return;
    }
    default:
        // A backend speaking garbage frame types is suspect but not
        // fatal; liveness pings decide its fate.
        SAP_LOG_WARN("gateway: backend ", idx, " sent unexpected ",
                     frameTypeName(frame.header.type), " frame");
        return;
    }
}

//----------------------------------------------------------------------
// The IO loop.
//----------------------------------------------------------------------

void
Gateway::ioLoop()
{
    SAP_ASSERT(loop_.valid(), "event loop creation failed (",
               EventLoop::backendName(), ")");
    loop_.set(wake_pipe_[0], EventLoop::kRead, kWakeKey);
    loop_.set(listen_fd_, EventLoop::kRead, kListenKey);

    for (std::size_t i = 0; i < backends_.size(); ++i) {
        Backend &b = *backends_[i];
        const std::size_t idx = i;
        b.conn.onConnected = [this, idx] { sendLivenessPing(idx); };
        b.conn.onFrame = [this, idx](Frame &&frame) {
            handleBackendFrame(idx, std::move(frame));
        };
        tryConnect(i);
    }

    auto last_tick = std::chrono::steady_clock::now();
    auto last_ping = last_tick;

    while (!exiting_.load()) {
        if (listen_backoff_ == 0) {
            loop_.set(listen_fd_, EventLoop::kRead, kListenKey);
        } else {
            loop_.remove(listen_fd_);
            --listen_backoff_;
        }

        // Close what is closing, flushed, and owed nothing (a client
        // that pipelined SUBMITs and half-closed must survive until
        // its responses relay).
        for (auto it = closing_conns_.begin();
             it != closing_conns_.end();) {
            auto cit = conns_.find(*it);
            if (cit == conns_.end()) {
                it = closing_conns_.erase(it);
                continue;
            }
            ClientConn &c = *cit->second;
            if (c.out.empty() && !clientOwedWork(*it)) {
                std::uint64_t id = *it;
                ++it;
                closeClientConn(id); // erases from closing_conns_
            } else {
                ++it;
            }
        }

        loop_.wait(kWaitTimeoutMs);

        const auto now = std::chrono::steady_clock::now();
        const int elapsed_ms = static_cast<int>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - last_tick)
                .count());
        last_tick = now;
        if (now - last_ping >=
            std::chrono::milliseconds(opts_.pingIntervalMs)) {
            last_ping = now;
            sendPings();
        }
        tryReconnects(elapsed_ms);

        for (const EventLoop::Ready &ev : loop_.ready()) {
            if (ev.key == kWakeKey) {
                std::uint8_t drain[256];
                while (::read(wake_pipe_[0], drain, sizeof(drain)) >
                       0) {
                }
                continue;
            }
            if (ev.key == kListenKey) {
                acceptReady();
                continue;
            }
            if (ev.key >= kBackendKeyBase &&
                ev.key < kBackendKeyBase + backends_.size()) {
                const std::size_t idx = static_cast<std::size_t>(
                    ev.key - kBackendKeyBase);
                Backend &b = *backends_[idx];
                const int fd = b.conn.fd();
                if (fd < 0)
                    continue; // went down earlier in this batch
                b.conn.handleReady(ev);
                if (b.conn.state() == AsyncClient::State::Closed) {
                    loop_.remove(fd);
                    backendDown(idx, b.conn.lastError());
                } else {
                    updateBackendInterest(idx);
                }
                continue;
            }
            const std::uint64_t conn_id = ev.key;
            auto it = conns_.find(conn_id);
            if (it == conns_.end())
                continue; // closed earlier in this batch
            ClientConn &conn = *it->second;
            if (ev.error) {
                closeClientConn(conn_id);
                continue;
            }
            bool alive = true;
            if (ev.writable)
                alive = conn.out.flush(conn.fd) >= 0;
            if (alive && (ev.readable || ev.hangup))
                alive = readReady(conn_id, conn);
            if (!alive) {
                closeClientConn(conn_id);
                continue;
            }
            updateClientInterest(conn_id, conn);
            if (conn.closing)
                closing_conns_.insert(conn_id);
        }
    }

    // Teardown: drop every socket. In-flight requests die with their
    // connections (stop() is not a graceful drain; see gateway.hh).
    while (!conns_.empty())
        closeClientConn(conns_.begin()->first);
    for (auto &b : backends_) {
        if (b->conn.fd() >= 0)
            loop_.remove(b->conn.fd());
        b->conn.close();
        b->routable = false;
    }
    ring_.reset();
    ring_map_.clear();
    routable_count_.store(0);
}

//----------------------------------------------------------------------
// The admin plane.
//----------------------------------------------------------------------

HealthReport
Gateway::evaluateHealth() const
{
    HealthInputs in;
    // "Serving" for a gateway means the front door is open AND at
    // least one backend can take traffic.
    in.serving = running_.load() && routable_count_.load() > 0;
    {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        in.protocolErrors = stats_.errorsReturned;
    }
    if (recorder_)
        in.p99Micros =
            recorder_->latestValue("gateway_route_micros:p99");
    in.nowSeconds = monotonicSeconds();
    return health_->evaluate(in);
}

HealthReport
Gateway::healthReport() const
{
    if (!health_) {
        HealthReport report;
        report.state = HealthState::Ok;
        report.live = true;
        report.ready = running_.load() && routable_count_.load() > 0;
        return report;
    }
    return evaluateHealth();
}

bool
Gateway::gatherTracesForAdmin(std::vector<RequestTrace> *out,
                              std::uint64_t *total) const
{
    // Round-trip a TRACES frame through our own front door: the IO
    // thread answers it with the gateway's rings plus a scatter-
    // gather over every routable backend — exactly what a wire
    // client would see. The admin worker thread blocks here; the IO
    // thread does the serving, so there is no self-deadlock.
    NetClient client(opts_.maxPayloadBytes);
    if (!client.connect("127.0.0.1", port_))
        return false;
    return client.traces(out, total);
}

void
Gateway::registerAdminRoutes(HttpAdminServer &admin)
{
    admin.addHandler("/", [](const HttpRequest &) {
        HttpResponse resp;
        resp.contentType = "text/html; charset=utf-8";
        resp.body =
            "<!doctype html><title>sap gateway admin</title>"
            "<h1>sap gateway admin</h1><ul>"
            "<li><a href=\"/metrics\">/metrics</a> — Prometheus "
            "text exposition</li>"
            "<li><a href=\"/healthz\">/healthz</a> — liveness "
            "(200/503)</li>"
            "<li><a href=\"/readyz\">/readyz</a> — readiness "
            "(200/503)</li>"
            "<li><a href=\"/tracez\">/tracez</a> — stitched "
            "cross-tier traces (<a href=\"/tracez?format=chrome\">"
            "Perfetto format</a>)</li>"
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
        std::vector<RequestTrace> traces;
        std::uint64_t total = 0;
        if (!gatherTracesForAdmin(&traces, &total)) {
            // Degraded: the gateway-only view still serves.
            traces = collector_.snapshot();
            total = collector_.totalCommitted();
        }
        traces = filterTraces(std::move(traces), min_us, kind);
        auto it = req.query.find("format");
        if (it != req.query.end() && it->second == "chrome") {
            // The multi-process view: pid 2 = gateway lane, pid 1 =
            // backend lanes, joined by trace id in args.
            resp.body = toChromeTraceJson(traces);
            resp.extraHeaders.emplace_back(
                "Content-Disposition",
                "attachment; filename=\"sap_gateway_trace.json\"");
        } else {
            resp.body = toStitchedTracezJson(
                stitchTraces(std::move(traces)), total);
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

//----------------------------------------------------------------------
// The /healthz prober.
//----------------------------------------------------------------------

bool
probeHealthz(const std::string &host, std::uint16_t admin_port,
             int timeout_ms)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(admin_port);
    const std::string node = host == "localhost" ? "127.0.0.1" : host;
    if (::inet_pton(AF_INET, node.c_str(), &addr.sin_addr) != 1)
        return false;
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0)
        return false;
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0 &&
        errno != EINPROGRESS) {
        ::close(fd);
        return false;
    }
    struct pollfd pfd = {fd, POLLOUT, 0};
    if (::poll(&pfd, 1, timeout_ms) != 1) {
        ::close(fd);
        return false;
    }
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0 ||
        soerr != 0) {
        ::close(fd);
        return false;
    }

    const std::string request = "GET /healthz HTTP/1.1\r\nHost: " +
                                node + "\r\nConnection: close\r\n\r\n";
    std::size_t off = 0;
    while (off < request.size()) {
        ssize_t n = ::send(fd, request.data() + off,
                           request.size() - off, MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EINTR || errno == EAGAIN ||
                      errno == EWOULDBLOCK)) {
            pfd.events = POLLOUT;
            if (::poll(&pfd, 1, timeout_ms) != 1) {
                ::close(fd);
                return false;
            }
            continue;
        }
        ::close(fd);
        return false;
    }

    // The verdict is in the status line; read until it is complete.
    std::string head;
    char buf[512];
    for (;;) {
        pfd.events = POLLIN;
        if (::poll(&pfd, 1, timeout_ms) != 1)
            break;
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n > 0) {
            head.append(buf, static_cast<std::size_t>(n));
            if (head.find("\r\n") != std::string::npos)
                break;
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        break;
    }
    ::close(fd);
    // "HTTP/1.1 200 OK" — Ok and Degraded both answer 200; only
    // Unhealthy (503) pulls the backend (obs/health.hh).
    return head.size() >= 12 && head.compare(9, 3, "200") == 0;
}

void
Gateway::proberLoop()
{
    const int interval = opts_.healthzIntervalMs;
    while (!exiting_.load()) {
        for (auto &b : backends_) {
            if (exiting_.load())
                return;
            if (b->addr.adminPort == 0)
                continue;
            b->adminHealthy.store(probeHealthz(
                b->addr.host, b->addr.adminPort, interval));
        }
        // Sleep in small slices so stop() never waits a full period.
        for (int slept = 0; slept < interval && !exiting_.load();
             slept += 10)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
    }
}

} // namespace sap
