#include "net/gateway.hh"

#include <cerrno>
#include <utility>

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

/** Event-loop key layout: 0 = listen socket, kBackendKeyBase + i =
 *  backend i, clients above those. */
constexpr std::uint64_t kListenKey = 0;
constexpr std::uint64_t kBackendKeyBase = 1;

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
      conns_(loop_, kBackendKeyBase + opts.backends.size(),
             opts.maxPayloadBytes, opts.maxQueuedOutputBytes),
      metrics_(opts.metrics ? std::make_unique<MetricsRegistry>()
                            : nullptr),
      collector_(opts.trace, metrics_.get()),
      admin_(opts.admin, adminSources())
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

    if (!listener_.open(opts_.port, &error_))
        return false;

    // Admin plane before the IO thread (as NetServer): if its port
    // cannot bind, start() fails with only the listener to unwind.
    if (!admin_.start(&error_)) {
        listener_.close();
        return false;
    }

    exiting_.store(false);
    running_.store(true);
    io_thread_ = std::thread([this] { ioLoop(); });

    bool any_admin = false;
    for (const auto &b : backends_)
        any_admin |= b->addr.adminPort != 0;
    if (any_admin && opts_.healthzIntervalMs > 0)
        prober_thread_ = std::thread([this] { proberLoop(); });

    SAP_LOG_INFO("gateway listening on 127.0.0.1:", port(), " over ",
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
    admin_.stop();
    exiting_.store(true);
    loop_.wake();
    if (io_thread_.joinable())
        io_thread_.join();
    if (prober_thread_.joinable())
        prober_thread_.join();
    listener_.close();
    running_.store(false);
    stopped_ = true;
}

void
Gateway::count(std::uint64_t GatewayStats::*stat, Counter *counter,
               std::uint64_t n)
{
    {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.*stat += n;
    }
    if (counter)
        counter->add(n);
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
    if (!b.conn.connectStart(b.addr.host, b.addr.port)) {
        b.reconnectWaitMs = opts_.reconnectIntervalMs;
        return;
    }
    updateBackendInterest(idx);
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
    if (b.conn.fd() >= 0)
        loop_.remove(b.conn.fd()); // before close(): see EventLoop
    b.conn.close();
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
        count(&GatewayStats::failovers, inst_.failovers);
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
            count(&GatewayStats::resubmits, inst_.resubmits);
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
        tryConnect(i);
    }
}

//----------------------------------------------------------------------
// Client side.
//----------------------------------------------------------------------

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
    Connection *conn = conns_.find(conn_id);
    if (conn == nullptr)
        return; // client went away; the reply is dropped
    conn->out.push(std::move(frame));
    conns_.update(conn_id, *conn, true);
}

void
Gateway::sendClientError(std::uint64_t conn_id, std::uint64_t tag,
                         const std::string &message)
{
    count(&GatewayStats::errorsReturned, inst_.errors);
    sendToClient(conn_id, buildErrorFrame(tag, message));
}

bool
Gateway::readReady(std::uint64_t conn_id, Connection &conn)
{
    std::string err;
    const Connection::End end = conn.receive(
        [&](Frame &&frame) {
            handleClientFrame(conn_id, std::move(frame));
            return true;
        },
        nullptr, &err);
    if (end == Connection::End::Malformed) {
        // Frame-level violation: ERROR, then close after the flush
        // (same policy as NetServer).
        SAP_LOG_WARN("gateway: conn ", conn_id,
                     ": unrecoverable frame error: ", err);
        sendClientError(conn_id, 0, err);
    }
    return end != Connection::End::Failed;
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
    count(&GatewayStats::requestsRouted, inst_.requests);
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
Gateway::handleClientFrame(std::uint64_t conn_id, Frame &&frame)
{
    const std::uint64_t tag = frame.header.tag;
    switch (frame.header.type) {
    case static_cast<std::uint16_t>(FrameType::Submit):
    case static_cast<std::uint16_t>(FrameType::Forward): {
        // Check with full wire strictness (bad payloads must not
        // reach a backend) and hash the operands where they lie; the
        // payload buffer itself relays behind a FORWARD header. A
        // FORWARD from a gateway one tier up already carries its
        // digest: its embedded SUBMIT is routed with the old envelope
        // skipped by offset — rings of rings compose.
        const bool forward =
            frame.header.type ==
            static_cast<std::uint16_t>(FrameType::Forward);
        Digest digest = 0;
        SubmitView req;
        std::size_t offset = 0;
        std::string err;
        if (!(forward ? checkForward(frame.payload.data(),
                                     frame.payload.size(), &digest, &req,
                                     &offset, &err)
                      : checkSubmit(frame.payload.data(),
                                    frame.payload.size(), &req, &err))) {
            sendClientError(conn_id, tag, err);
            return;
        }
        if (!forward)
            digest = submitDigest(req);
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
        count(&GatewayStats::responsesRelayed, inst_.relayed);
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
        listener_.watch(loop_, kListenKey, true);

        conns_.sweep(
            [this](std::uint64_t id) { return clientOwedWork(id); });
        if (inst_.clientsLive)
            inst_.clientsLive->set(static_cast<double>(conns_.size()));

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
            if (ev.key == kListenKey) {
                count(&GatewayStats::connectionsAccepted, nullptr,
                      conns_.acceptAll(listener_, true));
                continue;
            }
            if (ev.key >= kBackendKeyBase &&
                ev.key < kBackendKeyBase + backends_.size()) {
                const std::size_t idx = static_cast<std::size_t>(
                    ev.key - kBackendKeyBase);
                Backend &b = *backends_[idx];
                if (b.conn.fd() < 0)
                    continue; // went down earlier in this batch
                b.conn.handleReady(ev);
                if (b.conn.state() == AsyncClient::State::Closed)
                    backendDown(idx, b.conn.lastError());
                else
                    updateBackendInterest(idx);
                continue;
            }
            const std::uint64_t conn_id = ev.key;
            Connection *conn = conns_.find(conn_id);
            if (conn == nullptr)
                continue; // closed earlier in this batch
            bool alive = !ev.error;
            if (alive && ev.writable)
                alive = conn->out.flush(conn->fd) >= 0;
            if (alive && (ev.readable || ev.hangup))
                alive = readReady(conn_id, *conn);
            if (alive)
                conns_.update(conn_id, *conn, true);
            else
                conns_.close(conn_id);
        }
    }

    // Teardown: drop every socket. In-flight requests die with their
    // connections (stop() is not a graceful drain; see gateway.hh).
    conns_.closeAll();
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

AdminPlane::Sources
Gateway::adminSources()
{
    AdminPlane::Sources src;
    src.name = "sap gateway";
    src.metrics = [this] { return metricsSnapshot(); };
    src.health = [this] {
        HealthInputs in;
        // "Serving" for a gateway means the front door is open AND
        // at least one backend can take traffic.
        in.serving = running_.load() && routable_count_.load() > 0;
        std::lock_guard<std::mutex> lock(stats_mutex_);
        in.protocolErrors = stats_.errorsReturned;
        return in;
    };
    src.p99Series = "gateway_route_micros:p99";
    src.traces = [this](std::uint64_t *total) {
        // Round-trip a TRACES frame through our own front door: the
        // IO thread answers it with the gateway's rings plus a
        // scatter-gather over every routable backend — exactly what
        // a wire client would see. The admin thread blocks here; the
        // IO thread does the serving, so there is no self-deadlock.
        std::vector<RequestTrace> traces;
        NetClient client(opts_.maxPayloadBytes);
        if (!client.connect("127.0.0.1", port()) ||
            !client.traces(&traces, total)) {
            // Degraded: the gateway-only view still serves.
            traces = collector_.snapshot();
            *total = collector_.totalCommitted();
        }
        return traces;
    };
    // The multi-process view: backend and gateway lanes joined by
    // trace id.
    src.renderTracez = [](std::vector<RequestTrace> traces,
                          std::uint64_t total) {
        return toStitchedTracezJson(stitchTraces(std::move(traces)),
                                    total);
    };
    return src;
}

//----------------------------------------------------------------------
// The /healthz prober.
//----------------------------------------------------------------------

bool
probeHealthz(const std::string &host, std::uint16_t admin_port,
             int timeout_ms)
{
    bool connected = false;
    std::string err;
    const int fd = dialStart(host, admin_port, &connected, &err);
    if (fd < 0)
        return false;
    if (!connected && !dialFinish(fd, timeout_ms, &err)) {
        ::close(fd);
        return false;
    }

    // A fresh socket's empty send buffer takes the short request
    // whole.
    const std::string request = "GET /healthz HTTP/1.1\r\nHost: " +
                                host + "\r\nConnection: close\r\n\r\n";
    if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(request.size())) {
        ::close(fd);
        return false;
    }

    // The verdict is in the status line; read until it is complete.
    std::string head;
    char buf[512];
    struct pollfd pfd = {fd, POLLIN, 0};
    while (head.find("\r\n") == std::string::npos &&
           ::poll(&pfd, 1, timeout_ms) == 1) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n > 0)
            head.append(buf, static_cast<std::size_t>(n));
        else if (n == 0 || errno != EINTR)
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
