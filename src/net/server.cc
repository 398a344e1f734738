#include "net/server.hh"

#include <utility>

#include <unistd.h>

#include "base/logging.hh"
#include "obs/trace_export.hh"

namespace sap {

namespace {

/** Wait period; also bounds shutdown-flush latency and how long a
 *  closing connection can linger after its last response flushed. */
constexpr int kWaitTimeoutMs = 50;

/** Event-loop key of the listen socket; connection ids start
 *  above it. */
constexpr std::uint64_t kListenKey = 0;

/** Shutdown flush gives a slow client at most this many periods. */
constexpr int kMaxFlushSpins = 40; // ~2 s with kWaitTimeoutMs

} // namespace

NetServer::NetServer(const Options &opts)
    : opts_(opts),
      conns_(loop_, kListenKey + 1, opts.maxPayloadBytes,
             opts.maxQueuedOutputBytes),
      net_metrics_(opts.metrics ? std::make_unique<MetricsRegistry>()
                                : nullptr),
      collector_(opts.trace, net_metrics_.get()),
      admin_(opts.admin, adminSources())
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
        // stop() tears the cluster and the admin plane down for
        // good; a stopped server cannot be revived.
        error_ = "NetServer cannot be restarted after stop(); "
                 "construct a new instance";
        return false;
    }
    if (!listener_.open(opts_.port, &error_))
        return false;
    // Admin plane comes up before the data-plane threads: if its
    // port cannot bind, start() fails with only the listener to
    // unwind. Its handlers tolerate the not-yet-serving state
    // (healthz answers "not serving" until serving_ flips below).
    if (!admin_.start(&error_)) {
        listener_.close();
        return false;
    }

    cluster_ = std::make_unique<Cluster>(opts_.cluster);
    reads_quiesced_ = false;
    flush_and_exit_.store(false);
    serving_.store(true);
    running_.store(true);
    io_thread_ = std::thread([this] { ioLoop(); });
    SAP_LOG_INFO("net server listening on 127.0.0.1:", port(), " (",
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
    //    torn down below. The objects stay alive (adminPort()
    //    remains answerable), only their threads stop.
    admin_.stop();

    // 1. Stop accepting and reading; wait for the IO thread to
    //    acknowledge, so no submitAsync() races the cluster drain.
    serving_.store(false);
    loop_.wake();
    {
        std::unique_lock<std::mutex> lock(quiesce_mutex_);
        quiesce_cv_.wait(lock, [this] { return reads_quiesced_; });
    }

    // 2. Drain the cluster: every accepted request completes and its
    //    worker delivers the response to its connection (shards
    //    drain on destruction). Under cluster_mutex_, so a metrics
    //    snapshot an admin or client thread is taking right now
    //    finishes first.
    {
        std::lock_guard<std::mutex> lock(cluster_mutex_);
        cluster_.reset();
    }

    // 3. Let the IO thread flush what clients will accept (bounded),
    //    then close everything.
    flush_and_exit_.store(true);
    loop_.wake();
    io_thread_.join();

    listener_.close();
    SAP_LOG_INFO("net server on port ", port(), " stopped");
}

NetServerStats
NetServer::netStats() const
{
    NetServerStats out;
    out.connectionsAccepted =
        net_stats_.connectionsAccepted.load(std::memory_order_relaxed);
    out.framesReceived =
        net_stats_.framesReceived.load(std::memory_order_relaxed);
    out.responsesSent =
        net_stats_.responsesSent.load(std::memory_order_relaxed);
    out.protocolErrors =
        net_stats_.protocolErrors.load(std::memory_order_relaxed);
    return out;
}

std::size_t
NetServer::responsesOwed() const
{
    std::lock_guard<std::mutex> lock(conns_mutex_);
    std::size_t total = 0;
    for (const auto &entry : owed_)
        total += entry.second;
    return total;
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

AdminPlane::Sources
NetServer::adminSources()
{
    AdminPlane::Sources src;
    src.name = "sap";
    src.metrics = [this] { return metricsSnapshot(); };
    src.health = [this] {
        HealthInputs in;
        in.serving = serving_.load();
        {
            std::lock_guard<std::mutex> lock(cluster_mutex_);
            if (cluster_)
                in.queueDepth = cluster_->queueDepth();
        }
        in.protocolErrors =
            net_stats_.protocolErrors.load(std::memory_order_relaxed);
        return in;
    };
    src.p99Series = "serve_latency_micros:p99";
    src.traces = [this](std::uint64_t *total) {
        *total = collector_.totalCommitted();
        return collector_.snapshot();
    };
    src.renderTracez = [](std::vector<RequestTrace> traces,
                          std::uint64_t total) {
        return toTracezJson(traces, total);
    };
    return src;
}

void
NetServer::closeConnLocked(std::uint64_t conn_id)
{
    conns_.close(conn_id);
    SAP_LOG_DEBUG("conn ", conn_id, " closed");
    // Completions still in flight for this connection find neither
    // it nor an owed count, and are dropped.
    owed_.erase(conn_id);
}

bool
NetServer::readReady(std::uint64_t conn_id, Connection &conn)
{
    std::uint64_t received = 0;
    std::string err;
    const Connection::End end = conn.receive(
        [&](Frame &&frame) {
            handleFrame(conn_id, conn, frame);
            return true;
        },
        &received, &err);
    if (received > 0 && inst_.bytesIn)
        inst_.bytesIn->add(received);
    if (end == Connection::End::Malformed) {
        // Frame-level violation: the stream cannot recover. One
        // ERROR frame, then close after the flush.
        count(net_stats_.protocolErrors, inst_.protocolErrors);
        SAP_LOG_WARN("conn ", conn_id,
                     ": unrecoverable frame error: ", err);
        std::lock_guard<std::mutex> lock(conns_mutex_);
        conn.out.push(buildErrorFrame(0, err));
    }
    return end != Connection::End::Failed;
}

void
NetServer::count(std::atomic<std::uint64_t> &stat, Counter *counter,
                 std::uint64_t n)
{
    stat.fetch_add(n, std::memory_order_relaxed);
    if (counter)
        counter->add(n);
}

void
NetServer::handleFrame(std::uint64_t conn_id, Connection &conn,
                       const Frame &frame)
{
    count(net_stats_.framesReceived, inst_.framesReceived);
    const std::uint64_t tag = frame.header.tag;

    auto send_error = [&](const std::string &message) {
        count(net_stats_.protocolErrors, inst_.protocolErrors);
        SAP_LOG_DEBUG("conn ", conn_id, ": protocol error: ", message);
        std::lock_guard<std::mutex> lock(conns_mutex_);
        conn.out.push(buildErrorFrame(tag, message));
    };

    switch (frame.header.type) {
    case static_cast<std::uint16_t>(FrameType::Submit):
    case static_cast<std::uint16_t>(FrameType::Forward): {
        // FORWARD is the gateway hop: a SUBMIT whose routing digest
        // was already computed one tier up, riding through to the
        // shard plan cache. Same life cycle as SUBMIT.
        const bool forward =
            frame.header.type ==
            static_cast<std::uint16_t>(FrameType::Forward);
        Digest digest = 0;
        ServeRequest req;
        std::string err;
        if (!(forward ? decodeForward(frame.payload, &digest, &req, &err)
                      : decodeSubmit(frame.payload, &req, &err))) {
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
        {
            std::lock_guard<std::mutex> lock(conns_mutex_);
            ++owed_[conn_id];
        }
        CompletionFn done = [this, conn_id, tag](ServeResponse resp) {
            deliver(conn_id, tag, std::move(resp));
        };
        if (forward)
            cluster_->submitAsync(std::move(req), std::move(done),
                                  digest);
        else
            cluster_->submitAsync(std::move(req), std::move(done));
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
    case static_cast<std::uint16_t>(FrameType::Stats):
    case static_cast<std::uint16_t>(FrameType::Metrics):
    case static_cast<std::uint16_t>(FrameType::Traces): {
        // Empty payload = request (a snapshot in either direction is
        // harmless to serve again, so no payload check). Snapshot and
        // encode run inline: they are operator traffic, off the
        // request path. TRACES is the scatter leg of the gateway's
        // stitched /tracez.
        std::vector<std::uint8_t> reply =
            frame.header.type ==
                    static_cast<std::uint16_t>(FrameType::Stats)
                ? buildStatsFrame(tag, cluster_->statsSnapshot())
            : frame.header.type ==
                    static_cast<std::uint16_t>(FrameType::Metrics)
                ? buildMetricsFrame(tag, metricsSnapshot())
                : buildTracesFrame(tag, collector_.snapshot(),
                                   collector_.totalCommitted());
        std::lock_guard<std::mutex> lock(conns_mutex_);
        conn.out.push(std::move(reply));
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
        // accept() backoff (net/listener.hh).
        listener_.watch(loop_, kListenKey, serving);

        bool any_output = false;
        {
            std::lock_guard<std::mutex> lock(conns_mutex_);
            // Interest masks are event-driven, not rebuilt per
            // wakeup: only connections a shard worker marked dirty
            // (output left over, backpressure crossings, a closing
            // connection owed nothing more) are touched — unless the
            // serving flag just flipped or
            // we are flushing to exit, which changes every mask.
            if (serving != was_serving || exiting) {
                conns_.updateAll(serving);
            } else {
                for (std::uint64_t id : interest_dirty_)
                    if (Connection *conn = conns_.find(id))
                        conns_.update(id, *conn, serving);
            }
            interest_dirty_.clear();
            was_serving = serving;

            // Swept every wakeup, bounded by the closing set, not the
            // connection count.
            conns_.sweep([this](std::uint64_t id) {
                return owed_.count(id) != 0;
            });
            if (inst_.connectionsLive)
                inst_.connectionsLive->set(
                    static_cast<double>(conns_.size()));
            any_output = exiting && conns_.anyOutput();
        }

        if (exiting) {
            if (!any_output || ++flush_spins > kMaxFlushSpins)
                break;
        }

        loop_.wait(kWaitTimeoutMs);

        for (const EventLoop::Ready &ev : loop_.ready()) {
            if (ev.key == kListenKey) {
                std::size_t accepted;
                {
                    std::lock_guard<std::mutex> lock(conns_mutex_);
                    accepted = conns_.acceptAll(listener_, serving);
                }
                count(net_stats_.connectionsAccepted,
                      inst_.connectionsAccepted, accepted);
                continue;
            }
            const std::uint64_t conn_id = ev.key;
            Connection *conn = nullptr;
            {
                std::lock_guard<std::mutex> lock(conns_mutex_);
                conn = conns_.find(conn_id);
            }
            if (conn == nullptr)
                continue; // closed earlier in this batch
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
                const ssize_t n = conn->out.flush(conn->fd);
                alive = n >= 0; // else the peer is gone
                if (n > 0 && inst_.bytesOut)
                    inst_.bytesOut->add(static_cast<std::uint64_t>(n));
            }
            // Gated on `serving` (not just the installed interest):
            // both backends report hangup even when reads were not
            // asked for, and once this iteration acknowledged
            // quiesce, reading — and the submitAsync it can
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
            conns_.update(conn_id, *conn, serving);
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
    conns_.closeAll();
    if (inst_.connectionsLive)
        inst_.connectionsLive->set(0);
}

void
NetServer::deliver(std::uint64_t conn_id, std::uint64_t client_tag,
                   ServeResponse resp)
{
    // CqPush and WriterPop keep their slots: the hand-off they bound
    // is now this call, so their gap reads ~0. WireResponse::of moves
    // the response, so detach the trace (and its outcome) first.
    std::shared_ptr<RequestTrace> trace = std::move(resp.trace);
    if (trace) {
        trace->ok = resp.ok;
        trace->stamp(TraceStage::CqPush);
        trace->stamp(TraceStage::WriterPop);
    }
    OutFrame frame = buildResponseFrame(
        client_tag, WireResponse::of(std::move(resp)));

    bool wake = false;
    {
        std::lock_guard<std::mutex> lock(conns_mutex_);
        Connection *conn = conns_.find(conn_id);
        if (conn == nullptr)
            return; // closed: its owed count went with it
        auto owed = owed_.find(conn_id);
        SAP_ASSERT(owed != owed_.end(), "conn ", conn_id,
                   " delivered a response it was not owed");
        const bool owes_more = --owed->second != 0;
        if (!owes_more)
            owed_.erase(owed);
        // Counted before the bytes can reach the socket, so a client
        // that has read its response also sees it counted.
        count(net_stats_.responsesSent, inst_.responsesSent);

        const std::size_t cap = opts_.maxQueuedOutputBytes;
        const std::size_t before = conn->out.queuedBytes();
        conn->out.push(std::move(frame));
        if (before == 0) {
            const ssize_t n = conn->out.flush(conn->fd);
            if (n > 0 && inst_.bytesOut)
                inst_.bytesOut->add(static_cast<std::uint64_t>(n));
            // Leftovers need write interest; a failed write needs the
            // IO thread to see the error and close.
            wake = n < 0 || !conn->out.empty();
        }
        // Over the cap, reads must stop (backpressure); a closing
        // connection owed nothing more is the sweep's to close.
        wake = wake ||
               (before <= cap && conn->out.queuedBytes() > cap) ||
               (!owes_more && conns_.closing(conn_id));
        if (wake)
            interest_dirty_.push_back(conn_id);
    }
    if (wake)
        loop_.wake();
    // Flush = response bytes handed to the socket layer (or queued
    // for the IO thread); the commit decides sampled-or-slow and
    // records stage spans.
    traceStamp(trace, TraceStage::Flush);
    collector_.finish(trace);
}

} // namespace sap
