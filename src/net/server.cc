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
        // stop() permanently shuts the completion queue down (its
        // writer may have late completions to drain); a stopped
        // server cannot be revived.
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
    writer_thread_ = std::thread([this] { writerLoop(); });
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
    //    and queue surfaces torn down below. The objects stay alive
    //    (adminPort() remains answerable), only their threads stop.
    admin_.stop();

    // 1. Stop accepting and reading; wait for the IO thread to
    //    acknowledge, so no submitToQueue() races the cluster drain.
    serving_.store(false);
    loop_.wake();
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
    loop_.wake();
    io_thread_.join();

    listener_.close();
    SAP_LOG_INFO("net server on port ", port(), " stopped");
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

AdminPlane::Sources
NetServer::adminSources()
{
    AdminPlane::Sources src;
    src.name = "sap";
    src.metrics = [this] { return metricsSnapshot(); };
    src.health = [this] {
        HealthInputs in;
        in.serving = serving_.load();
        in.queueDepth = static_cast<double>(queue_.size());
        {
            std::lock_guard<std::mutex> lock(cluster_mutex_);
            if (cluster_)
                in.queueDepth += cluster_->queueDepth();
        }
        std::lock_guard<std::mutex> lock(stats_mutex_);
        in.protocolErrors = net_stats_.protocolErrors;
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
    conns_.close(conn_id);
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
        Connection *conn = conns_.find(conn_id);
        if (conn == nullptr)
            return false; // connection is gone; drop the frame
        conn->out.push(std::move(frame));
        // The IO thread owns the event loop; ask it to pick up the
        // new write interest when the wake lands.
        interest_dirty_.push_back(conn_id);
    }
    loop_.wake();
    return true;
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
        count(&NetServerStats::protocolErrors, inst_.protocolErrors);
        SAP_LOG_WARN("conn ", conn_id,
                     ": unrecoverable frame error: ", err);
        std::lock_guard<std::mutex> lock(conns_mutex_);
        conn.out.push(buildErrorFrame(0, err));
    }
    return end != Connection::End::Failed;
}

void
NetServer::count(std::uint64_t NetServerStats::*stat, Counter *counter,
                 std::uint64_t n)
{
    {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        net_stats_.*stat += n;
    }
    if (counter)
        counter->add(n);
}

void
NetServer::handleFrame(std::uint64_t conn_id, Connection &conn,
                       const Frame &frame)
{
    count(&NetServerStats::framesReceived, inst_.framesReceived);
    const std::uint64_t tag = frame.header.tag;

    auto send_error = [&](const std::string &message) {
        count(&NetServerStats::protocolErrors, inst_.protocolErrors);
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
        std::uint64_t server_tag;
        {
            std::lock_guard<std::mutex> lock(tags_mutex_);
            server_tag = next_tag_++;
            tags_[server_tag] = {conn_id, tag};
        }
        if (forward)
            cluster_->submitToQueue(std::move(req), &queue_, server_tag,
                                    digest);
        else
            cluster_->submitToQueue(std::move(req), &queue_, server_tag);
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
        // harmless to serve again, so no payload check). The
        // snapshot + encode work is milliseconds on a loaded
        // installation, so it runs on the writer thread — the IO
        // thread only hands the request over via the tag-0 marker.
        // TRACES is the scatter leg of the gateway's stitched
        // /tracez.
        const SnapKind kind =
            frame.header.type ==
                    static_cast<std::uint16_t>(FrameType::Stats)
                ? SnapKind::Stats
            : frame.header.type ==
                    static_cast<std::uint16_t>(FrameType::Metrics)
                ? SnapKind::Metrics
                : SnapKind::Traces;
        {
            std::lock_guard<std::mutex> lock(stats_requests_mutex_);
            stats_requests_.push_back({conn_id, tag, kind});
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
            // wakeup: only connections somebody marked dirty (the
            // writer buffering a response, backpressure crossings)
            // are touched — unless the serving flag just flipped or
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

            // Swept every wakeup (bounded by the closing set, not the
            // connection count) because the final tag erase happens
            // writer-side without a wake.
            conns_.sweep(
                [this](std::uint64_t id) { return hasPendingTags(id); });
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
                count(&NetServerStats::connectionsAccepted,
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
            count(&NetServerStats::responsesSent, inst_.responsesSent);
        }
        // Flush = response bytes handed to the socket layer; the
        // commit decides sampled-or-slow and records stage spans.
        traceStamp(trace, TraceStage::Flush);
        collector_.finish(trace);
    }
}

} // namespace sap
