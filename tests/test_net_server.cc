/**
 * @file
 * Loopback integration tests for the TCP front end: every problem
 * kind served over the wire bit-identical to the host oracle,
 * multi-client concurrency, the STATS and PING round-trips, and the
 * malformed-frame suite — garbage on a connection must earn an ERROR
 * frame and leave the server (and other connections) healthy.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <thread>

#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "mat/generate.hh"
#include "mat/ops.hh"
#include "net/client.hh"
#include "net/server.hh"

namespace sap {
namespace {

NetServer::Options
smallServerOptions()
{
    NetServer::Options opts;
    opts.cluster.shards = 2;
    opts.cluster.threadsPerShard = 2;
    return opts;
}

ServeRequest
matVecRequest(std::uint64_t seed, Index n = 6, Index w = 3)
{
    ServeRequest req;
    req.engine = "linear";
    req.plan = EnginePlan::matVec(randomIntDense(n, n, seed),
                                  randomIntVec(n, seed + 1),
                                  randomIntVec(n, seed + 2), w);
    return req;
}

ServeRequest
matMulRequest(std::uint64_t seed, Index n = 6, Index w = 3)
{
    ServeRequest req;
    req.engine = "hex";
    req.plan = EnginePlan::matMul(randomIntDense(n, n, seed),
                                  randomIntDense(n, n, seed + 1),
                                  randomIntDense(n, n, seed + 2), w);
    return req;
}

ServeRequest
triSolveRequest(std::uint64_t seed, Index n = 6, Index w = 3)
{
    ServeRequest req;
    req.engine = "tri";
    req.plan = EnginePlan::triSolve(randomUnitLowerTriangular(n, seed),
                                    randomIntVec(n, seed + 1), w);
    return req;
}

/**
 * A raw loopback connection for crafting arbitrary (including
 * malformed) byte streams, below the NetClient abstraction.
 */
class RawConn
{
  public:
    /** @p rcvbuf > 0 caps the receive buffer (set before connect, so
     *  the advertised window honours it). */
    explicit RawConn(std::uint16_t port, int rcvbuf = 0)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (rcvbuf > 0)
            ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                         sizeof(rcvbuf));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    ~RawConn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    bool ok() const { return fd_ >= 0; }

    /** Half-close: no more writes, reads stay open. */
    void shutdownWrite() { ::shutdown(fd_, SHUT_WR); }

    /** Close with a reset (SO_LINGER 0), as a crashed peer would. */
    void
    abort()
    {
        linger lg{1, 0};
        ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
        ::close(fd_);
        fd_ = -1;
    }

    void
    send(const std::vector<std::uint8_t> &bytes)
    {
        std::size_t off = 0;
        while (off < bytes.size()) {
            ssize_t n = ::send(fd_, bytes.data() + off,
                               bytes.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                return;
            off += static_cast<std::size_t>(n);
        }
    }

    /** Block for one frame; false on close/garbage. */
    bool
    readFrame(Frame *out)
    {
        std::uint8_t buf[4096];
        for (;;) {
            std::string err;
            FrameDecoder::Result res = decoder_.next(out, &err);
            if (res == FrameDecoder::Result::Ok)
                return true;
            if (res == FrameDecoder::Result::Malformed)
                return false;
            ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
            if (n <= 0)
                return false;
            decoder_.feed(buf, static_cast<std::size_t>(n));
        }
    }

    /** True when the server closed the connection (EOF). */
    bool
    awaitClose()
    {
        std::uint8_t buf[4096];
        for (;;) {
            ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
            if (n == 0)
                return true;
            if (n < 0)
                return false;
            decoder_.feed(buf, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd_ = -1;
    FrameDecoder decoder_;
};

/** Open descriptors right now (via /proc/self/fd). */
int
openFdCount()
{
    DIR *d = ::opendir("/proc/self/fd");
    if (!d)
        return -1;
    int n = 0;
    while (::readdir(d))
        ++n;
    ::closedir(d);
    // Subtract ".", "..", and the dirfd itself.
    return n - 3;
}

/** Poll @p pred every 10 ms for up to @p seconds. */
template <typename Pred>
bool
eventually(Pred &&pred, double seconds = 10.0)
{
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(seconds));
    while (!pred()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return true;
}

//---------------------------------------------------------------------
// Happy paths
//---------------------------------------------------------------------

TEST(NetServer, ServesEveryKindBitIdenticalOverLoopback)
{
    NetServer server(smallServerOptions());
    ASSERT_TRUE(server.start()) << server.error();

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()))
        << client.lastError();

    std::vector<ServeRequest> reqs = {
        matVecRequest(100), matMulRequest(200), triSolveRequest(300)};
    std::vector<NetClient::Result> results = client.submitBatch(reqs);
    ASSERT_EQ(results.size(), reqs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        ASSERT_TRUE(results[i].transportOk)
            << results[i].transportError;
        ASSERT_TRUE(results[i].response.ok)
            << results[i].response.error;
        EXPECT_TRUE(
            NetClient::matchesOracle(reqs[i], results[i].response))
            << "kind " << static_cast<int>(reqs[i].plan.kind);
    }
}

TEST(NetServer, RepeatedMatrixHitsThePlanCacheOverTheWire)
{
    NetServer server(smallServerOptions());
    ASSERT_TRUE(server.start()) << server.error();

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

    ServeRequest req = matVecRequest(42);
    NetClient::Result first = client.submit(req);
    ASSERT_TRUE(first.transportOk && first.response.ok);
    EXPECT_FALSE(first.response.cacheHit);

    req.plan.x = randomIntVec(req.plan.a.cols(), 4242);
    NetClient::Result second = client.submit(req);
    ASSERT_TRUE(second.transportOk && second.response.ok);
    EXPECT_TRUE(second.response.cacheHit);
    EXPECT_TRUE(NetClient::matchesOracle(req, second.response));
}

TEST(NetServer, PingAndStatsRoundTrip)
{
    NetServer server(smallServerOptions());
    ASSERT_TRUE(server.start()) << server.error();

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    EXPECT_TRUE(client.ping()) << client.lastError();

    // Serve a few requests, then check the aggregated snapshot.
    for (int i = 0; i < 3; ++i) {
        NetClient::Result r = client.submit(matVecRequest(500 + i));
        ASSERT_TRUE(r.transportOk && r.response.ok);
    }
    ServerStats stats;
    ASSERT_TRUE(client.stats(&stats)) << client.lastError();
    EXPECT_EQ(stats.requests, 3u);
    EXPECT_EQ(stats.failures, 0u);
    ASSERT_FALSE(stats.groups.empty());
    EXPECT_EQ(stats.groups[0].key.engine, "linear");
    EXPECT_EQ(stats.groups[0].requests, 3u);
    EXPECT_GT(stats.groups[0].latency.p50, 0.0);
}

TEST(NetServer, MetricsFrameMergesEveryLayerOverTheWire)
{
    NetServer server(smallServerOptions());
    ASSERT_TRUE(server.start()) << server.error();

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

    constexpr int kRequests = 5;
    for (int i = 0; i < kRequests; ++i) {
        NetClient::Result r = client.submit(matVecRequest(900 + i));
        ASSERT_TRUE(r.transportOk && r.response.ok);
    }

    MetricsSnapshot snap;
    ASSERT_TRUE(client.metrics(&snap)) << client.lastError();

    // Shard-side counters, merged exactly across both shards.
    EXPECT_EQ(snap.counters["serve_requests_total"],
              static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(snap.counters["serve_failures_total"], 0u);
    EXPECT_EQ(snap.counters["plan_cache_hits_total"] +
                  snap.counters["plan_cache_misses_total"],
              static_cast<std::uint64_t>(kRequests));

    // Wire-level counters from the server itself.  The METRICS
    // snapshot is taken while its own request is in flight, so that
    // frame counts as received but its response is not yet sent.
    EXPECT_EQ(snap.counters["net_frames_received_total"],
              static_cast<std::uint64_t>(kRequests) + 1);
    EXPECT_EQ(snap.counters["net_responses_sent_total"],
              static_cast<std::uint64_t>(kRequests));
    EXPECT_GT(snap.counters["net_bytes_received_total"], 0u);
    EXPECT_GT(snap.counters["net_bytes_sent_total"], 0u);
    EXPECT_EQ(snap.gauges["net_connections_live"].value, 1.0);

    // Latency histogram carries every request and sane quantiles.
    ASSERT_TRUE(snap.histograms.count("serve_latency_micros"));
    const HistogramSnapshot &lat =
        snap.histograms["serve_latency_micros"];
    EXPECT_EQ(lat.count, static_cast<std::uint64_t>(kRequests));
    EXPECT_GT(lat.quantile(0.5), 0.0);
    EXPECT_LE(lat.quantile(0.5), lat.max);
}

TEST(NetServer, MetricsDisabledYieldsEmptySnapshotOverTheWire)
{
    NetServer::Options opts = smallServerOptions();
    opts.metrics = false;
    opts.cluster.metrics = false;
    NetServer server(opts);
    ASSERT_TRUE(server.start()) << server.error();

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    NetClient::Result r = client.submit(matVecRequest(31));
    ASSERT_TRUE(r.transportOk && r.response.ok);

    MetricsSnapshot snap;
    ASSERT_TRUE(client.metrics(&snap)) << client.lastError();
    EXPECT_TRUE(snap.counters.empty());
    EXPECT_TRUE(snap.gauges.empty());
    EXPECT_TRUE(snap.histograms.empty());
}

TEST(NetServer, PingEchoesItsPayloadVerbatim)
{
    NetServer server(smallServerOptions());
    ASSERT_TRUE(server.start()) << server.error();

    RawConn conn(server.port());
    ASSERT_TRUE(conn.ok());
    std::vector<std::uint8_t> payload = {0xDE, 0xAD, 0xBE, 0xEF, 0x00};
    conn.send(buildFrame(FrameType::Ping, 77, payload));

    Frame frame;
    ASSERT_TRUE(conn.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Ping));
    EXPECT_EQ(frame.header.tag, 77u);
    EXPECT_EQ(frame.payload, payload);
}

TEST(NetServer, CrossCheckFlagTravelsTheWire)
{
    NetServer server(smallServerOptions());
    ASSERT_TRUE(server.start()) << server.error();

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    ServeRequest req = matVecRequest(77);
    req.crossCheck = true;
    NetClient::Result r = client.submit(req);
    ASSERT_TRUE(r.transportOk && r.response.ok);
    EXPECT_TRUE(r.response.crossCheckOk);
}

TEST(NetServer, ExecutionModeTravelsTheWire)
{
    NetServer server(smallServerOptions());
    ASSERT_TRUE(server.start()) << server.error();

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

    ServeRequest req = matVecRequest(610);
    NetClient::Result sim = client.submit(req);
    ASSERT_TRUE(sim.transportOk && sim.response.ok)
        << sim.response.error;

    // Fast mode: bit-identical result, formula-identical cycles.
    req.plan.mode = ExecMode::Fast;
    NetClient::Result fast = client.submit(req);
    ASSERT_TRUE(fast.transportOk) << fast.transportError;
    ASSERT_TRUE(fast.response.ok) << fast.response.error;
    EXPECT_TRUE(fast.response.y == sim.response.y);
    EXPECT_EQ(fast.response.simCycles, sim.response.simCycles);
    EXPECT_TRUE(NetClient::matchesOracle(req, fast.response));

    // Validate mode: both paths run and diff server-side.
    req.plan.mode = ExecMode::Validate;
    NetClient::Result val = client.submit(req);
    ASSERT_TRUE(val.transportOk) << val.transportError;
    ASSERT_TRUE(val.response.ok) << val.response.error;
    EXPECT_TRUE(val.response.y == sim.response.y);

    // One stats group per execution mode, same engine and shape.
    ServerStats stats;
    ASSERT_TRUE(client.stats(&stats)) << client.lastError();
    ASSERT_EQ(stats.groups.size(), 3u);
    EXPECT_EQ(stats.groups[0].key.mode, ExecMode::Simulate);
    EXPECT_EQ(stats.groups[1].key.mode, ExecMode::Fast);
    EXPECT_EQ(stats.groups[2].key.mode, ExecMode::Validate);
    for (const GroupStats &g : stats.groups)
        EXPECT_EQ(g.requests, 1u);
}

TEST(NetServer, ApplicationErrorsComeBackAsFailedResponses)
{
    NetServer server(smallServerOptions());
    ASSERT_TRUE(server.start()) << server.error();

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

    // Unknown engine: decodes fine, fails in the shard.
    ServeRequest req = matVecRequest(900);
    req.engine = "warp-drive";
    NetClient::Result r = client.submit(req);
    ASSERT_TRUE(r.transportOk) << r.transportError;
    EXPECT_FALSE(r.response.ok);
    EXPECT_NE(r.response.error.find("unknown engine"),
              std::string::npos)
        << r.response.error;

    // Shape mismatch: also a per-request failure.
    ServeRequest bad = matVecRequest(901);
    bad.plan.x = randomIntVec(bad.plan.a.cols() + 1, 902);
    r = client.submit(bad);
    ASSERT_TRUE(r.transportOk) << r.transportError;
    EXPECT_FALSE(r.response.ok);

    // The connection keeps serving after both failures.
    ServeRequest good = matVecRequest(903);
    r = client.submit(good);
    ASSERT_TRUE(r.transportOk && r.response.ok);
    EXPECT_TRUE(NetClient::matchesOracle(good, r.response));
}

TEST(NetServer, ManyClientsManyKindsConcurrently)
{
    NetServer::Options opts = smallServerOptions();
    opts.cluster.shards = 4;
    NetServer server(opts);
    ASSERT_TRUE(server.start()) << server.error();

    const int kClients = 4;
    const int kRounds = 5;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            NetClient client;
            if (!client.connect("127.0.0.1", server.port())) {
                failures.fetch_add(1);
                return;
            }
            for (int i = 0; i < kRounds; ++i) {
                std::uint64_t seed =
                    static_cast<std::uint64_t>(1000 + c * 100 + i);
                std::vector<ServeRequest> reqs = {
                    matVecRequest(seed), matMulRequest(seed + 40),
                    triSolveRequest(seed + 80)};
                std::vector<NetClient::Result> results =
                    client.submitBatch(reqs);
                for (std::size_t k = 0; k < results.size(); ++k) {
                    if (!results[k].transportOk ||
                        !results[k].response.ok ||
                        !NetClient::matchesOracle(
                            reqs[k], results[k].response))
                        failures.fetch_add(1);
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0);

    NetServerStats net = server.netStats();
    EXPECT_EQ(net.connectionsAccepted,
              static_cast<std::uint64_t>(kClients));
    EXPECT_EQ(net.responsesSent,
              static_cast<std::uint64_t>(kClients * kRounds * 3));
    EXPECT_EQ(net.protocolErrors, 0u);
}

TEST(NetServer, HalfClosedClientStillGetsEveryResponse)
{
    // A standards-following client may pipeline its SUBMITs,
    // shutdown its write side, and then read to EOF: the server
    // must deliver every owed response before closing, not drop
    // the in-flight ones with the read side.
    NetServer server(smallServerOptions());
    ASSERT_TRUE(server.start()) << server.error();

    RawConn conn(server.port());
    ASSERT_TRUE(conn.ok());
    const int kRequests = 6;
    std::vector<ServeRequest> reqs;
    for (int i = 0; i < kRequests; ++i) {
        reqs.push_back(matVecRequest(7000 + i));
        conn.send(buildSubmitFrame(static_cast<std::uint64_t>(i),
                                   reqs.back()));
    }
    conn.shutdownWrite();

    std::vector<bool> got(kRequests, false);
    for (int i = 0; i < kRequests; ++i) {
        Frame frame;
        ASSERT_TRUE(conn.readFrame(&frame)) << "response " << i;
        ASSERT_EQ(frame.header.type,
                  static_cast<std::uint16_t>(FrameType::Response));
        ASSERT_LT(frame.header.tag,
                  static_cast<std::uint64_t>(kRequests));
        WireResponse resp;
        std::string err;
        ASSERT_TRUE(decodeResponse(frame.payload, &resp, &err)) << err;
        EXPECT_TRUE(resp.ok) << resp.error;
        EXPECT_TRUE(NetClient::matchesOracle(
            reqs[static_cast<std::size_t>(frame.header.tag)], resp));
        got[static_cast<std::size_t>(frame.header.tag)] = true;
    }
    for (int i = 0; i < kRequests; ++i)
        EXPECT_TRUE(got[static_cast<std::size_t>(i)]) << i;
    // After the last owed response the server closes the connection.
    EXPECT_TRUE(conn.awaitClose());
}

TEST(NetServer, PipelinedBatchSurvivesServerBackpressure)
{
    // Regression: submitBatch() used to write the whole pipeline
    // before reading anything. With the server's per-connection
    // output cap tripped (it stops reading clients whose pending
    // responses exceed maxQueuedOutputBytes) and a deliberately tiny
    // client send buffer, that wedges both sides forever: the server
    // waits for the client to drain responses, the client waits for
    // the socket to accept more SUBMIT bytes. The fixed client
    // interleaves sends with reads, so this completes instead of
    // deadlocking (a hang here fails via the ctest timeout).
    NetServer::Options opts = smallServerOptions();
    opts.maxQueuedOutputBytes = 16u << 10;
    NetServer server(opts);
    ASSERT_TRUE(server.start()) << server.error();

    NetClient client;
    client.setSendBufferBytes(4096);
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()))
        << client.lastError();

    // ~40 matmuls at n=16: a few hundred KiB of requests and well
    // over the 16 KiB response cap, so backpressure engages while
    // most of the pipeline is still unsent.
    std::vector<ServeRequest> reqs;
    for (int i = 0; i < 40; ++i)
        reqs.push_back(matMulRequest(9000 + i, /*n=*/16));
    std::vector<NetClient::Result> results = client.submitBatch(reqs);

    ASSERT_EQ(results.size(), reqs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        ASSERT_TRUE(results[i].transportOk)
            << i << ": " << results[i].transportError;
        ASSERT_TRUE(results[i].response.ok)
            << i << ": " << results[i].response.error;
        EXPECT_TRUE(
            NetClient::matchesOracle(reqs[i], results[i].response))
            << i;
    }
}

TEST(NetServer, RestartAfterStopIsRefused)
{
    NetServer server(smallServerOptions());
    ASSERT_TRUE(server.start()) << server.error();
    server.stop();
    EXPECT_FALSE(server.start());
    EXPECT_NE(server.error().find("restarted"), std::string::npos)
        << server.error();
}

TEST(NetServer, StopWhileClientsConnectedIsClean)
{
    NetServer server(smallServerOptions());
    ASSERT_TRUE(server.start()) << server.error();
    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    NetClient::Result r = client.submit(matVecRequest(1));
    ASSERT_TRUE(r.transportOk && r.response.ok);
    server.stop();
    // The socket is gone; the client sees a transport failure, not a
    // hang.
    r = client.submit(matVecRequest(2));
    EXPECT_FALSE(r.transportOk);
}

//---------------------------------------------------------------------
// Delivery from the shard workers: backpressure and lifetimes
//---------------------------------------------------------------------

TEST(NetServer, PipelinePastOutputCapStopsReadsUntilClientReads)
{
    // Responses are queued and written by the shard workers, not the
    // IO thread; the worker whose response pushes a connection over
    // maxQueuedOutputBytes must still get the IO thread to stop
    // reading from it. A client that pipelines without reading thus
    // stalls at a bounded frame count, and is answered in full once
    // it reads.
    NetServer::Options opts = smallServerOptions();
    opts.maxQueuedOutputBytes = 16u << 10;
    NetServer server(opts);
    ASSERT_TRUE(server.start()) << server.error();

    RawConn conn(server.port(), /*rcvbuf=*/4096);
    ASSERT_TRUE(conn.ok());
    // 32 KiB responses (C is 64×64) from a cheap product (inner
    // dimension 8): the kernel socket buffers absorb a bounded number,
    // the rest must wait in the server's output queue.
    constexpr int kRequests = 300;
    ServeRequest req;
    req.engine = "mesh";
    req.plan = EnginePlan::matMul(randomIntDense(64, 8, 4400),
                                  randomIntDense(8, 64, 4401),
                                  randomIntDense(64, 64, 4402), 8);
    req.plan.mode = ExecMode::Fast;
    std::vector<std::uint8_t> submit = buildSubmitFrame(0, req);
    std::thread sender([&] {
        for (int i = 0; i < kRequests; ++i) {
            // At most 8 requests ahead of the responses: the pipeline
            // advances exactly as fast as the server reads and serves
            // it, however slow serving is, and stalls when reads stop.
            while (static_cast<std::uint64_t>(i) >
                   server.netStats().responsesSent + 8)
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            // Same request under a fresh tag: patch the header's tag.
            const std::uint64_t tag = static_cast<std::uint64_t>(i);
            std::memcpy(submit.data() + 8, &tag, sizeof(tag));
            conn.send(submit);
        }
    });

    // framesReceived stops growing short of the whole pipeline.
    std::uint64_t plateau = 0;
    ASSERT_TRUE(eventually([&] {
        const std::uint64_t before = server.netStats().framesReceived;
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        plateau = server.netStats().framesReceived;
        return plateau > 0 && plateau == before;
    })) << "reads never stopped";
    EXPECT_LT(plateau, static_cast<std::uint64_t>(kRequests));
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_EQ(server.netStats().framesReceived, plateau);

    // Reading drains the queue; reads resume and every tag is
    // answered exactly once.
    const Dense<Scalar> gold = matMulAdd(req.plan.a, req.plan.bmat,
                                         req.plan.e);
    std::vector<int> answers(kRequests, 0);
    for (int i = 0; i < kRequests; ++i) {
        Frame frame;
        ASSERT_TRUE(conn.readFrame(&frame)) << "response " << i;
        ASSERT_EQ(frame.header.type,
                  static_cast<std::uint16_t>(FrameType::Response));
        ASSERT_LT(frame.header.tag,
                  static_cast<std::uint64_t>(kRequests));
        ++answers[static_cast<std::size_t>(frame.header.tag)];
        if (i % 50 == 0) {
            WireResponse resp;
            std::string err;
            ASSERT_TRUE(decodeResponse(frame.payload, &resp, &err))
                << err;
            ASSERT_TRUE(resp.ok) << resp.error;
            EXPECT_TRUE(resp.c == gold) << "tag " << frame.header.tag;
        }
    }
    sender.join();
    for (int i = 0; i < kRequests; ++i)
        EXPECT_EQ(answers[static_cast<std::size_t>(i)], 1) << "tag " << i;
    EXPECT_EQ(server.netStats().framesReceived,
              static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(server.netStats().responsesSent,
              static_cast<std::uint64_t>(kRequests));
}

TEST(NetServer, AbruptCloseWithSimulateBatchInFlightLeaksNothing)
{
    // A client resets its connection while a pipelined Simulate batch
    // is still being served: its completions reach a dead (or dying)
    // connection from the shard workers. Another client keeps being
    // served, the owed count drains, and the server's fd goes too.
    NetServer server(smallServerOptions());
    ASSERT_TRUE(server.start()) << server.error();
    NetClient control;
    ASSERT_TRUE(control.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(control.ping());
    const int fds_before = openFdCount();
    ASSERT_GT(fds_before, 0);

    constexpr int kBatch = 24;
    {
        RawConn conn(server.port());
        ASSERT_TRUE(conn.ok());
        for (int i = 0; i < kBatch; ++i)
            conn.send(buildSubmitFrame(
                static_cast<std::uint64_t>(i),
                matMulRequest(5100 + static_cast<std::uint64_t>(i),
                              /*n=*/24, /*w=*/4)));
        ASSERT_TRUE(eventually([&] {
            return server.netStats().framesReceived >=
                   static_cast<std::uint64_t>(kBatch) + 1;
        }));
        conn.abort();
    }

    for (int i = 0; i < 5; ++i) {
        ServeRequest req = matVecRequest(5200 + i);
        NetClient::Result r = control.submit(req);
        ASSERT_TRUE(r.transportOk) << r.transportError;
        ASSERT_TRUE(r.response.ok) << r.response.error;
        EXPECT_TRUE(NetClient::matchesOracle(req, r.response));
    }

    // Every request of the batch was served (and its response
    // dropped or written into the reset socket), nothing stays owed,
    // and the server-side socket is closed.
    EXPECT_TRUE(eventually([&] {
        return server.cluster().statsSnapshot().requests ==
               static_cast<std::uint64_t>(kBatch) + 5;
    }));
    EXPECT_TRUE(eventually([&] { return server.responsesOwed() == 0; }));
    EXPECT_TRUE(eventually([&] { return openFdCount() == fds_before; }))
        << openFdCount() << " fds open, " << fds_before << " before";
    EXPECT_TRUE(control.ping()) << control.lastError();
}

TEST(NetServer, SnapshotFramesInterleaveWithPipelinedSubmits)
{
    // STATS, METRICS and TRACES are answered inline on the IO thread
    // while SUBMIT responses arrive from the shard workers; on one
    // pipelined connection every tag still gets exactly one answer
    // of the right type.
    NetServer::Options opts = smallServerOptions();
    opts.trace.enabled = true;
    opts.trace.sampleEvery = 1;
    NetServer server(opts);
    ASSERT_TRUE(server.start()) << server.error();

    RawConn conn(server.port());
    ASSERT_TRUE(conn.ok());
    const FrameType snapshots[] = {FrameType::Stats, FrameType::Metrics,
                                   FrameType::Traces};
    std::map<std::uint64_t, FrameType> expected;
    std::map<std::uint64_t, ServeRequest> submitted;
    std::vector<std::uint8_t> pipeline;
    for (std::uint64_t tag = 0; tag < 60; ++tag) {
        std::vector<std::uint8_t> frame;
        if (tag % 4 == 3) {
            const FrameType type = snapshots[(tag / 4) % 3];
            frame = buildFrame(type, tag, {});
            expected[tag] = type;
        } else {
            ServeRequest req = tag % 2 ? triSolveRequest(6000 + tag)
                                       : matVecRequest(6000 + tag);
            frame = buildSubmitFrame(tag, req);
            submitted[tag] = req;
            expected[tag] = FrameType::Response;
        }
        pipeline.insert(pipeline.end(), frame.begin(), frame.end());
    }
    conn.send(pipeline);

    std::map<std::uint64_t, int> answers;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        Frame frame;
        ASSERT_TRUE(conn.readFrame(&frame)) << "answer " << i;
        auto it = expected.find(frame.header.tag);
        ASSERT_NE(it, expected.end()) << "tag " << frame.header.tag;
        EXPECT_EQ(frame.header.type,
                  static_cast<std::uint16_t>(it->second))
            << "tag " << frame.header.tag;
        ++answers[frame.header.tag];
        std::string err;
        if (it->second == FrameType::Response) {
            WireResponse resp;
            ASSERT_TRUE(decodeResponse(frame.payload, &resp, &err))
                << err;
            EXPECT_TRUE(resp.ok) << resp.error;
            EXPECT_TRUE(NetClient::matchesOracle(
                submitted[frame.header.tag], resp));
        } else if (it->second == FrameType::Stats) {
            ServerStats stats;
            EXPECT_TRUE(decodeStats(frame.payload, &stats, &err)) << err;
        } else if (it->second == FrameType::Metrics) {
            MetricsSnapshot snap;
            EXPECT_TRUE(decodeMetrics(frame.payload, &snap, &err))
                << err;
        } else {
            std::vector<RequestTrace> traces;
            std::uint64_t total = 0;
            EXPECT_TRUE(
                decodeTraces(frame.payload, &traces, &total, &err))
                << err;
        }
    }
    for (const auto &entry : expected)
        EXPECT_EQ(answers[entry.first], 1) << "tag " << entry.first;
    EXPECT_EQ(server.responsesOwed(), 0u);
}

//---------------------------------------------------------------------
// Malformed-frame suite: ERROR frames, healthy server
//---------------------------------------------------------------------

/**
 * Fixture driving a healthy control client alongside each
 * malformed-input connection: after every abuse, the control client
 * must still be served correctly.
 */
class NetServerMalformed : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        server = std::make_unique<NetServer>(smallServerOptions());
        ASSERT_TRUE(server->start()) << server->error();
        ASSERT_TRUE(control.connect("127.0.0.1", server->port()))
            << control.lastError();
    }

    void
    expectServerStillHealthy()
    {
        ServeRequest req = matVecRequest(31337);
        NetClient::Result r = control.submit(req);
        ASSERT_TRUE(r.transportOk) << r.transportError;
        ASSERT_TRUE(r.response.ok) << r.response.error;
        EXPECT_TRUE(NetClient::matchesOracle(req, r.response));
    }

    std::unique_ptr<NetServer> server;
    NetClient control;
};

TEST_F(NetServerMalformed, BadMagicGetsErrorThenClose)
{
    RawConn conn(server->port());
    ASSERT_TRUE(conn.ok());
    std::vector<std::uint8_t> bytes = buildPingFrame(1);
    bytes[0] ^= 0xFF;
    conn.send(bytes);

    Frame frame;
    ASSERT_TRUE(conn.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Error));
    std::string message, err;
    ASSERT_TRUE(decodeError(frame.payload, &message, &err));
    EXPECT_NE(message.find("magic"), std::string::npos) << message;
    // Frame-level: the stream cannot re-sync, so the server closes.
    EXPECT_TRUE(conn.awaitClose());
    expectServerStillHealthy();
}

TEST_F(NetServerMalformed, BadVersionGetsErrorThenClose)
{
    RawConn conn(server->port());
    ASSERT_TRUE(conn.ok());
    std::vector<std::uint8_t> bytes = buildPingFrame(1);
    bytes[4] = 0x42;
    conn.send(bytes);

    Frame frame;
    ASSERT_TRUE(conn.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Error));
    std::string message, err;
    ASSERT_TRUE(decodeError(frame.payload, &message, &err));
    EXPECT_NE(message.find("version"), std::string::npos) << message;
    EXPECT_TRUE(conn.awaitClose());
    expectServerStillHealthy();
}

TEST_F(NetServerMalformed, OversizedLengthPrefixGetsErrorThenClose)
{
    RawConn conn(server->port());
    ASSERT_TRUE(conn.ok());
    WireWriter w;
    w.u32(kWireMagic);
    w.u16(kWireVersion);
    w.u16(static_cast<std::uint16_t>(FrameType::Submit));
    w.u64(9);
    w.u32(0xF0000000u); // 3.75 GiB "payload"
    conn.send(w.take());

    Frame frame;
    ASSERT_TRUE(conn.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Error));
    std::string message, err;
    ASSERT_TRUE(decodeError(frame.payload, &message, &err));
    EXPECT_NE(message.find("cap"), std::string::npos) << message;
    EXPECT_TRUE(conn.awaitClose());
    expectServerStillHealthy();
}

TEST_F(NetServerMalformed, TruncatedSubmitPayloadKeepsConnection)
{
    RawConn conn(server->port());
    ASSERT_TRUE(conn.ok());
    // A syntactically framed SUBMIT whose payload is cut short:
    // payload-level, so the connection survives.
    ServeRequest req = matVecRequest(5);
    std::vector<std::uint8_t> payload = encodeSubmit(req);
    payload.resize(payload.size() / 2);
    conn.send(buildFrame(FrameType::Submit, 11, payload));

    Frame frame;
    ASSERT_TRUE(conn.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Error));
    EXPECT_EQ(frame.header.tag, 11u);

    // Same connection serves a well-formed request afterwards.
    conn.send(buildSubmitFrame(12, req));
    ASSERT_TRUE(conn.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Response));
    EXPECT_EQ(frame.header.tag, 12u);
    WireResponse resp;
    std::string err;
    ASSERT_TRUE(decodeResponse(frame.payload, &resp, &err)) << err;
    EXPECT_TRUE(resp.ok);
    EXPECT_TRUE(NetClient::matchesOracle(req, resp));
    expectServerStillHealthy();
}

TEST_F(NetServerMalformed, UnknownProblemKindKeepsConnection)
{
    RawConn conn(server->port());
    ASSERT_TRUE(conn.ok());
    WireWriter w;
    w.str("linear");
    w.u8(42); // no such kind
    w.i64(3);
    w.u8(0);
    conn.send(buildFrame(FrameType::Submit, 21, w.take()));

    Frame frame;
    ASSERT_TRUE(conn.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Error));
    EXPECT_EQ(frame.header.tag, 21u);
    std::string message, err;
    ASSERT_TRUE(decodeError(frame.payload, &message, &err));
    EXPECT_NE(message.find("unknown problem kind"), std::string::npos)
        << message;

    ServeRequest req = matVecRequest(6);
    conn.send(buildSubmitFrame(22, req));
    ASSERT_TRUE(conn.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Response));
    expectServerStillHealthy();
}

TEST_F(NetServerMalformed, ZeroDimensionMatrixKeepsConnection)
{
    RawConn conn(server->port());
    ASSERT_TRUE(conn.ok());
    WireWriter w;
    w.str("linear");
    w.u8(0); // MatVec
    w.i64(3);
    w.u8(0);
    w.i64(0); // A rows = 0
    w.i64(4); // A cols
    w.i64(4); // x length
    for (int i = 0; i < 4; ++i)
        w.f64(1.0);
    w.i64(0); // b length
    conn.send(buildFrame(FrameType::Submit, 31, w.take()));

    Frame frame;
    ASSERT_TRUE(conn.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Error));
    EXPECT_EQ(frame.header.tag, 31u);
    std::string message, err;
    ASSERT_TRUE(decodeError(frame.payload, &message, &err));
    EXPECT_NE(message.find("zero-dimension"), std::string::npos)
        << message;
    expectServerStillHealthy();
}

TEST_F(NetServerMalformed, RecordTraceRequestIsRejectedNotDropped)
{
    // RESPONSE frames carry no trace, so a SUBMIT asking for one is
    // refused with an explicit error instead of silently serving a
    // traceless result (the flags byte carries the bit precisely so
    // the server can catch this).
    RawConn conn(server->port());
    ASSERT_TRUE(conn.ok());
    ServeRequest req = matVecRequest(8);
    req.plan.recordTrace = true;
    conn.send(buildSubmitFrame(61, req));

    Frame frame;
    ASSERT_TRUE(conn.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Error));
    EXPECT_EQ(frame.header.tag, 61u);
    std::string message, err;
    ASSERT_TRUE(decodeError(frame.payload, &message, &err));
    EXPECT_NE(message.find("no trace"), std::string::npos) << message;

    // Payload-level: the same connection keeps serving.
    req.plan.recordTrace = false;
    conn.send(buildSubmitFrame(62, req));
    ASSERT_TRUE(conn.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Response));
    EXPECT_EQ(frame.header.tag, 62u);
    expectServerStillHealthy();
}

TEST_F(NetServerMalformed, UnknownFrameTypeKeepsConnection)
{
    RawConn conn(server->port());
    ASSERT_TRUE(conn.ok());
    conn.send(buildFrame(static_cast<FrameType>(200), 41, {9, 9}));

    Frame frame;
    ASSERT_TRUE(conn.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Error));
    EXPECT_EQ(frame.header.tag, 41u);

    conn.send(buildPingFrame(42));
    ASSERT_TRUE(conn.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Ping));
    EXPECT_EQ(frame.header.tag, 42u);
    expectServerStillHealthy();
}

TEST_F(NetServerMalformed, MidFrameDisconnectLeavesServerHealthy)
{
    {
        RawConn conn(server->port());
        ASSERT_TRUE(conn.ok());
        ServeRequest req = matVecRequest(7);
        std::vector<std::uint8_t> bytes = buildSubmitFrame(51, req);
        bytes.resize(bytes.size() / 3); // drop mid-frame
        conn.send(bytes);
        // Destructor closes the socket with a frame half-sent.
    }
    expectServerStillHealthy();
    EXPECT_EQ(server->netStats().protocolErrors, 0u);
}

TEST_F(NetServerMalformed, GarbageFloodDoesNotStarveOtherClients)
{
    RawConn conn(server->port());
    ASSERT_TRUE(conn.ok());
    std::vector<std::uint8_t> garbage(4096, 0xAB);
    conn.send(garbage);

    Frame frame;
    ASSERT_TRUE(conn.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Error));
    EXPECT_TRUE(conn.awaitClose());
    expectServerStillHealthy();
    EXPECT_GE(server->netStats().protocolErrors, 1u);
}

} // namespace
} // namespace sap
