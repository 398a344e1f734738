/**
 * @file
 * Chaos and routing tests for the gateway tier (net/gateway.hh): an
 * unmodified NetClient served correctly through the front door,
 * digest-sticky routing into per-backend plan caches, scatter-gather
 * snapshots, and — the point of the tier — fault injection: a
 * backend killed mid-stream with unacknowledged SUBMITs must cost no
 * client an answer. Every request ends in a correct RESPONSE
 * (post-failover, oracle-checked) or a clean ERROR frame; a tag is
 * never dropped and never answered twice (a duplicate would surface
 * as NetClient's unknown-tag protocol violation and fail the run).
 *
 * The injected faults come from FlakyBackend, an in-test backend
 * that speaks just enough of the wire protocol to become routable
 * (it answers PINGs), absorbs FORWARDs without ever answering them,
 * and drops dead — connection and listener both — after a
 * configured number of absorbed requests. That models the worst
 * failure shape: a backend that took work, acknowledged nothing,
 * and vanished.
 *
 * Everything here runs under TSan in CI; cross-thread test state is
 * atomics only.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "mat/generate.hh"
#include "net/client.hh"
#include "net/gateway.hh"
#include "net/server.hh"

#include "flaky_backend.hh"

namespace sap {
namespace {

NetServer::Options
backendOptions()
{
    NetServer::Options opts;
    opts.cluster.shards = 2;
    opts.cluster.threadsPerShard = 2;
    return opts;
}

Gateway::Options
gatewayOptions(std::vector<Gateway::BackendAddr> backends)
{
    Gateway::Options opts;
    opts.backends = std::move(backends);
    // Test-speed timings: fast pings and reconnects so failure
    // detection fits in a test, not a deployment.
    opts.pingIntervalMs = 25;
    opts.pingMissLimit = 4;
    opts.reconnectIntervalMs = 50;
    opts.healthzIntervalMs = 0; // probed-plane tests opt back in
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
matMulRequest(std::uint64_t seed, Index n = 5, Index w = 3)
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

/** Spin (with sleeps) until @p pred or @p timeout_ms elapses. */
template <typename Pred>
bool
waitUntil(Pred pred, int timeout_ms = 5000)
{
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    while (!pred()) {
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
}

// FlakyBackend now lives in flaky_backend.hh, shared with the
// trace-propagation suite.

/**
 * A raw loopback connection for crafting frames below the NetClient
 * abstraction (cf. test_net_server.cc's RawConn).
 */
class RawGatewayConn
{
  public:
    explicit RawGatewayConn(std::uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
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

    ~RawGatewayConn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    bool ok() const { return fd_ >= 0; }

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

  private:
    int fd_ = -1;
    FrameDecoder decoder_;
};

/** Find a loopback port that is currently free (bind 0, read, close).
 *  Races are possible in principle; in the test container they are
 *  not a practical concern. */
std::uint16_t
freeLoopbackPort()
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr));
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len);
    std::uint16_t port = ntohs(addr.sin_port);
    ::close(fd);
    return port;
}

//----------------------------------------------------------------------
// Routing correctness through a healthy gateway.
//----------------------------------------------------------------------

TEST(Gateway, ServesEveryKindThroughTheFrontDoor)
{
    NetServer a(backendOptions()), b(backendOptions());
    ASSERT_TRUE(a.start()) << a.error();
    ASSERT_TRUE(b.start()) << b.error();

    Gateway gw(gatewayOptions(
        {{"127.0.0.1", a.port(), 0}, {"127.0.0.1", b.port(), 0}}));
    ASSERT_TRUE(gw.start()) << gw.error();
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 2; }))
        << "backends never became routable";

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", gw.port()))
        << client.lastError();

    std::vector<ServeRequest> reqs;
    for (int i = 0; i < 4; ++i) {
        reqs.push_back(matVecRequest(1000 + 10 * i));
        reqs.push_back(matMulRequest(2000 + 10 * i));
        reqs.push_back(triSolveRequest(3000 + 10 * i));
    }
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

    GatewayStats gs = gw.stats();
    EXPECT_GE(gs.requestsRouted, reqs.size());
    EXPECT_GE(gs.responsesRelayed, reqs.size());
    EXPECT_EQ(gs.failovers, 0u);

    // Both backends must actually carry traffic — the ring spreads
    // 12 distinct digests over 2 backends, so a backend with zero
    // requests means routing collapsed to one leg.
    ServerStats sa, sb;
    NetClient ca, cb;
    ASSERT_TRUE(ca.connect("127.0.0.1", a.port()));
    ASSERT_TRUE(cb.connect("127.0.0.1", b.port()));
    ASSERT_TRUE(ca.stats(&sa));
    ASSERT_TRUE(cb.stats(&sb));
    EXPECT_GT(sa.requests, 0u);
    EXPECT_GT(sb.requests, 0u);
    EXPECT_EQ(sa.requests + sb.requests, reqs.size());
}

TEST(Gateway, StatsAndMetricsScatterGatherAcrossBackends)
{
    NetServer a(backendOptions()), b(backendOptions());
    ASSERT_TRUE(a.start()) << a.error();
    ASSERT_TRUE(b.start()) << b.error();
    Gateway gw(gatewayOptions(
        {{"127.0.0.1", a.port(), 0}, {"127.0.0.1", b.port(), 0}}));
    ASSERT_TRUE(gw.start()) << gw.error();
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 2; }));

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", gw.port()));
    std::vector<ServeRequest> reqs;
    for (int i = 0; i < 8; ++i)
        reqs.push_back(matVecRequest(4000 + 10 * i));
    for (const NetClient::Result &r : client.submitBatch(reqs)) {
        ASSERT_TRUE(r.transportOk) << r.transportError;
        ASSERT_TRUE(r.response.ok) << r.response.error;
    }

    // STATS through the gateway = the merge of both backends.
    ServerStats merged;
    ASSERT_TRUE(client.stats(&merged)) << client.lastError();
    EXPECT_EQ(merged.requests, reqs.size());

    // METRICS likewise merges the backends' registries; the serving
    // counter must cover every request exactly once.
    MetricsSnapshot snap;
    ASSERT_TRUE(client.metrics(&snap)) << client.lastError();
    auto it = snap.counters.find("net_frames_received_total");
    ASSERT_NE(it, snap.counters.end())
        << "merged metrics carry no net-layer counters";
    EXPECT_GE(it->second, reqs.size());

    // PING is answered at the gateway itself.
    EXPECT_TRUE(client.ping()) << client.lastError();
}

TEST(Gateway, RoutingIsDigestStickyIntoBackendPlanCaches)
{
    NetServer a(backendOptions()), b(backendOptions());
    ASSERT_TRUE(a.start()) << a.error();
    ASSERT_TRUE(b.start()) << b.error();
    Gateway gw(gatewayOptions(
        {{"127.0.0.1", a.port(), 0}, {"127.0.0.1", b.port(), 0}}));
    ASSERT_TRUE(gw.start()) << gw.error();
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 2; }));

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", gw.port()));

    // Same matrix (= same plan digest), fresh vector: the second
    // submit must land on the same backend — and there, in its plan
    // cache. Ten distinct matrices so both ring legs participate.
    for (int i = 0; i < 10; ++i) {
        ServeRequest req = matVecRequest(5000 + 100 * i);
        NetClient::Result first = client.submit(req);
        ASSERT_TRUE(first.transportOk && first.response.ok)
            << first.transportError << first.response.error;
        EXPECT_FALSE(first.response.cacheHit) << i;

        req.plan.x = randomIntVec(req.plan.a.cols(), 6000 + i);
        NetClient::Result second = client.submit(req);
        ASSERT_TRUE(second.transportOk && second.response.ok);
        EXPECT_TRUE(second.response.cacheHit)
            << i << ": resubmit missed the plan cache — digest "
                    "routing is not sticky";
        EXPECT_TRUE(NetClient::matchesOracle(req, second.response));
    }
}

TEST(Gateway, UnexpectedFrameEarnsErrorAndConnectionSurvives)
{
    NetServer a(backendOptions());
    ASSERT_TRUE(a.start()) << a.error();
    Gateway gw(gatewayOptions({{"127.0.0.1", a.port(), 0}}));
    ASSERT_TRUE(gw.start()) << gw.error();
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 1; }));

    // A RESPONSE frame from a client is nonsense at the gateway: it
    // must earn a payload-level ERROR on the same tag — and the
    // connection must keep serving afterwards.
    RawGatewayConn raw(gw.port());
    ASSERT_TRUE(raw.ok());
    WireResponse bogus;
    bogus.ok = true;
    raw.send(buildResponseFrame(77, bogus));
    Frame frame;
    ASSERT_TRUE(raw.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Error));
    EXPECT_EQ(frame.header.tag, 77u);
    std::string message, err;
    ASSERT_TRUE(decodeError(frame.payload, &message, &err)) << err;
    EXPECT_NE(message.find("unexpected"), std::string::npos)
        << message;

    // Still alive: a PING on the same connection echoes.
    raw.send(buildPingFrame(78));
    ASSERT_TRUE(raw.readFrame(&frame));
    EXPECT_EQ(frame.header.type,
              static_cast<std::uint16_t>(FrameType::Ping));
    EXPECT_EQ(frame.header.tag, 78u);
}

//----------------------------------------------------------------------
// Fault injection.
//----------------------------------------------------------------------

TEST(Gateway, NoRoutableBackendYieldsCleanErrorNotAHang)
{
    // The only configured backend does not exist.
    Gateway gw(gatewayOptions({{"127.0.0.1", freeLoopbackPort(), 0}}));
    ASSERT_TRUE(gw.start()) << gw.error();
    EXPECT_EQ(gw.routableBackends(), 0u);

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", gw.port()));
    NetClient::Result r = client.submit(matVecRequest(7200));
    ASSERT_TRUE(r.transportOk) << r.transportError;
    EXPECT_FALSE(r.response.ok);
    EXPECT_NE(r.response.error.find("no routable backend"),
              std::string::npos)
        << r.response.error;
    EXPECT_GE(gw.stats().errorsReturned, 1u);
}

TEST(Gateway, FailoverMidStreamLosesNoClientAndNoTag)
{
    // One honest backend, one flaky one that dies after absorbing 3
    // unacknowledged FORWARDs. Several client threads stream fresh
    // requests through the gateway the whole time. The contract:
    // every submit ends in a correct oracle-checked RESPONSE (the
    // in-flight ones via failover to the survivor) — never a hang,
    // never a dropped tag, and never a duplicate (a duplicated tag
    // would make NetClient::submitBatch fail the stream with an
    // unknown-tag protocol violation).
    NetServer honest(backendOptions());
    ASSERT_TRUE(honest.start()) << honest.error();
    FlakyBackend flaky(/*kill_after=*/3);

    Gateway gw(gatewayOptions({{"127.0.0.1", honest.port(), 0},
                               {"127.0.0.1", flaky.port(), 0}}));
    ASSERT_TRUE(gw.start()) << gw.error();
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 2; }))
        << "flaky backend never became routable";

    const int kThreads = 3;
    std::atomic<std::uint64_t> next_seed{10000};
    std::atomic<bool> done{false};
    std::atomic<int> served{0}, errored{0}, violations{0};

    std::vector<std::thread> clients;
    for (int t = 0; t < kThreads; ++t) {
        clients.emplace_back([&] {
            NetClient client;
            if (!client.connect("127.0.0.1", gw.port())) {
                violations.fetch_add(1);
                return;
            }
            while (!done.load()) {
                std::vector<ServeRequest> reqs;
                for (int i = 0; i < 4; ++i)
                    reqs.push_back(matVecRequest(
                        next_seed.fetch_add(100)));
                std::vector<NetClient::Result> results =
                    client.submitBatch(reqs);
                for (std::size_t i = 0; i < results.size(); ++i) {
                    const NetClient::Result &r = results[i];
                    if (!r.transportOk) {
                        // Transport failures (incl. duplicate-tag
                        // protocol violations) are test failures.
                        violations.fetch_add(1);
                        return;
                    }
                    if (!r.response.ok) {
                        // A clean ERROR is permitted by the
                        // contract (resubmit budget); with one
                        // failover and budget 2 it should not
                        // actually happen — counted, asserted 0
                        // below.
                        errored.fetch_add(1);
                    } else if (!NetClient::matchesOracle(
                                   reqs[i], r.response)) {
                        violations.fetch_add(1);
                    } else {
                        served.fetch_add(1);
                    }
                }
            }
        });
    }

    // Run until the gateway has seen the backend die and failed
    // over, then a little longer to prove the survivor carries the
    // full stream.
    EXPECT_TRUE(waitUntil(
        [&] { return gw.stats().failovers >= 1; }, 20000))
        << "flaky backend never died (absorbed "
        << flaky.forwardsAbsorbed() << " forwards)";
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    done.store(true);
    for (std::thread &t : clients)
        t.join();

    EXPECT_EQ(violations.load(), 0);
    EXPECT_EQ(errored.load(), 0)
        << "a request burned its whole resubmit budget on one "
           "failover";
    EXPECT_GT(served.load(), 0);
    EXPECT_TRUE(flaky.dead());

    GatewayStats gs = gw.stats();
    EXPECT_GE(gs.failovers, 1u);
    EXPECT_GE(gs.resubmits, 1u)
        << "the absorbed FORWARDs were not migrated";
    EXPECT_EQ(gw.routableBackends(), 1u);

    // And the tier keeps serving new work after the chaos.
    NetClient after;
    ASSERT_TRUE(after.connect("127.0.0.1", gw.port()));
    ServeRequest req = matVecRequest(999999);
    NetClient::Result r = after.submit(req);
    ASSERT_TRUE(r.transportOk && r.response.ok)
        << r.transportError << r.response.error;
    EXPECT_TRUE(NetClient::matchesOracle(req, r.response));
}

TEST(Gateway, ResubmittedForwardCarriesTheSamePayloadBytes)
{
    // Both backends absorb one FORWARD and die. The request goes to
    // one, is resubmitted to the other on failover, and then has
    // nowhere left to go (a clean ERROR). Each attempt must carry the
    // client's SUBMIT payload byte for byte behind its own envelope:
    // the resubmit re-sends the buffer the gateway kept, it does not
    // re-encode or copy it (NetOutQueue.ForwardFrameSharesThePayload-
    // Buffer pins the sharing itself).
    FlakyBackend first(/*kill_after=*/1), second(/*kill_after=*/1);
    Gateway::Options opts =
        gatewayOptions({{"127.0.0.1", first.port(), 0},
                        {"127.0.0.1", second.port(), 0}});
    opts.trace.enabled = true; // envelopes carry the attempt counter
    opts.trace.sampleEvery = 1;
    Gateway gw(opts);
    ASSERT_TRUE(gw.start()) << gw.error();
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 2; }));

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", gw.port()));
    const ServeRequest req = matVecRequest(4242, 64, 8);
    NetClient::Result r = client.submit(req);
    ASSERT_TRUE(r.transportOk) << r.transportError;
    EXPECT_FALSE(r.response.ok);

    std::vector<FlakyBackend::Absorbed> got = first.absorbed();
    for (FlakyBackend::Absorbed &a : second.absorbed())
        got.push_back(std::move(a));
    ASSERT_EQ(got.size(), 2u);
    const std::vector<std::uint8_t> want = encodeSubmit(req);
    EXPECT_TRUE(got[0].submitPayload == want);
    EXPECT_TRUE(got[1].submitPayload == want);
    EXPECT_EQ(got[0].attempt + got[1].attempt, 1)
        << "one first delivery, one resubmit";
    EXPECT_GE(gw.stats().resubmits, 1u);
}

TEST(Gateway, LastBackendDyingFailsInflightCleanly)
{
    // The flaky backend is the ONLY backend: when it dies holding
    // unacknowledged SUBMITs there is nowhere to fail over to, so
    // every in-flight request must come back as a prompt, clean
    // ERROR — the client must never hang on a dead backend.
    FlakyBackend flaky(/*kill_after=*/1);
    Gateway gw(gatewayOptions({{"127.0.0.1", flaky.port(), 0}}));
    ASSERT_TRUE(gw.start()) << gw.error();
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 1; }));

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", gw.port()));
    std::vector<ServeRequest> reqs;
    for (int i = 0; i < 4; ++i)
        reqs.push_back(matVecRequest(20000 + 100 * i));
    std::vector<NetClient::Result> results = client.submitBatch(reqs);

    ASSERT_EQ(results.size(), reqs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        ASSERT_TRUE(results[i].transportOk)
            << i << ": " << results[i].transportError;
        EXPECT_FALSE(results[i].response.ok) << i;
        EXPECT_FALSE(results[i].response.error.empty()) << i;
    }
    EXPECT_TRUE(flaky.dead());
    GatewayStats gs = gw.stats();
    EXPECT_GE(gs.failovers, 1u);
    EXPECT_GE(gs.errorsReturned, reqs.size());
}

TEST(Gateway, DeadBackendRejoinsTheRingOnRecovery)
{
    std::uint16_t port = freeLoopbackPort();
    NetServer::Options opts = backendOptions();
    opts.port = port;
    auto server = std::make_unique<NetServer>(opts);
    ASSERT_TRUE(server->start()) << server->error();

    Gateway gw(gatewayOptions({{"127.0.0.1", port, 0}}));
    ASSERT_TRUE(gw.start()) << gw.error();
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 1; }));

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", gw.port()));
    NetClient::Result r = client.submit(matVecRequest(30000));
    ASSERT_TRUE(r.transportOk && r.response.ok);

    // Kill the backend; the gateway must pull it from the ring and
    // answer new work with a clean ERROR.
    server->stop();
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 0; }))
        << "gateway never noticed the backend die";
    r = client.submit(matVecRequest(30100));
    ASSERT_TRUE(r.transportOk) << r.transportError;
    EXPECT_FALSE(r.response.ok);

    // Revive it on the same port; the reconnect loop must bring it
    // back into the ring and traffic must flow again.
    server = std::make_unique<NetServer>(opts);
    ASSERT_TRUE(server->start()) << server->error();
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 1; },
                          10000))
        << "backend never rejoined after recovery";
    ServeRequest req = matVecRequest(30200);
    r = client.submit(req);
    ASSERT_TRUE(r.transportOk && r.response.ok)
        << r.transportError << r.response.error;
    EXPECT_TRUE(NetClient::matchesOracle(req, r.response));
}

//----------------------------------------------------------------------
// The /healthz probe plane.
//----------------------------------------------------------------------

TEST(Gateway, HealthzProbeAnswersAgainstARealAdminPlane)
{
    NetServer::Options opts = backendOptions();
    opts.admin.enabled = true;
    NetServer server(opts);
    ASSERT_TRUE(server.start()) << server.error();

    EXPECT_TRUE(probeHealthz("127.0.0.1", server.adminPort(), 1000));
    // Nothing listens on a freshly-freed port: probe must fail fast,
    // not hang.
    EXPECT_FALSE(probeHealthz("127.0.0.1", freeLoopbackPort(), 1000));
}

TEST(Gateway, FailingHealthzProbePullsBackendFromRing)
{
    // The backend's data plane is perfectly healthy — TCP connects,
    // PINGs answer — but its configured admin port is dead. The
    // prober must veto routability: that is how an operator drains a
    // backend (flip /healthz to 503) without killing its socket.
    NetServer server(backendOptions());
    ASSERT_TRUE(server.start()) << server.error();

    std::vector<Gateway::BackendAddr> addrs = {
        {"127.0.0.1", server.port(), freeLoopbackPort()}};
    Gateway::Options gopts = gatewayOptions(std::move(addrs));
    gopts.healthzIntervalMs = 50;
    Gateway gw(gopts);
    ASSERT_TRUE(gw.start()) << gw.error();

    // The backend may be routable for an instant before the first
    // probe lands; it must settle at 0 and stay there.
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 0; }));
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_EQ(gw.routableBackends(), 0u);

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", gw.port()));
    NetClient::Result r = client.submit(matVecRequest(40000));
    ASSERT_TRUE(r.transportOk) << r.transportError;
    EXPECT_FALSE(r.response.ok);
    EXPECT_NE(r.response.error.find("no routable backend"),
              std::string::npos);
}

TEST(Gateway, GatewayMetricsExposeRoutingAndFailure)
{
    NetServer honest(backendOptions());
    ASSERT_TRUE(honest.start()) << honest.error();
    FlakyBackend flaky(/*kill_after=*/1);
    Gateway gw(gatewayOptions({{"127.0.0.1", honest.port(), 0},
                               {"127.0.0.1", flaky.port(), 0}}));
    ASSERT_TRUE(gw.start()) << gw.error();
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 2; }));

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", gw.port()));
    // Stream until the flaky backend has died and failed over.
    std::uint64_t seed = 50000;
    ASSERT_TRUE(waitUntil(
        [&] {
            std::vector<ServeRequest> reqs;
            for (int i = 0; i < 4; ++i)
                reqs.push_back(matVecRequest(seed += 100));
            for (const NetClient::Result &r :
                 client.submitBatch(reqs)) {
                EXPECT_TRUE(r.transportOk) << r.transportError;
            }
            return gw.stats().failovers >= 1;
        },
        20000));

    MetricsSnapshot snap = gw.metricsSnapshot();
    auto counter = [&](const std::string &name) -> long {
        auto it = snap.counters.find(name);
        return it == snap.counters.end()
                   ? -1
                   : static_cast<long>(it->second);
    };
    EXPECT_GT(counter("gateway_requests_total"), 0);
    EXPECT_GT(counter("gateway_responses_relayed_total"), 0);
    EXPECT_GE(counter("gateway_failovers_total"), 1);
    auto hist = snap.histograms.find("gateway_route_micros");
    ASSERT_NE(hist, snap.histograms.end())
        << "route latency histogram missing";
    EXPECT_GT(hist->second.count, 0u);
}

} // namespace
} // namespace sap
