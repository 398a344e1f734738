/**
 * @file
 * Cross-tier trace propagation tests: the head-sampling decision is
 * made once at the gateway edge, rides the FORWARD trace-context
 * block to the backend, and the two tiers' committed traces stitch
 * into one request view by shared 128-bit trace id — through normal
 * serving, through a mid-request backend death (failover), and out
 * through the gateway's admin /tracez in both stitched and
 * Chrome/Perfetto form.
 *
 * Backends run with sampleEvery = 0 throughout: locally they would
 * never commit a trace, so every backend-side commit observed here
 * is proof the propagated sampled flag — not backend-local sampling
 * — drove the decision.
 *
 * Runs under TSan and ASan+UBSan in CI; cross-thread test state is
 * atomics only.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "checkers.hh"
#include "flaky_backend.hh"
#include "mat/generate.hh"
#include "net/client.hh"
#include "net/gateway.hh"
#include "net/server.hh"
#include "obs/trace_export.hh"

namespace sap {
namespace {

NetServer::Options
backendOptions()
{
    NetServer::Options opts;
    opts.cluster.shards = 2;
    opts.cluster.threadsPerShard = 2;
    opts.trace.enabled = true;
    opts.trace.sampleEvery = 0; // only the propagated flag commits
    return opts;
}

Gateway::Options
gatewayOptions(std::vector<Gateway::BackendAddr> backends,
               std::size_t sample_every = 1)
{
    Gateway::Options opts;
    opts.backends = std::move(backends);
    opts.pingIntervalMs = 25;
    opts.pingMissLimit = 4;
    opts.reconnectIntervalMs = 50;
    opts.healthzIntervalMs = 0;
    opts.trace.enabled = true;
    opts.trace.sampleEvery = sample_every;
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

/** Every stamped stage in @p t is monotonically non-decreasing. */
void
expectMonotoneStamps(const RequestTrace &t)
{
    std::uint64_t prev = 0;
    for (std::size_t s = 0; s < kTraceStages; ++s) {
        if (t.stageNanos[s] == 0)
            continue;
        EXPECT_GE(t.stageNanos[s], prev)
            << "stage " << s << " out of order";
        prev = t.stageNanos[s];
    }
}

TEST(TracePropagation, SampledSubmitStitchesAcrossTiers)
{
    NetServer backend(backendOptions());
    ASSERT_TRUE(backend.start()) << backend.error();
    Gateway gw(gatewayOptions({{"127.0.0.1", backend.port(), 0}}));
    ASSERT_TRUE(gw.start()) << gw.error();
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 1; }));

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", gw.port()));
    ServeRequest req = matVecRequest(31000);
    NetClient::Result r = client.submit(req);
    ASSERT_TRUE(r.transportOk && r.response.ok)
        << r.transportError << r.response.error;
    ASSERT_TRUE(NetClient::matchesOracle(req, r.response));

    // The cross-tier set over the wire: the gateway's own rings plus
    // a scatter-gather over the backend. Both tiers commit just
    // after the client sees its response bytes — wait that out.
    std::vector<RequestTrace> traces;
    std::uint64_t total = 0;
    ASSERT_TRUE(waitUntil([&] {
        traces.clear();
        return client.traces(&traces, &total) && traces.size() >= 2;
    })) << "cross-tier TRACES never returned both parts";
    EXPECT_GE(total, 2u);

    std::vector<StitchedTrace> stitched = stitchTraces(traces);
    ASSERT_EQ(stitched.size(), 1u)
        << "one request must stitch into one group";
    const StitchedTrace &st = stitched[0];
    EXPECT_EQ(st.traceId.size(), 32u);
    ASSERT_EQ(st.parts.size(), 2u);

    // The gateway part leads (it stamped first) and carries the
    // edge stages; the backend part has every pipeline stage.
    const RequestTrace &gwpart = st.parts[0];
    const RequestTrace &bepart = st.parts[1];
    EXPECT_EQ(gwpart.tier, TraceTier::Gateway);
    EXPECT_EQ(bepart.tier, TraceTier::Backend);
    EXPECT_EQ(traceIdHex(gwpart.ctx), traceIdHex(bepart.ctx));
    EXPECT_TRUE(gwpart.ctx.sampled);
    EXPECT_TRUE(bepart.ctx.sampled);
    EXPECT_EQ(bepart.ctx.attempt, 0);
    EXPECT_EQ(gwpart.kind, "matvec");
    EXPECT_EQ(bepart.kind, "matvec");
    for (TraceStage s : {TraceStage::Decode, TraceStage::Route,
                         TraceStage::Dequeue, TraceStage::WriterPop,
                         TraceStage::Flush})
        EXPECT_GT(gwpart.nanosAt(s), 0u)
            << "gateway stage " << traceStageName(s, TraceTier::Gateway)
            << " never stamped";
    for (std::size_t s = 0; s < kTraceStages; ++s)
        EXPECT_GT(bepart.stageNanos[s], 0u)
            << "backend stage " << s << " never stamped";
    expectMonotoneStamps(gwpart);
    expectMonotoneStamps(bepart);

    // The stitched set renders as one valid multi-process Chrome
    // trace: one named lane per tier.
    const std::string chrome = toChromeTraceJson(traces);
    EXPECT_TRUE(JsonChecker(chrome).valid()) << chrome;
    std::size_t lanes = 0;
    for (std::size_t at = chrome.find("\"process_name\"");
         at != std::string::npos;
         at = chrome.find("\"process_name\"", at + 1))
        ++lanes;
    EXPECT_EQ(lanes, 2u);
    EXPECT_NE(chrome.find(st.traceId), std::string::npos);

    gw.stop();
    backend.stop();
}

TEST(TracePropagation, UnsampledRequestsCommitNothingAnywhere)
{
    NetServer backend(backendOptions());
    ASSERT_TRUE(backend.start()) << backend.error();
    // sampleEvery = 0 at the edge too: head sampling never fires, so
    // contexts propagate unsampled and neither tier commits.
    Gateway gw(gatewayOptions({{"127.0.0.1", backend.port(), 0}},
                              /*sample_every=*/0));
    ASSERT_TRUE(gw.start()) << gw.error();
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 1; }));

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", gw.port()));
    for (int i = 0; i < 4; ++i) {
        NetClient::Result r = client.submit(matVecRequest(32000 + i));
        ASSERT_TRUE(r.transportOk && r.response.ok);
    }
    // Let any stray commit land before asserting absence.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::vector<RequestTrace> traces;
    std::uint64_t total = 99;
    ASSERT_TRUE(client.traces(&traces, &total));
    EXPECT_TRUE(traces.empty());
    EXPECT_EQ(total, 0u);

    gw.stop();
    backend.stop();
}

TEST(TracePropagation, FailoverKeepsOneTraceAcrossAttempts)
{
    // A flaky backend absorbs one FORWARD and dies without
    // acknowledging it; the gateway resubmits to the honest
    // survivor. The migrated request must remain ONE trace: the
    // gateway part records the resubmit as a point event, and the
    // backend part — committed by the survivor — carries the same
    // trace id at attempt 1.
    NetServer honest(backendOptions());
    ASSERT_TRUE(honest.start()) << honest.error();
    FlakyBackend flaky(/*kill_after=*/1);
    Gateway gw(gatewayOptions({{"127.0.0.1", honest.port(), 0},
                               {"127.0.0.1", flaky.port(), 0}}));
    ASSERT_TRUE(gw.start()) << gw.error();
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 2; }))
        << "flaky backend never became routable";

    // Fresh digests spread over both backends; stream until one
    // lands on the flaky one and gets migrated.
    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", gw.port()));
    std::uint64_t seed = 33000;
    ASSERT_TRUE(waitUntil(
        [&] {
            std::vector<ServeRequest> reqs;
            for (int i = 0; i < 4; ++i)
                reqs.push_back(matVecRequest(seed += 100));
            for (const NetClient::Result &r :
                 client.submitBatch(reqs)) {
                EXPECT_TRUE(r.transportOk) << r.transportError;
                EXPECT_TRUE(r.response.ok) << r.response.error;
            }
            return gw.stats().resubmits >= 1;
        },
        20000))
        << "flaky backend never died (absorbed "
        << flaky.forwardsAbsorbed() << " forwards)";
    EXPECT_TRUE(flaky.dead());

    // Find the migrated request's stitched group: the one whose
    // gateway part logged the resubmit point event.
    std::vector<StitchedTrace> match;
    ASSERT_TRUE(waitUntil([&] {
        std::vector<RequestTrace> traces;
        if (!client.traces(&traces, nullptr))
            return false;
        match.clear();
        for (StitchedTrace &st : stitchTraces(std::move(traces))) {
            for (const RequestTrace &part : st.parts)
                for (const TracePoint &e : part.events)
                    if (e.name == "resubmit attempt 1" &&
                        st.parts.size() >= 2)
                        match.push_back(st);
        }
        return !match.empty();
    })) << "no stitched trace with a resubmit event and both parts";

    const StitchedTrace &st = match.front();
    EXPECT_EQ(st.traceId.size(), 32u);
    const RequestTrace *gwpart = nullptr;
    const RequestTrace *bepart = nullptr;
    for (const RequestTrace &part : st.parts) {
        if (part.tier == TraceTier::Gateway)
            gwpart = &part;
        else
            bepart = &part;
    }
    ASSERT_NE(gwpart, nullptr);
    ASSERT_NE(bepart, nullptr);
    // Both attempts are visible in the one trace: attempt 0 started
    // at the gateway (the point event marks the migration), attempt
    // 1 is the backend part the survivor committed.
    EXPECT_EQ(bepart->ctx.attempt, 1);
    EXPECT_TRUE(bepart->ok);
    EXPECT_EQ(traceIdHex(gwpart->ctx), traceIdHex(bepart->ctx));
    expectMonotoneStamps(*gwpart);
    expectMonotoneStamps(*bepart);

    gw.stop();
    honest.stop();
}

//---------------------------------------------------------------------
// The gateway admin plane's stitched /tracez
//---------------------------------------------------------------------

struct HttpReply
{
    bool ok = false;
    int status = 0;
    std::string head;
    std::string body;
};

/** Minimal HTTP/1.1 GET; the strict header contract is covered by
 *  the admin-plane suite — here only status/head/body matter. */
HttpReply
httpGet(std::uint16_t port, const std::string &target)
{
    HttpReply out;
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return out;
    }
    const std::string raw = "GET " + target + " HTTP/1.1\r\n"
                            "Host: 127.0.0.1\r\n\r\n";
    (void)!::send(fd, raw.data(), raw.size(), MSG_NOSIGNAL);
    std::string resp;
    char buf[4096];
    for (;;) {
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        resp.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    const std::size_t head_end = resp.find("\r\n\r\n");
    if (resp.rfind("HTTP/1.1 ", 0) != 0 ||
        head_end == std::string::npos)
        return out;
    out.status = std::stoi(resp.substr(9, 3));
    out.head = resp.substr(0, head_end);
    out.body = resp.substr(head_end + 4);
    out.ok = true;
    return out;
}

TEST(TraceGatewayAdmin, StitchedTracezServesStrictJsonAndFilters)
{
    NetServer backend(backendOptions());
    ASSERT_TRUE(backend.start()) << backend.error();
    Gateway::Options gopts =
        gatewayOptions({{"127.0.0.1", backend.port(), 0}});
    gopts.admin.enabled = true;
    Gateway gw(gopts);
    ASSERT_TRUE(gw.start()) << gw.error();
    ASSERT_NE(gw.adminPort(), 0);
    ASSERT_TRUE(waitUntil([&] { return gw.routableBackends() == 1; }));

    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", gw.port()));
    ServeRequest mv = matVecRequest(34000);
    ServeRequest mm = matMulRequest(34100);
    for (const ServeRequest *req : {&mv, &mm}) {
        NetClient::Result r = client.submit(*req);
        ASSERT_TRUE(r.transportOk && r.response.ok)
            << r.transportError << r.response.error;
    }
    // Both tiers commit asynchronously after the responses; /tracez
    // must eventually show both requests fully stitched.
    ASSERT_TRUE(waitUntil([&] {
        std::vector<RequestTrace> traces;
        return client.traces(&traces, nullptr) && traces.size() >= 4;
    })) << "both tiers never committed both requests";

    // Default view: strict JSON, grouped, both tiers' stage names.
    HttpReply stitched = httpGet(gw.adminPort(), "/tracez");
    ASSERT_TRUE(stitched.ok);
    EXPECT_EQ(stitched.status, 200);
    EXPECT_TRUE(JsonChecker(stitched.body).valid()) << stitched.body;
    EXPECT_NE(stitched.body.find("\"stitched\""), std::string::npos);
    EXPECT_NE(stitched.body.find("\"gw_decode\":"),
              std::string::npos);
    EXPECT_NE(stitched.body.find("\"decode\":"), std::string::npos);

    // Perfetto download: valid multi-process Chrome JSON.
    HttpReply chrome =
        httpGet(gw.adminPort(), "/tracez?format=chrome");
    ASSERT_TRUE(chrome.ok);
    EXPECT_EQ(chrome.status, 200);
    EXPECT_TRUE(JsonChecker(chrome.body).valid());
    EXPECT_NE(chrome.body.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(chrome.head.find("sap_gateway_trace.json"),
              std::string::npos);
    EXPECT_NE(chrome.body.find("\"pid\": 1"), std::string::npos);
    EXPECT_NE(chrome.body.find("\"pid\": 2"), std::string::npos);

    // Kind filter applies across both tiers' parts.
    HttpReply only_mv = httpGet(gw.adminPort(), "/tracez?kind=matvec");
    ASSERT_TRUE(only_mv.ok);
    EXPECT_EQ(only_mv.status, 200);
    EXPECT_TRUE(JsonChecker(only_mv.body).valid());
    EXPECT_NE(only_mv.body.find("\"matvec\""), std::string::npos);
    EXPECT_EQ(only_mv.body.find("\"matmul\""), std::string::npos);

    // An impossible duration floor filters everything out but stays
    // a valid, well-formed reply.
    HttpReply none =
        httpGet(gw.adminPort(), "/tracez?min_us=999999999999");
    ASSERT_TRUE(none.ok);
    EXPECT_EQ(none.status, 200);
    EXPECT_NE(none.body.find("\"count\":0"), std::string::npos);

    // Strict parse failures answer 400 with the reason.
    HttpReply bad_min = httpGet(gw.adminPort(), "/tracez?min_us=17x");
    ASSERT_TRUE(bad_min.ok);
    EXPECT_EQ(bad_min.status, 400);
    EXPECT_NE(bad_min.body.find("bad min_us value"),
              std::string::npos);
    HttpReply bad_kind =
        httpGet(gw.adminPort(), "/tracez?kind=banded");
    ASSERT_TRUE(bad_kind.ok);
    EXPECT_EQ(bad_kind.status, 400);
    EXPECT_NE(bad_kind.body.find("bad kind value"),
              std::string::npos);

    // The rest of the admin plane serves from the gateway too.
    EXPECT_EQ(httpGet(gw.adminPort(), "/metrics").status, 200);
    EXPECT_EQ(httpGet(gw.adminPort(), "/healthz").status, 200);

    gw.stop();
    backend.stop();
}

} // namespace
} // namespace sap
