#include "loadgen.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <random>
#include <thread>
#include <unordered_map>

namespace perfbench {

using namespace sap;
using Clock = std::chrono::steady_clock;

namespace {

std::atomic<bool> g_corrupt_next{false};

double
microsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/** One request on its way out: header built here, payload borrowed
 *  from the pool (which outlives the phase). */
struct Outgoing
{
    std::uint8_t header[kFrameHeaderBytes];
    const std::vector<std::uint8_t> *payload = nullptr;
    std::size_t sent = 0; ///< bytes of header+payload written so far
    std::uint64_t tag = 0;
};

struct InFlight
{
    std::size_t idx = 0;
    Clock::time_point due;
    Clock::time_point sent;
};

/** Shared by every connection of one phase. */
struct Shared
{
    const Pool *pool = nullptr;
    const LoadOptions *opts = nullptr;
    std::atomic<std::uint64_t> cursor{0};
    Clock::time_point start;
    Clock::time_point deadline;
    std::mutex mu;
    std::condition_variable done;
    int running = 0; ///< connection threads not yet finished
    PhaseStats total;
};

void
encodeHeader(std::uint64_t tag, std::uint32_t len,
             std::uint8_t out[kFrameHeaderBytes])
{
    WireWriter w;
    w.u32(kWireMagic);
    w.u16(kWireVersion);
    w.u16(static_cast<std::uint16_t>(FrameType::Submit));
    w.u64(tag);
    w.u32(len);
    std::memcpy(out, w.bytes().data(), kFrameHeaderBytes);
}

int
connectTo(std::uint16_t port, std::string *error)
{
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        *error = std::string("socket: ") + std::strerror(errno);
        return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) !=
        0) {
        *error = std::string("connect: ") + std::strerror(errno);
        ::close(fd);
        return -1;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    return fd;
}

/** One connection's whole phase (see the file comment). */
void
connectionLoop(Shared &sh, int conn_index)
{
    const Pool &pool = *sh.pool;
    const LoadOptions &opts = *sh.opts;
    const bool open_loop = !opts.closedLoop;
    PhaseStats st;
    st.cyclesSum.assign(pool.spec->classes.size(), 0);
    st.cyclesCount.assign(pool.spec->classes.size(), 0);

    auto failWith = [&](const std::string &why) {
        ++st.failed;
        if (st.firstFailure.empty())
            st.firstFailure = why;
    };
    // A broken connection counts as one failed attempt of its own, on
    // top of the requests it strands, so failed never exceeds
    // attempted and a run that loses a connection is never correct.
    auto connectionFailed = [&](const std::string &why) {
        ++st.attempted;
        failWith(why);
    };

    std::string err;
    int fd = connectTo(opts.port, &err);
    std::deque<Outgoing> outq;
    std::unordered_map<std::uint64_t, InFlight> inflight;
    FrameDecoder decoder;
    std::vector<std::uint8_t> rbuf(256 * 1024);
    std::uint64_t next_tag = 1;

    std::mt19937_64 rng(opts.seed * 0x9e3779b97f4a7c15ull +
                        static_cast<std::uint64_t>(conn_index) + 1);
    const double conn_rate =
        opts.rateRps / static_cast<double>(kConnections);
    std::exponential_distribution<double> gap(conn_rate > 0 ? conn_rate
                                                            : 1.0);
    Clock::time_point next_due =
        sh.start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(gap(rng)));
    bool sending = fd >= 0;
    if (fd < 0)
        connectionFailed(err);
    // Responses still owed after the window get this long to land.
    const Clock::time_point drain_deadline =
        sh.deadline + std::chrono::seconds(30);

    auto enqueue = [&](Clock::time_point due) -> bool {
        std::uint64_t seq = sh.cursor.fetch_add(1);
        if (opts.maxRequests > 0 && seq >= opts.maxRequests)
            return false;
        std::size_t idx = static_cast<std::size_t>(seq % pool.reqs.size());
        Outgoing o;
        o.tag = next_tag++;
        o.payload = &pool.reqs[idx].payload;
        encodeHeader(o.tag, static_cast<std::uint32_t>(o.payload->size()),
                     o.header);
        outq.push_back(o);
        inflight[o.tag] = {idx, due, due};
        ++st.attempted;
        return true;
    };

    auto flush = [&]() -> bool {
        while (!outq.empty()) {
            Outgoing &o = outq.front();
            if (o.sent == 0) {
                InFlight &f = inflight[o.tag];
                f.sent = Clock::now();
                if (open_loop)
                    st.lagUs.push_back(microsBetween(f.due, f.sent));
            }
            iovec iov[2];
            int n_iov = 0;
            if (o.sent < kFrameHeaderBytes) {
                iov[n_iov++] = {o.header + o.sent,
                                kFrameHeaderBytes - o.sent};
                iov[n_iov++] = {const_cast<std::uint8_t *>(
                                    o.payload->data()),
                                o.payload->size()};
            } else {
                std::size_t off = o.sent - kFrameHeaderBytes;
                iov[n_iov++] = {const_cast<std::uint8_t *>(
                                    o.payload->data() + off),
                                o.payload->size() - off};
            }
            msghdr msg{};
            msg.msg_iov = iov;
            msg.msg_iovlen = static_cast<std::size_t>(n_iov);
            ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                if (errno == EAGAIN || errno == EWOULDBLOCK)
                    return true;
                err = std::string("send: ") + std::strerror(errno);
                return false;
            }
            o.sent += static_cast<std::size_t>(n);
            if (o.sent == kFrameHeaderBytes + o.payload->size())
                outq.pop_front();
        }
        return true;
    };

    auto handleFrame = [&](Frame &frame) {
        auto it = inflight.find(frame.header.tag);
        if (it == inflight.end()) {
            connectionFailed("response with an unknown tag");
            return;
        }
        InFlight f = it->second;
        inflight.erase(it);
        const Clock::time_point now = Clock::now();
        const PooledRequest &p = pool.reqs[f.idx];
        WireResponse resp;
        std::string why;
        if (frame.header.type == static_cast<std::uint16_t>(FrameType::Error)) {
            std::string msg;
            decodeError(frame.payload, &msg, &why);
            failWith("ERROR frame: " + msg);
            return;
        }
        if (frame.header.type !=
                static_cast<std::uint16_t>(FrameType::Response) ||
            !decodeResponse(frame.payload, &resp, &why)) {
            failWith("undecodable response: " + why);
            return;
        }
        if (g_corrupt_next.exchange(false)) {
            if (resp.c.rows() > 0)
                resp.c(0, 0) += 1;
            else if (resp.y.size() > 0)
                resp.y[0] += 1;
        }
        if (!checkResponse(p, resp, &why)) {
            failWith(p.req.engine + ": " + why);
            return;
        }
        ++st.succeeded;
        st.latencyUs.push_back(
            microsBetween(open_loop ? f.due : f.sent, now));
        st.dueAtS.push_back(microsBetween(sh.start, f.due) / 1e6);
        st.doneAtS.push_back(microsBetween(sh.start, now) / 1e6);
        st.cyclesSum[static_cast<std::size_t>(p.cls)] +=
            static_cast<double>(resp.simCycles);
        st.cyclesCount[static_cast<std::size_t>(p.cls)] += 1;
    };

    while (fd >= 0) {
        Clock::time_point now = Clock::now();
        if (sending && now >= sh.deadline)
            sending = false;
        if (sending) {
            if (open_loop) {
                while (sending && next_due <= now) {
                    if (!enqueue(next_due))
                        sending = false;
                    next_due += std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(gap(rng)));
                }
            } else {
                while (sending &&
                       inflight.size() < static_cast<std::size_t>(kWindow))
                    if (!enqueue(now))
                        sending = false;
            }
        }
        if (!sending && inflight.empty())
            break;
        if (now > drain_deadline) {
            connectionFailed("responses still owed 30 s after the window");
            break;
        }
        if (!flush()) {
            connectionFailed(err);
            break;
        }

        // Sleep until readable, writable when output is queued, or
        // the next open-loop arrival is due (microsecond precision,
        // so the generator neither spins nor oversleeps).
        double wait_us = 50000;
        if (sending && open_loop)
            wait_us = std::max(0.0, microsBetween(now, next_due));
        timespec ts{static_cast<time_t>(wait_us / 1e6),
                    static_cast<long>(std::fmod(wait_us, 1e6) * 1000)};
        pollfd p{fd, static_cast<short>(POLLIN |
                                         (outq.empty() ? 0 : POLLOUT)),
                 0};
        int rc = ::ppoll(&p, 1, &ts, nullptr);
        if (rc < 0 && errno != EINTR) {
            connectionFailed(std::string("poll: ") + std::strerror(errno));
            break;
        }
        if (rc <= 0 || !(p.revents & (POLLIN | POLLHUP | POLLERR)))
            continue;
        ssize_t n = ::read(fd, rbuf.data(), rbuf.size());
        if (n < 0 && (errno == EAGAIN || errno == EINTR))
            continue;
        if (n <= 0) {
            connectionFailed(n == 0 ? std::string("server closed")
                                    : std::string("read: ") +
                                          std::strerror(errno));
            break;
        }
        decoder.feed(rbuf.data(), static_cast<std::size_t>(n));
        Frame frame;
        FrameDecoder::Result r;
        while ((r = decoder.next(&frame, &err)) ==
               FrameDecoder::Result::Ok)
            handleFrame(frame);
        if (r == FrameDecoder::Result::Malformed) {
            connectionFailed("malformed stream: " + err);
            break;
        }
    }
    // Whatever is still owed when the loop ends is a transport
    // failure: it will never be answered on this connection.
    if (!inflight.empty()) {
        st.failed += inflight.size();
        if (st.firstFailure.empty())
            st.firstFailure = "connection ended with requests in flight";
    }
    if (fd >= 0)
        ::close(fd);

    std::lock_guard<std::mutex> lock(sh.mu);
    sh.total.merge(st);
    --sh.running;
    sh.done.notify_all();
}

} // namespace

void
PhaseStats::merge(const PhaseStats &o)
{
    attempted += o.attempted;
    succeeded += o.succeeded;
    failed += o.failed;
    latencyUs.insert(latencyUs.end(), o.latencyUs.begin(),
                     o.latencyUs.end());
    dueAtS.insert(dueAtS.end(), o.dueAtS.begin(), o.dueAtS.end());
    doneAtS.insert(doneAtS.end(), o.doneAtS.begin(), o.doneAtS.end());
    lagUs.insert(lagUs.end(), o.lagUs.begin(), o.lagUs.end());
    if (cyclesSum.size() < o.cyclesSum.size()) {
        cyclesSum.resize(o.cyclesSum.size(), 0);
        cyclesCount.resize(o.cyclesCount.size(), 0);
    }
    for (std::size_t i = 0; i < o.cyclesSum.size(); ++i) {
        cyclesSum[i] += o.cyclesSum[i];
        cyclesCount[i] += o.cyclesCount[i];
    }
    if (firstFailure.empty())
        firstFailure = o.firstFailure;
}

PhaseStats
runLoad(const Pool &pool, const LoadOptions &opts)
{
    Shared sh;
    sh.pool = &pool;
    sh.opts = &opts;
    sh.start = Clock::now();
    sh.deadline = sh.start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(opts.seconds));

    sh.running = kConnections;
    if (opts.atTick)
        opts.atTick();
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c)
        threads.emplace_back([&sh, c] { connectionLoop(sh, c); });
    // Tick until the window closes; a capped phase (the warm pass) may
    // finish first.
    bool finished_early = false;
    for (int k = 1; !finished_early; ++k) {
        Clock::time_point tick = sh.deadline;
        if (opts.atTick && opts.tickSeconds > 0)
            tick = std::min(
                tick, sh.start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         k * opts.tickSeconds)));
        {
            std::unique_lock<std::mutex> lock(sh.mu);
            finished_early = sh.done.wait_until(
                lock, tick, [&sh] { return sh.running == 0; });
        }
        if (opts.atTick && !finished_early)
            opts.atTick();
        if (tick == sh.deadline)
            break;
    }
    for (std::thread &t : threads)
        t.join();
    return std::move(sh.total);
}

void
corruptNextResponse()
{
    g_corrupt_next.store(true);
}

} // namespace perfbench
