/**
 * @file
 * The shared fault injector for gateway tests: a minimal
 * wire-protocol backend that answers PINGs (so the gateway declares
 * it routable and routes real work to it), never answers a FORWARD,
 * and after absorbing a configured number of them abruptly closes
 * both its connection and its listener — from the gateway's side, a
 * backend that accepted work and died without acknowledging any of
 * it. kill_after = 0 means "never die". Every FORWARD it absorbs is
 * recorded (embedded SUBMIT payload bytes and trace attempt), so a
 * test can compare what each delivery attempt carried.
 *
 * Used by the gateway chaos suite (test_gateway.cc) and the
 * cross-tier trace-propagation suite (test_trace_propagation.cc);
 * both run under TSan in CI, so cross-thread state is atomics or
 * sits behind a mutex.
 */

#ifndef SAP_TESTS_FLAKY_BACKEND_HH
#define SAP_TESTS_FLAKY_BACKEND_HH

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/protocol.hh"

namespace sap {

class FlakyBackend
{
  public:
    /** One absorbed FORWARD. */
    struct Absorbed
    {
        /** The embedded SUBMIT payload, envelope stripped. */
        std::vector<std::uint8_t> submitPayload;
        /** The envelope's trace-context attempt (0 without one). */
        int attempt = 0;
    };

    explicit FlakyBackend(int kill_after) : kill_after_(kill_after)
    {
        // abort() on setup failure: gtest fatal assertions are not
        // usable in constructors, and a half-built injector would
        // only fail the test more confusingly later.
        listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listen_fd_ < 0)
            std::abort();
        int one = 1;
        ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = 0;
        socklen_t len = sizeof(addr);
        if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(listen_fd_, 8) != 0 ||
            ::getsockname(listen_fd_,
                          reinterpret_cast<sockaddr *>(&addr),
                          &len) != 0)
            std::abort();
        port_ = ntohs(addr.sin_port);
        thread_ = std::thread([this] { serve(); });
    }

    ~FlakyBackend()
    {
        stop_.store(true);
        if (listen_fd_ >= 0)
            ::shutdown(listen_fd_, SHUT_RDWR);
        if (thread_.joinable())
            thread_.join();
        if (listen_fd_ >= 0)
            ::close(listen_fd_);
    }

    std::uint16_t port() const { return port_; }
    int forwardsAbsorbed() const { return forwards_.load(); }
    bool dead() const { return dead_.load(); }

    std::vector<Absorbed>
    absorbed() const
    {
        std::lock_guard<std::mutex> lock(absorbed_mutex_);
        return absorbed_;
    }

  private:
    void
    serve()
    {
        while (!stop_.load() && !dead_.load()) {
            int fd = ::accept(listen_fd_, nullptr, nullptr);
            if (fd < 0)
                return; // listener shut down
            handleConn(fd);
            ::close(fd);
        }
    }

    void
    handleConn(int fd)
    {
        FrameDecoder decoder;
        std::uint8_t buf[4096];
        for (;;) {
            Frame frame;
            std::string err;
            FrameDecoder::Result res = decoder.next(&frame, &err);
            if (res == FrameDecoder::Result::Malformed)
                return;
            if (res == FrameDecoder::Result::NeedMore) {
                ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
                if (n <= 0)
                    return;
                decoder.feed(buf, static_cast<std::size_t>(n));
                continue;
            }
            if (frame.header.type ==
                static_cast<std::uint16_t>(FrameType::Ping)) {
                std::vector<std::uint8_t> echo = buildFrame(
                    FrameType::Ping, frame.header.tag, frame.payload);
                (void)!::send(fd, echo.data(), echo.size(),
                              MSG_NOSIGNAL);
            } else if (frame.header.type ==
                       static_cast<std::uint16_t>(
                           FrameType::Forward)) {
                record(frame.payload);
                int seen = forwards_.fetch_add(1) + 1;
                if (kill_after_ > 0 && seen >= kill_after_) {
                    // Die taking the listener with us: reconnect
                    // attempts must fail, not quietly resurrect the
                    // backend mid-test.
                    dead_.store(true);
                    ::shutdown(listen_fd_, SHUT_RDWR);
                    return;
                }
            }
            // Everything else (STATS, METRICS, TRACES, ...) is
            // absorbed silently, like the FORWARDs.
        }
    }

    void
    record(const std::vector<std::uint8_t> &payload)
    {
        Digest digest = 0;
        SubmitView view;
        std::size_t offset = 0;
        std::string err;
        Absorbed a;
        if (checkForward(payload.data(), payload.size(), &digest, &view,
                         &offset, &err)) {
            a.submitPayload.assign(
                payload.begin() + static_cast<std::ptrdiff_t>(offset),
                payload.end());
            a.attempt = view.traceContext.attempt;
        }
        std::lock_guard<std::mutex> lock(absorbed_mutex_);
        absorbed_.push_back(std::move(a));
    }

    int kill_after_;
    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::thread thread_;
    std::atomic<int> forwards_{0};
    std::atomic<bool> stop_{false};
    std::atomic<bool> dead_{false};
    mutable std::mutex absorbed_mutex_;
    std::vector<Absorbed> absorbed_;
};

} // namespace sap

#endif // SAP_TESTS_FLAKY_BACKEND_HH
