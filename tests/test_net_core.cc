/**
 * @file
 * The IO core every tier shares, driven directly: EventLoop (the
 * self-waking epoll multiplexer), Listener (bind/listen/accept) and
 * the client-side dial.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/event_loop.hh"
#include "net/listener.hh"

namespace sap {
namespace {

//---------------------------------------------------------------------
// EventLoop
//---------------------------------------------------------------------

TEST(NetEventLoop, WakeFromAnotherThreadEndsAnInfiniteWait)
{
    EventLoop loop;
    ASSERT_TRUE(loop.valid());
    std::thread waker([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        loop.wake();
    });
    // Nothing is watched, so only the wake can end this wait.
    EXPECT_EQ(loop.wait(-1), 0);
    EXPECT_TRUE(loop.ready().empty());
    waker.join();
}

TEST(NetEventLoop, ThousandWakesCoalesceAndNeverAppearInReady)
{
    EventLoop loop;
    ASSERT_TRUE(loop.valid());
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    ASSERT_TRUE(loop.set(sv[0], EventLoop::kRead, 7));
    ASSERT_EQ(::write(sv[1], "x", 1), 1);

    for (int i = 0; i < 1000; ++i)
        loop.wake();
    // One wait consumes every wake; only the socket is reported.
    ASSERT_EQ(loop.wait(0), 1);
    ASSERT_EQ(loop.ready().size(), 1u);
    EXPECT_EQ(loop.ready()[0].key, 7u);
    EXPECT_TRUE(loop.ready()[0].readable);

    char byte;
    ASSERT_EQ(::read(sv[0], &byte, 1), 1);
    EXPECT_EQ(loop.wait(0), 0);
    EXPECT_TRUE(loop.ready().empty());

    // A wake alone ends a wait with nothing ready.
    loop.wake();
    EXPECT_EQ(loop.wait(1000), 0);
    EXPECT_TRUE(loop.ready().empty());
    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(NetEventLoop, InterestZeroUnwatches)
{
    EventLoop loop;
    ASSERT_TRUE(loop.valid());
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    ASSERT_EQ(::write(sv[1], "x", 1), 1);
    ASSERT_TRUE(loop.set(sv[0], EventLoop::kRead, 3));
    EXPECT_TRUE(loop.watched(sv[0]));
    ASSERT_EQ(loop.wait(0), 1);

    ASSERT_TRUE(loop.set(sv[0], 0, 3));
    EXPECT_FALSE(loop.watched(sv[0]));
    // Neither the pending byte nor the peer's hangup, which epoll
    // reports whatever the mask, reaches an unwatched fd.
    ::close(sv[1]);
    EXPECT_EQ(loop.wait(0), 0);
    EXPECT_TRUE(loop.ready().empty());
    ::close(sv[0]);
}

//---------------------------------------------------------------------
// Listener and the dial
//---------------------------------------------------------------------

TEST(NetListener, BindsAnEphemeralLoopbackPort)
{
    Listener listener;
    std::string error;
    ASSERT_TRUE(listener.open(0, &error)) << error;
    EXPECT_NE(listener.port(), 0);
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::getsockname(listener.fd(),
                            reinterpret_cast<sockaddr *>(&addr), &len),
              0);
    EXPECT_EQ(ntohl(addr.sin_addr.s_addr), INADDR_LOOPBACK);
    EXPECT_EQ(ntohs(addr.sin_port), listener.port());

    // The port is taken while the first listener holds it.
    Listener second;
    EXPECT_FALSE(second.open(listener.port(), &error));
    EXPECT_NE(error.find("bind/listen"), std::string::npos) << error;
    EXPECT_LT(second.fd(), 0);
}

TEST(NetListener, AcceptedFdsAreNonBlockingWithNoDelay)
{
    Listener listener;
    std::string error;
    ASSERT_TRUE(listener.open(0, &error)) << error;
    EventLoop loop;
    listener.watch(loop, 1, true);
    EXPECT_TRUE(loop.watched(listener.fd()));

    bool connected = false;
    const int client =
        dialStart("localhost", listener.port(), &connected, &error);
    ASSERT_GE(client, 0) << error;
    ASSERT_TRUE(connected || dialFinish(client, 2000, &error)) << error;

    ASSERT_EQ(loop.wait(2000), 1);
    EXPECT_EQ(loop.ready()[0].key, 1u);
    const int fd = listener.accept();
    ASSERT_GE(fd, 0);
    EXPECT_NE(::fcntl(fd, F_GETFL, 0) & O_NONBLOCK, 0);
    int nodelay = 0;
    socklen_t len = sizeof(nodelay);
    ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len),
              0);
    EXPECT_NE(nodelay, 0);

    // Nothing else is pending: −1 without a backoff, so the socket
    // stays watched.
    EXPECT_EQ(listener.accept(), -1);
    listener.watch(loop, 1, true);
    EXPECT_TRUE(loop.watched(listener.fd()));
    listener.watch(loop, 1, false);
    EXPECT_FALSE(loop.watched(listener.fd()));
    ::close(fd);
    ::close(client);
}

TEST(NetListener, DialRejectsBadAddressesAndRefusedPorts)
{
    bool connected = false;
    std::string error;
    EXPECT_EQ(dialStart("not-an-address", 80, &connected, &error), -1);
    EXPECT_NE(error.find("unparseable"), std::string::npos) << error;

    // A port nobody listens on: refused, at once or on completion.
    std::uint16_t port;
    {
        Listener probe;
        ASSERT_TRUE(probe.open(0, &error)) << error;
        port = probe.port();
    }
    error.clear();
    const int fd = dialStart("127.0.0.1", port, &connected, &error);
    if (fd >= 0) {
        EXPECT_FALSE(connected);
        EXPECT_FALSE(dialFinish(fd, 2000, &error));
        ::close(fd);
    }
    EXPECT_NE(error.find("connect"), std::string::npos) << error;
}

} // namespace
} // namespace sap
