#include "net/listener.hh"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace sap {

namespace {

void
setNoDelay(int fd)
{
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

} // namespace

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

int
socketError(int fd)
{
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    return ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) == 0
               ? soerr
               : errno;
}

bool
Listener::open(std::uint16_t port, std::string *error)
{
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
        *error = errnoString("socket");
        return false;
    }
    int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    socklen_t len = sizeof(addr);
    if (::bind(fd_, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(fd_, kBacklog) != 0 || !setNonBlocking(fd_) ||
        ::getsockname(fd_, reinterpret_cast<sockaddr *>(&addr), &len) !=
            0) {
        *error = errnoString("bind/listen");
        close();
        return false;
    }
    port_ = ntohs(addr.sin_port);
    resume_ = {};
    return true;
}

void
Listener::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

int
Listener::accept()
{
    for (;;) {
        int fd = ::accept4(fd_, nullptr, nullptr, SOCK_NONBLOCK);
        if (fd >= 0) {
            setNoDelay(fd);
            return fd;
        }
        if (errno == EINTR || errno == ECONNABORTED)
            continue; // ECONNABORTED: that one is gone, try the next
        if (errno != EAGAIN && errno != EWOULDBLOCK)
            resume_ = std::chrono::steady_clock::now() + kBackoff;
        return -1;
    }
}

void
Listener::watch(EventLoop &loop, std::uint64_t key, bool accepting)
{
    if (accepting && resume_ != std::chrono::steady_clock::time_point{}) {
        if (std::chrono::steady_clock::now() < resume_)
            accepting = false;
        else
            resume_ = {};
    }
    loop.set(fd_, accepting ? EventLoop::kRead : 0, key);
}

int
dialStart(const std::string &host, std::uint16_t port, bool *connected,
          std::string *error)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    const std::string node = host == "localhost" ? "127.0.0.1" : host;
    if (::inet_pton(AF_INET, node.c_str(), &addr.sin_addr) != 1) {
        *error = "unparseable IPv4 address '" + host + "'";
        return -1;
    }
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0) {
        *error = errnoString("socket");
        return -1;
    }
    setNoDelay(fd);
    *connected = ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                           sizeof(addr)) == 0;
    if (!*connected && errno != EINPROGRESS) {
        *error = errnoString("connect");
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
dialFinish(int fd, int timeout_ms, std::string *error)
{
    struct pollfd pfd = {fd, POLLOUT, 0};
    int rc;
    while ((rc = ::poll(&pfd, 1, timeout_ms)) < 0 && errno == EINTR) {
    }
    if (rc < 0) {
        *error = errnoString("poll");
        return false;
    }
    if (rc == 0) {
        *error = "connect: timed out";
        return false;
    }
    const int soerr = socketError(fd);
    if (soerr != 0) {
        *error = std::string("connect: ") + std::strerror(soerr);
        return false;
    }
    return true;
}

} // namespace sap
