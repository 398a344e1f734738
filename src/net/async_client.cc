#include "net/async_client.hh"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace sap {

AsyncClient::~AsyncClient()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
AsyncClient::connectStart(const std::string &host, std::uint16_t port)
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    decoder_ = FrameDecoder(max_payload_);
    out_.clear();
    error_.clear();

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    const std::string node = host == "localhost" ? "127.0.0.1" : host;
    if (::inet_pton(AF_INET, node.c_str(), &addr.sin_addr) != 1) {
        error_ = "unparseable IPv4 address '" + host + "'";
        state_ = State::Closed;
        return false;
    }

    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0) {
        error_ = std::string("socket: ") + std::strerror(errno);
        state_ = State::Closed;
        return false;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) == 0) {
        // Loopback connects can complete synchronously.
        fd_ = fd;
        state_ = State::Connected;
        return true;
    }
    if (errno != EINPROGRESS) {
        error_ = std::string("connect: ") + std::strerror(errno);
        ::close(fd);
        state_ = State::Closed;
        return false;
    }
    fd_ = fd;
    state_ = State::Connecting;
    return true;
}

void
AsyncClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    out_.clear();
    state_ = State::Idle;
}

std::uint32_t
AsyncClient::desiredInterest() const
{
    switch (state_) {
    case State::Connecting:
        return EventLoop::kWrite;
    case State::Connected:
        return EventLoop::kRead |
               (queuedBytes() > 0 ? EventLoop::kWrite : 0u);
    case State::Idle:
    case State::Closed:
        break;
    }
    return 0;
}

void
AsyncClient::send(OutFrame frame)
{
    if (state_ != State::Connecting && state_ != State::Connected)
        return;
    out_.push(std::move(frame));
}

void
AsyncClient::transportClosed(const std::string &reason)
{
    error_ = reason;
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    state_ = State::Closed;
    if (onClosed)
        onClosed(reason);
}

bool
AsyncClient::flushSome()
{
    if (out_.flush(fd_) < 0) {
        transportClosed(std::string("send: ") + std::strerror(errno));
        return false;
    }
    return true;
}

bool
AsyncClient::readSome()
{
    for (;;) {
        ssize_t n = decoder_.receive(fd_);
        if (n > 0) {
            for (;;) {
                Frame frame;
                std::string err;
                FrameDecoder::Result res = decoder_.next(&frame, &err);
                if (res == FrameDecoder::Result::Ok) {
                    if (onFrame)
                        onFrame(std::move(frame));
                    // A callback may have close()d us.
                    if (state_ != State::Connected)
                        return false;
                    continue;
                }
                if (res == FrameDecoder::Result::Malformed) {
                    transportClosed("malformed server stream: " + err);
                    return false;
                }
                break; // NeedMore
            }
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return true;
        if (n < 0 && errno == EINTR)
            continue;
        transportClosed(n == 0 ? "server closed the connection"
                               : std::string("recv: ") +
                                     std::strerror(errno));
        return false;
    }
}

void
AsyncClient::handleReady(const EventLoop::Ready &ev)
{
    if (fd_ < 0)
        return;

    if (state_ == State::Connecting) {
        // Connect completion is reported as writability; failure as
        // error/hangup or a nonzero SO_ERROR.
        int soerr = 0;
        socklen_t len = sizeof(soerr);
        if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0)
            soerr = errno;
        if (ev.error || soerr != 0) {
            transportClosed(std::string("connect: ") +
                            std::strerror(soerr ? soerr : ECONNRESET));
            return;
        }
        if (!ev.writable && !ev.hangup)
            return; // spurious wakeup; still connecting
        state_ = State::Connected;
        if (onConnected)
            onConnected();
        if (state_ != State::Connected)
            return; // callback closed us
        if (!flushSome())
            return;
        // Fall through: the same wakeup may carry readability.
    }

    if (state_ != State::Connected)
        return;

    if (ev.error) {
        int soerr = 0;
        socklen_t len = sizeof(soerr);
        ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &soerr, &len);
        transportClosed(std::string("socket error: ") +
                        std::strerror(soerr ? soerr : EIO));
        return;
    }
    if (ev.writable && !flushSome())
        return;
    if (ev.readable || ev.hangup)
        readSome();
}

} // namespace sap
