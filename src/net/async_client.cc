#include "net/async_client.hh"

#include <cerrno>
#include <cstring>

#include <unistd.h>

#include "net/listener.hh"

namespace sap {

AsyncClient::~AsyncClient()
{
    reset(State::Idle);
}

void
AsyncClient::reset(State state)
{
    if (conn_.fd >= 0)
        ::close(conn_.fd);
    conn_ = Connection(-1, max_payload_);
    state_ = state;
}

bool
AsyncClient::connectStart(const std::string &host, std::uint16_t port)
{
    reset(State::Closed);
    error_.clear();
    bool connected = false;
    conn_.fd = dialStart(host, port, &connected, &error_);
    if (conn_.fd >= 0) // loopback connects can complete synchronously
        state_ = connected ? State::Connected : State::Connecting;
    return conn_.fd >= 0;
}

void
AsyncClient::close()
{
    reset(State::Idle);
}

std::uint32_t
AsyncClient::desiredInterest() const
{
    switch (state_) {
    case State::Connecting:
        return EventLoop::kWrite;
    case State::Connected:
        return conn_.wantedInterest(true, SIZE_MAX);
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
    conn_.out.push(std::move(frame));
}

void
AsyncClient::transportClosed(const std::string &reason)
{
    error_ = reason;
    state_ = State::Closed;
}

bool
AsyncClient::flushSome()
{
    if (conn_.out.flush(conn_.fd) < 0) {
        transportClosed(errnoString("send"));
        return false;
    }
    return true;
}

void
AsyncClient::readSome()
{
    std::string err;
    switch (conn_.receive(
        [this](Frame &&frame) {
            if (onFrame)
                onFrame(std::move(frame));
            // A callback may have close()d us.
            return state_ == State::Connected;
        },
        nullptr, &err)) {
    case Connection::End::Drained:
    case Connection::End::Stopped:
        return;
    case Connection::End::Malformed:
        return transportClosed("malformed server stream: " + err);
    case Connection::End::Eof:
        return transportClosed("server closed the connection");
    case Connection::End::Failed:
        return transportClosed(errnoString("recv"));
    }
}

void
AsyncClient::handleReady(const EventLoop::Ready &ev)
{
    if (conn_.fd < 0)
        return;

    if (state_ == State::Connecting) {
        // Connect completion is reported as writability; failure as
        // error/hangup or a nonzero SO_ERROR.
        const int soerr = socketError(conn_.fd);
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
        const int soerr = socketError(conn_.fd);
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
