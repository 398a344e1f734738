/**
 * @file
 * Non-blocking event-loop client mode for the net/ wire protocol —
 * the connection primitive the gateway tier multiplexes.
 *
 * NetClient (net/client.hh) blocks per call, which is the right
 * discipline for an external tool holding one connection. A gateway
 * holding a connection per backend cannot block on any of them: a
 * slow backend would stall traffic to every healthy one. AsyncClient
 * is the same wire protocol restructured around an owner-provided
 * EventLoop (net/event_loop.hh):
 *
 *  - connectStart() issues a non-blocking connect (net/listener.hh
 *    dialStart) and returns immediately; the owner watches fd() with
 *    desiredInterest() and learns of completion through onConnected;
 *  - send() only queues a frame (net/protocol.hh OutQueue: header
 *    plus shared payload, never concatenated); bytes move when the
 *    loop reports the socket writable;
 *  - handleReady() drives the connection from one EventLoop::Ready
 *    record: it finishes the connect handshake, flushes pending
 *    output, and reads until EAGAIN (net/connection.hh), delivering
 *    every complete frame through onFrame. When the transport dies
 *    (EOF, error, malformed stream) state() turns Closed; the fd
 *    stays open until the owner has unwatched it and called close().
 *
 * The owner re-installs desiredInterest() after every state change
 * (send, handleReady) — the mask covers kWrite exactly while the
 * handshake or unsent bytes are pending, so an idle connection costs
 * nothing per wakeup. Callbacks run synchronously inside
 * handleReady() on the loop thread.
 *
 * Thread-safety: NONE. An AsyncClient belongs to the thread running
 * its owner's event loop.
 */

#ifndef SAP_NET_ASYNC_CLIENT_HH
#define SAP_NET_ASYNC_CLIENT_HH

#include <cstdint>
#include <functional>
#include <string>

#include "net/connection.hh"
#include "net/event_loop.hh"
#include "net/protocol.hh"

namespace sap {

/** Event-loop-driven wire-protocol connection (see file comment). */
class AsyncClient
{
  public:
    enum class State
    {
        Idle,       ///< no socket yet (or close()d by the owner)
        Connecting, ///< non-blocking connect in flight
        Connected,  ///< handshake done; frames flow
        Closed,     ///< transport failed or peer hung up
    };

    explicit AsyncClient(
        std::uint32_t max_payload = kDefaultMaxPayloadBytes)
        : max_payload_(max_payload), conn_(-1, max_payload)
    {
    }

    /** Closes the socket if still open. */
    ~AsyncClient();

    AsyncClient(const AsyncClient &) = delete;
    AsyncClient &operator=(const AsyncClient &) = delete;

    /** Fires once when the non-blocking connect completes. */
    std::function<void()> onConnected;
    /** Fires per complete frame read off the stream. */
    std::function<void(Frame &&)> onFrame;

    /**
     * Begin a non-blocking connect to @p host:@p port (IPv4 dotted
     * quad or "localhost"). On true the state is Connecting (or
     * already Connected for a same-host fast path) and fd() is valid
     * for watching. On false the state is Closed with lastError()
     * set.
     *
     * Call on an Idle or Closed client only; re-using a client for a
     * reconnect resets the decoder and output queue.
     */
    bool connectStart(const std::string &host, std::uint16_t port);

    /** Close the socket (owner-initiated, or after Closed). The owner
     *  must EventLoop::remove(fd()) first. State becomes Idle. */
    void close();

    State state() const { return state_; }
    bool connected() const { return state_ == State::Connected; }

    /** The socket (−1 when Idle, or when connectStart() failed). */
    int fd() const { return conn_.fd; }

    /**
     * The EventLoop interest mask this connection currently needs:
     * kWrite while Connecting (connect completion is writability) or
     * while output is buffered, kRead while Connected. 0 when there
     * is no socket.
     */
    std::uint32_t desiredInterest() const;

    /** Queue @p frame for transmission (no syscall; the loop flushes
     *  on writability). Silently dropped unless Connecting or
     *  Connected — the owner decides how to handle a dead backend. */
    void send(OutFrame frame);

    /**
     * Drive the connection from one readiness record (the owner
     * dispatches the Ready whose key it registered fd() under).
     *
     * Contract: after this returns the owner either re-installs
     * desiredInterest() (still alive) or, on state() == Closed,
     * unwatches fd() and then calls close(). handleReady() never
     * closes the fd itself: a number closed while still watched could
     * be reused by another thread's socket before the owner unwatches
     * it (see net/gateway.cc).
     */
    void handleReady(const EventLoop::Ready &ev);

    /** Why the last connectStart() failed or the transport closed. */
    const std::string &lastError() const { return error_; }

  private:
    /** Close the fd, drop decoder and queued output, enter @p state. */
    void reset(State state);
    /** Record @p reason and enter Closed (the fd stays open). */
    void transportClosed(const std::string &reason);
    /** Flush the output queue until EAGAIN. @return false if the
     *  socket died (transportClosed() already ran). */
    bool flushSome();
    /** Read until EAGAIN, delivering frames; transportClosed() when
     *  the stream ends. */
    void readSome();

    std::uint32_t max_payload_;
    /** The socket, decoder and output queue (net/connection.hh). */
    Connection conn_;
    State state_ = State::Idle;
    std::string error_;
};

} // namespace sap

#endif // SAP_NET_ASYNC_CLIENT_HH
