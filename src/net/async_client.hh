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
 *  - connectStart() issues a non-blocking connect and returns
 *    immediately; the owner watches fd() with desiredInterest() and
 *    learns the outcome through onConnected / onClosed;
 *  - send() only queues a frame (net/protocol.hh OutQueue: header
 *    plus shared payload, never concatenated); bytes move when the
 *    loop reports the socket writable;
 *  - handleReady() drives the connection from one EventLoop::Ready
 *    record: it finishes the connect handshake, flushes pending
 *    output, reads until EAGAIN, and delivers every complete frame
 *    through onFrame.
 *
 * The owner re-installs desiredInterest() after every state change
 * (send, handleReady) — the mask covers kWrite exactly while the
 * handshake or unsent bytes are pending, so an idle connection costs
 * nothing per wakeup.
 *
 * Callbacks run synchronously inside handleReady() on the loop
 * thread. onClosed fires at most once, for both clean EOF and
 * transport errors; after it the client is in Closed state and the
 * fd is gone (the owner must EventLoop::remove() it first — see
 * handleReady()'s contract below).
 *
 * Thread-safety: NONE. An AsyncClient belongs to the thread running
 * its owner's event loop.
 */

#ifndef SAP_NET_ASYNC_CLIENT_HH
#define SAP_NET_ASYNC_CLIENT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

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
        : max_payload_(max_payload), decoder_(max_payload)
    {
    }

    /** Closes the socket if still open (no callback). */
    ~AsyncClient();

    AsyncClient(const AsyncClient &) = delete;
    AsyncClient &operator=(const AsyncClient &) = delete;

    /** Fires once when the non-blocking connect completes. */
    std::function<void()> onConnected;
    /** Fires per complete frame read off the stream. */
    std::function<void(Frame &&)> onFrame;
    /** Fires once when the transport dies (EOF, error, malformed
     *  stream); the fd is already closed when it runs. */
    std::function<void(const std::string &reason)> onClosed;

    /**
     * Begin a non-blocking connect to @p host:@p port (IPv4 dotted
     * quad or "localhost"). On true the state is Connecting (or
     * already Connected for a same-host fast path) and fd() is valid
     * for watching. On false the state is Closed with lastError()
     * set; no callback fires.
     *
     * Call on an Idle or Closed client only; re-using a client for a
     * reconnect resets the decoder and output queue.
     */
    bool connectStart(const std::string &host, std::uint16_t port);

    /** Close without callbacks (owner-initiated teardown). The owner
     *  must EventLoop::remove(fd()) first. State becomes Idle. */
    void close();

    State state() const { return state_; }
    bool connected() const { return state_ == State::Connected; }

    /** The socket (−1 unless Connecting or Connected). */
    int fd() const { return fd_; }

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

    /** Bytes queued but not yet accepted by the kernel. */
    std::size_t queuedBytes() const { return out_.queuedBytes(); }

    /**
     * Drive the connection from one readiness record (the owner
     * dispatches the Ready whose key it registered fd() under).
     *
     * Contract: the owner must EventLoop::remove(fd()) BEFORE calling
     * this when it intends to drop the connection, and after this
     * returns it must either re-install desiredInterest() (still
     * alive) or have removed the fd (state() == Closed closes it).
     * handleReady() itself removes nothing — it has no loop pointer —
     * so the owner's dispatch loop re-sets interest after every call
     * (see net/gateway.cc).
     */
    void handleReady(const EventLoop::Ready &ev);

    /** Why the last connectStart() failed or the transport closed. */
    const std::string &lastError() const { return error_; }

  private:
    /** Enter Closed, ::close() the fd, fire onClosed once. */
    void transportClosed(const std::string &reason);
    /** Flush out_ until EAGAIN. @return false if the socket died
     *  (transportClosed already ran). */
    bool flushSome();
    /** Read until EAGAIN, delivering frames. @return false if the
     *  stream ended (transportClosed already ran). */
    bool readSome();

    std::uint32_t max_payload_;
    FrameDecoder decoder_;
    State state_ = State::Idle;
    int fd_ = -1;
    OutQueue out_;
    std::string error_;
};

} // namespace sap

#endif // SAP_NET_ASYNC_CLIENT_HH
