/**
 * @file
 * The socket plumbing every tier shares: the loopback listening
 * socket with its accept loop (NetServer, the gateway and the HTTP
 * admin server), and the client-side dial (NetClient, AsyncClient and
 * the gateway's /healthz probe).
 *
 * A persistent accept() failure (EMFILE, ENFILE, ENOBUFS...) leaves
 * the connection pending, so the listening socket stays readable and
 * a level-triggered loop would spin hot on it. accept() therefore
 * backs off for kBackoff, and watch() keeps the socket out of the
 * owner's EventLoop meanwhile.
 *
 * Thread-safety: a Listener belongs to its owner's event-loop thread.
 */

#ifndef SAP_NET_LISTENER_HH
#define SAP_NET_LISTENER_HH

#include <chrono>
#include <cstdint>
#include <string>

#include "net/event_loop.hh"

namespace sap {

/** Set O_NONBLOCK on @p fd. @return false when fcntl failed. */
bool setNonBlocking(int fd);

/** "@p what: <strerror(errno)>". */
std::string errnoString(const char *what);

/** @p fd's pending SO_ERROR (errno when it cannot be read). */
int socketError(int fd);

/** Loopback listening socket and its accept loop (see file comment). */
class Listener
{
  public:
    /** listen(2) backlog: a reconnect storm queues instead of shedding
     *  SYNs onto client retry timers (the kernel clamps it to
     *  somaxconn). */
    static constexpr int kBacklog = 1024;
    /** How long accept() stays off after a persistent failure. */
    static constexpr std::chrono::milliseconds kBackoff{200};

    Listener() = default;
    ~Listener() { close(); }

    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    /** Bind 127.0.0.1:@p port (0 = ephemeral) and listen. @return
     *  false with @p error set (and nothing open) on failure. */
    bool open(std::uint16_t port, std::string *error);

    /** Close the socket (idempotent; port() stays readable). */
    void close();

    int fd() const { return fd_; }
    std::uint16_t port() const { return port_; }

    /** One pending connection, non-blocking with TCP_NODELAY; −1 when
     *  none is pending or after a persistent failure (which starts the
     *  backoff). Retries EINTR. */
    int accept();

    /** Watch the socket in @p loop as @p key while @p accepting and
     *  not backing off, unwatch it otherwise. Call once per wait. */
    void watch(EventLoop &loop, std::uint64_t key, bool accepting);

  private:
    int fd_ = -1;
    std::uint16_t port_ = 0;
    /** accept() stays off until then (epoch = not backing off). */
    std::chrono::steady_clock::time_point resume_{};
};

/**
 * Start a TCP connect to @p host:@p port ("localhost" or an IPv4
 * dotted quad) on a non-blocking socket with TCP_NODELAY. @return the
 * fd, @p connected telling whether the connect already completed
 * (loopback can); −1 with @p error set on failure.
 */
int dialStart(const std::string &host, std::uint16_t port,
              bool *connected, std::string *error);

/** Wait up to @p timeout_ms (−1 = no limit) for a dialStart()
 *  connect on @p fd to complete. @return false with @p error set when
 *  it failed or timed out (the fd stays open). */
bool dialFinish(int fd, int timeout_ms, std::string *error);

} // namespace sap

#endif // SAP_NET_LISTENER_HH
