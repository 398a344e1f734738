/**
 * @file
 * One framed wire-protocol connection as every tier holds it — fd,
 * FrameDecoder, OutQueue, the closing flag and the interest mask last
 * installed — with the one receive loop and the one interest rule;
 * and ConnectionSet, a front door's connections by event-loop key.
 * NetServer's and the gateway's client connections and AsyncClient's
 * backend connection all use Connection.
 *
 * A Connection does not own its fd (a ConnectionSet does). Neither is
 * thread-safe; an owner whose other threads queue and write output
 * (NetServer's shard workers) holds its own lock around them.
 */

#ifndef SAP_NET_CONNECTION_HH
#define SAP_NET_CONNECTION_HH

#include <cerrno>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include <unistd.h>

#include "net/event_loop.hh"
#include "net/listener.hh"
#include "net/protocol.hh"

namespace sap {

/** A framed connection's state (see file comment). */
struct Connection
{
    /** How receive() ended. */
    enum class End : std::uint8_t
    {
        Drained,   ///< EAGAIN (or already closing): nothing more now
        Eof,       ///< the peer finished writing; closing is set
        Malformed, ///< frame-level violation; closing is set
        Stopped,   ///< the frame callback asked to stop
        Failed,    ///< socket error (errno set): drop the connection
    };

    int fd = -1;
    FrameDecoder decoder;
    OutQueue out;
    /** Stop reading; close once the owner has flushed what it owes. */
    bool closing = false;
    /** The EventLoop interest installed by updateInterest(). */
    std::uint32_t interest = 0;

    Connection(int fd_in, std::uint32_t max_payload)
        : fd(fd_in), decoder(max_payload)
    {
    }

    /**
     * Read until EAGAIN, handing each complete frame to
     * @p on_frame(Frame &&), which returns false to stop. End of
     * stream or a frame-level violation (the byte stream cannot be
     * re-synchronized) sets closing; the owner decides what to send
     * before the close. Adds the bytes read to @p *received when
     * non-null; a Malformed end leaves the reason in @p *error.
     */
    template <typename OnFrame>
    End receive(OnFrame &&on_frame, std::uint64_t *received,
                std::string *error)
    {
        if (closing)
            return End::Drained;
        for (;;) {
            const ssize_t n = decoder.receive(fd);
            if (n > 0) {
                if (received)
                    *received += static_cast<std::uint64_t>(n);
                for (;;) {
                    Frame frame;
                    const FrameDecoder::Result res =
                        decoder.next(&frame, error);
                    if (res == FrameDecoder::Result::NeedMore)
                        break;
                    if (res == FrameDecoder::Result::Malformed) {
                        closing = true;
                        return End::Malformed;
                    }
                    if (!on_frame(std::move(frame)))
                        return End::Stopped;
                }
                continue;
            }
            if (n == 0) {
                closing = true;
                return End::Eof;
            }
            if (errno == EINTR)
                continue;
            return errno == EAGAIN || errno == EWOULDBLOCK
                       ? End::Drained
                       : End::Failed;
        }
    }

    /** The interest rule: read while the owner is @p reading and the
     *  connection is neither closing nor over its output cap
     *  (backpressure: a peer that does not read its responses stops
     *  being read from); write while output is queued. */
    std::uint32_t wantedInterest(bool reading,
                                 std::size_t max_queued_bytes) const
    {
        const std::size_t queued = out.queuedBytes();
        std::uint32_t mask = 0;
        if (reading && !closing && queued <= max_queued_bytes)
            mask |= EventLoop::kRead;
        if (queued > 0)
            mask |= EventLoop::kWrite;
        return mask;
    }

    /** Install wantedInterest() in @p loop under @p key when it
     *  changed. */
    void updateInterest(EventLoop &loop, std::uint64_t key, bool reading,
                        std::size_t max_queued_bytes)
    {
        const std::uint32_t mask =
            wantedInterest(reading, max_queued_bytes);
        if (mask != interest) {
            loop.set(fd, mask, key);
            interest = mask;
        }
    }
};

/**
 * A front door's client connections by event-loop key: adopt, close,
 * and the close-when-done sweep. A connection that reads to its end
 * may still be owed responses (a client can pipeline requests and
 * half-close before reading), so it closes once it is closing, its
 * output is flushed and the owner says it is owed nothing.
 */
class ConnectionSet
{
  public:
    /** Keys are handed out from @p first_key on. */
    ConnectionSet(EventLoop &loop, std::uint64_t first_key,
                  std::uint32_t max_payload, std::size_t max_queued_bytes)
        : loop_(loop), max_payload_(max_payload),
          max_queued_(max_queued_bytes), next_key_(first_key)
    {
    }

    ~ConnectionSet() { closeAll(); }

    ConnectionSet(const ConnectionSet &) = delete;
    ConnectionSet &operator=(const ConnectionSet &) = delete;

    std::size_t size() const { return conns_.size(); }

    /** Adopt every connection pending on @p listener. @return how
     *  many. */
    std::size_t acceptAll(Listener &listener, bool reading)
    {
        std::size_t n = 0;
        for (int fd; (fd = listener.accept()) >= 0; ++n) {
            const std::uint64_t key = next_key_++;
            auto &conn = conns_[key] =
                std::make_unique<Connection>(fd, max_payload_);
            update(key, *conn, reading);
        }
        return n;
    }

    /** The connection under @p key, or null. */
    Connection *find(std::uint64_t key)
    {
        auto it = conns_.find(key);
        return it == conns_.end() ? nullptr : it->second.get();
    }

    /** True once update() has seen @p key closing (and until it is
     *  closed). */
    bool closing(std::uint64_t key) const
    {
        return closing_.count(key) != 0;
    }

    /** Install @p conn's interest; track it for the sweep once it is
     *  closing. */
    void update(std::uint64_t key, Connection &conn, bool reading)
    {
        conn.updateInterest(loop_, key, reading, max_queued_);
        if (conn.closing)
            closing_.insert(key);
    }

    void updateAll(bool reading)
    {
        for (auto &entry : conns_)
            update(entry.first, *entry.second, reading);
    }

    /** Unwatch, close and forget @p key (no-op when gone). */
    void close(std::uint64_t key)
    {
        auto it = conns_.find(key);
        if (it == conns_.end())
            return;
        loop_.remove(it->second->fd); // before close(): see EventLoop
        ::close(it->second->fd);
        conns_.erase(it);
        closing_.erase(key);
    }

    void closeAll()
    {
        while (!conns_.empty())
            close(conns_.begin()->first);
    }

    /** Close each closing connection that is flushed and, by
     *  @p owed(key), owed nothing (see class comment). */
    template <typename Owed>
    void sweep(Owed &&owed)
    {
        for (auto it = closing_.begin(); it != closing_.end();) {
            const std::uint64_t key = *it++; // close() erases key
            if (conns_.at(key)->out.empty() && !owed(key))
                close(key);
        }
    }

    /** True while any connection has output queued. */
    bool anyOutput() const
    {
        for (const auto &entry : conns_)
            if (!entry.second->out.empty())
                return true;
        return false;
    }

  private:
    EventLoop &loop_;
    std::uint32_t max_payload_;
    std::size_t max_queued_;
    std::uint64_t next_key_;
    std::map<std::uint64_t, std::unique_ptr<Connection>> conns_;
    /** Keys of closing connections, for sweep(). */
    std::set<std::uint64_t> closing_;
};

} // namespace sap

#endif // SAP_NET_CONNECTION_HH
