/**
 * @file
 * Minimal embedded HTTP/1.1 admin server: the observability side
 * door next to the binary-protocol front door.
 *
 * The binary protocol (net/protocol.hh) is the data plane; operators
 * and standard tooling (curl, a Prometheus scraper, a load balancer's
 * health checker) speak HTTP. This server exists solely so those
 * tools can reach the obs/ surfaces — it is deliberately *not* a web
 * framework:
 *
 *  - GET (and HEAD) only; anything else is 405.
 *  - One request per connection ("Connection: close"); no keep-alive,
 *    no chunked encoding, no percent-decoding. Admin traffic is a
 *    handful of requests per second, so connection reuse buys
 *    nothing and every dropped feature is parsing attack surface
 *    gone.
 *  - Strictly bounds-checked request parsing in the spirit of
 *    net/protocol: a hard cap on request bytes (431 when exceeded),
 *    request line of exactly three tokens, printable-ASCII target,
 *    malformed input earns a 400 and a close — never a crash.
 *  - One thread running an EventLoop over the listening socket
 *    (net/listener.hh, with its accept backoff) and the open
 *    connections; handlers run inline on it. Handlers render obs
 *    snapshots (microseconds to low milliseconds); an admin port does
 *    not need concurrency, it needs predictability.
 *
 * Routing is exact-path: register a handler per path; the query
 * string is split into key=value pairs and passed along. Unknown
 * paths earn 404. The owner (obs/admin_plane.hh, or anything else)
 * registers handlers *before* start() — registration is not
 * thread-safe against a running server, by design.
 *
 * Lifecycle mirrors NetServer: construct, addHandler(), start()
 * (binds 127.0.0.1, port 0 = ephemeral, see port()), stop() joins
 * the thread; stopped servers do not restart.
 */

#ifndef SAP_OBS_HTTP_ADMIN_HH
#define SAP_OBS_HTTP_ADMIN_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.hh"
#include "net/listener.hh"
#include "net/protocol.hh"

namespace sap {

/** A parsed (valid) admin request. */
struct HttpRequest
{
    std::string method; ///< "GET" or "HEAD"
    std::string path;   ///< target up to '?', e.g. "/metrics"
    /** Query pairs, e.g. {"format","chrome"} from "?format=chrome".
     *  Keys without '=' map to "". No percent-decoding (documented;
     *  admin values are plain tokens). */
    std::map<std::string, std::string> query;
};

/** What a handler answers with. */
struct HttpResponse
{
    int status = 200;
    std::string contentType = "text/plain; charset=utf-8";
    std::string body;
    /** Extra headers, e.g. {"Content-Disposition","attachment"}. */
    std::vector<std::pair<std::string, std::string>> extraHeaders;
};

/** Standard reason phrase for the handful of codes we emit. */
const char *httpStatusReason(int status);

/**
 * Outcome of parsing one request head. Exposed (with parseHttpRequest)
 * so tests can drive the parser without sockets.
 */
enum class HttpParseResult : std::uint8_t
{
    Ok = 0,          ///< request filled in
    NeedMore = 1,    ///< no terminating CRLFCRLF yet
    Malformed = 2,   ///< 400: not a request this server accepts
    MethodNotAllowed = 3, ///< 405: valid request line, not GET/HEAD
};

/**
 * Parse one request head from @p data (everything up to and including
 * the first CRLFCRLF). Strict: three-token request line, version
 * HTTP/1.0 or HTTP/1.1, target starting with '/' and printable ASCII,
 * header lines syntactically checked (then ignored — no request body
 * is ever read). @p data longer than the head is fine; the body (if a
 * client sends one anyway) is ignored.
 */
HttpParseResult parseHttpRequest(const std::string &data,
                                 HttpRequest *out);

/** Serialize status line + headers + body (the exact wire bytes). */
std::string renderHttpResponse(const HttpResponse &resp,
                               bool headOnly = false);

/**
 * The server (see file comment).
 */
class HttpAdminServer
{
  public:
    using Handler = std::function<HttpResponse(const HttpRequest &)>;

    struct Options
    {
        /** TCP port on 127.0.0.1; 0 binds an ephemeral port. */
        std::uint16_t port = 0;
        /** Hard cap on request-head bytes; beyond it: 431 + close. */
        std::size_t maxRequestBytes = 8192;
        /** Idle connections are dropped after this many seconds
         *  (a client that connects and sends nothing cannot pin a
         *  slot forever). */
        double idleTimeoutSeconds = 10.0;
        /** Cap on simultaneously open admin connections; a new
         *  connection beyond it is closed at once (the open ones keep
         *  their slots until they finish or idle out). */
        std::size_t maxConnections = 32;
    };

    explicit HttpAdminServer(const Options &opts);
    ~HttpAdminServer();

    HttpAdminServer(const HttpAdminServer &) = delete;
    HttpAdminServer &operator=(const HttpAdminServer &) = delete;

    /** Register @p handler for exact path @p path (before start()). */
    void addHandler(const std::string &path, Handler handler);

    /** Bind + listen + spawn the serving thread.
     *  @return false (error() set) on socket failure. */
    bool start();

    /** Stop serving and join; idempotent, called by the destructor. */
    void stop();

    /** Bound port (valid after a successful start()). */
    std::uint16_t port() const { return listener_.port(); }

    /** Why start() failed (empty otherwise). */
    const std::string &error() const { return error_; }

    /** Requests answered (any status), for tests/metrics. */
    std::uint64_t requestsServed() const
    {
        return requests_served_.load();
    }

  private:
    struct Conn
    {
        int fd = -1;
        std::string in;       ///< request bytes so far
        OutQueue out;         ///< response bytes not yet written
        bool responding = false; ///< head parsed, response queued
        /** Response fully written; write side shut down, discarding
         *  reads until the peer closes (lingering close — an
         *  immediate close() with unread request bytes in the
         *  receive queue would RST and could destroy the response
         *  before the client reads it). */
        bool draining = false;
        double idleSince = 0;
    };

    void serveLoop();
    /** Read, answer and write for one readiness record.
     *  @return false to drop the connection now. */
    bool service(Conn &conn, const EventLoop::Ready &ev, double now);
    /** Parse-and-dispatch once conn.in holds a full head (or is
     *  hopeless); fills conn.out. */
    void makeResponse(Conn &conn);
    /** Queue @p resp on @p conn and count it served. */
    void respond(Conn &conn, const HttpResponse &resp, bool head_only);
    HttpResponse dispatch(const HttpRequest &req);

    Options opts_;
    std::string error_;
    std::map<std::string, Handler> handlers_;

    Listener listener_;
    EventLoop loop_;
    std::atomic<bool> stop_requested_{false};
    bool stopped_ = false;
    std::thread thread_;
    std::atomic<std::uint64_t> requests_served_{0};
};

} // namespace sap

#endif // SAP_OBS_HTTP_ADMIN_HH
