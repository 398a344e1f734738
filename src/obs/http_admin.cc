#include "obs/http_admin.hh"

#include <cerrno>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <vector>

#include "base/logging.hh"

namespace sap {

namespace {

/** Event-loop key of the listening socket; connections count up
 *  from kListenKey + 1. */
constexpr std::uint64_t kListenKey = 0;

/** Wait period; bounds how late an idle connection is dropped. */
constexpr int kWaitTimeoutMs = 250;

/** Target bytes must be printable ASCII — no spaces (token-split
 *  already), no controls, nothing above 0x7e. */
bool
printableTarget(const std::string &s)
{
    for (char c : s) {
        unsigned char u = static_cast<unsigned char>(c);
        if (u <= 0x20 || u > 0x7e)
            return false;
    }
    return !s.empty();
}

/** One header line "Name: value" — syntax only, content ignored. */
bool
validHeaderLine(const std::string &line)
{
    std::size_t colon = line.find(':');
    if (colon == std::string::npos || colon == 0)
        return false;
    for (std::size_t i = 0; i < colon; ++i) {
        unsigned char u = static_cast<unsigned char>(line[i]);
        // RFC 7230 token characters, loosely: printable, no space.
        if (u <= 0x20 || u > 0x7e)
            return false;
    }
    for (std::size_t i = colon + 1; i < line.size(); ++i) {
        unsigned char u = static_cast<unsigned char>(line[i]);
        if ((u < 0x20 && u != '\t') || u == 0x7f)
            return false;
    }
    return true;
}

} // namespace

const char *
httpStatusReason(int status)
{
    switch (status) {
      case 200:
        return "OK";
      case 400:
        return "Bad Request";
      case 404:
        return "Not Found";
      case 405:
        return "Method Not Allowed";
      case 431:
        return "Request Header Fields Too Large";
      case 503:
        return "Service Unavailable";
      default:
        return "Unknown";
    }
}

HttpParseResult
parseHttpRequest(const std::string &data, HttpRequest *out)
{
    const std::size_t headEnd = data.find("\r\n\r\n");
    if (headEnd == std::string::npos) {
        // A lone LF-LF is not a valid head, and a head containing a
        // NUL will never become one.
        if (data.find('\0') != std::string::npos)
            return HttpParseResult::Malformed;
        return HttpParseResult::NeedMore;
    }
    const std::string head = data.substr(0, headEnd);

    // Split into CRLF-terminated lines; bare LF or CR is malformed.
    std::vector<std::string> lines;
    std::size_t pos = 0;
    while (pos <= head.size()) {
        std::size_t eol = head.find("\r\n", pos);
        if (eol == std::string::npos) {
            lines.push_back(head.substr(pos));
            break;
        }
        lines.push_back(head.substr(pos, eol - pos));
        pos = eol + 2;
    }
    if (lines.empty() || lines[0].empty())
        return HttpParseResult::Malformed;
    for (const std::string &line : lines)
        if (line.find('\r') != std::string::npos ||
            line.find('\n') != std::string::npos)
            return HttpParseResult::Malformed;

    // Request line: exactly METHOD SP TARGET SP VERSION.
    const std::string &reqline = lines[0];
    std::size_t sp1 = reqline.find(' ');
    std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : reqline.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos ||
        reqline.find(' ', sp2 + 1) != std::string::npos)
        return HttpParseResult::Malformed;
    const std::string method = reqline.substr(0, sp1);
    const std::string target = reqline.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::string version = reqline.substr(sp2 + 1);

    if (version != "HTTP/1.1" && version != "HTTP/1.0")
        return HttpParseResult::Malformed;
    if (!printableTarget(target) || target[0] != '/')
        return HttpParseResult::Malformed;
    if (method.empty() ||
        method.find_first_not_of(
            "ABCDEFGHIJKLMNOPQRSTUVWXYZ") != std::string::npos)
        return HttpParseResult::Malformed;

    // Header lines: syntax-checked, then ignored (no body is read).
    for (std::size_t i = 1; i < lines.size(); ++i)
        if (!validHeaderLine(lines[i]))
            return HttpParseResult::Malformed;

    if (method != "GET" && method != "HEAD")
        return HttpParseResult::MethodNotAllowed;

    out->method = method;
    const std::size_t qmark = target.find('?');
    out->path = target.substr(0, qmark);
    out->query.clear();
    if (qmark != std::string::npos) {
        std::size_t qpos = qmark + 1;
        while (qpos <= target.size()) {
            std::size_t amp = target.find('&', qpos);
            const std::string pair =
                amp == std::string::npos
                    ? target.substr(qpos)
                    : target.substr(qpos, amp - qpos);
            if (!pair.empty()) {
                std::size_t eq = pair.find('=');
                if (eq == std::string::npos)
                    out->query[pair] = "";
                else
                    out->query[pair.substr(0, eq)] = pair.substr(eq + 1);
            }
            if (amp == std::string::npos)
                break;
            qpos = amp + 1;
        }
    }
    return HttpParseResult::Ok;
}

std::string
renderHttpResponse(const HttpResponse &resp, bool headOnly)
{
    std::string out = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                      httpStatusReason(resp.status) + "\r\n";
    out += "Content-Type: " + resp.contentType + "\r\n";
    out += "Content-Length: " + std::to_string(resp.body.size()) + "\r\n";
    out += "Connection: close\r\n";
    for (const auto &[k, v] : resp.extraHeaders)
        out += k + ": " + v + "\r\n";
    out += "\r\n";
    if (!headOnly)
        out += resp.body;
    return out;
}

HttpAdminServer::HttpAdminServer(const Options &opts) : opts_(opts)
{
    opts_.maxRequestBytes = std::max<std::size_t>(opts_.maxRequestBytes, 64);
    opts_.maxConnections = std::max<std::size_t>(opts_.maxConnections, 1);
}

HttpAdminServer::~HttpAdminServer()
{
    stop();
}

void
HttpAdminServer::addHandler(const std::string &path, Handler handler)
{
    handlers_[path] = std::move(handler);
}

bool
HttpAdminServer::start()
{
    if (thread_.joinable() || stopped_) {
        error_ = "admin server cannot be restarted";
        return false;
    }
    if (!loop_.valid()) {
        error_ = errnoString("event loop");
        return false;
    }
    if (!listener_.open(opts_.port, &error_))
        return false;
    thread_ = std::thread(&HttpAdminServer::serveLoop, this);
    SAP_LOG_INFO("admin server listening on 127.0.0.1:", port());
    return true;
}

void
HttpAdminServer::stop()
{
    stopped_ = true;
    if (!thread_.joinable())
        return;
    stop_requested_.store(true);
    loop_.wake();
    thread_.join();
    listener_.close();
    SAP_LOG_INFO("admin server stopped");
}

HttpResponse
HttpAdminServer::dispatch(const HttpRequest &req)
{
    auto it = handlers_.find(req.path);
    if (it == handlers_.end()) {
        HttpResponse resp;
        resp.status = 404;
        resp.body = "not found: " + req.path + "\n";
        return resp;
    }
    return it->second(req);
}

void
HttpAdminServer::makeResponse(Conn &conn)
{
    HttpRequest req;
    HttpParseResult parsed = parseHttpRequest(conn.in, &req);
    if (parsed == HttpParseResult::NeedMore) {
        if (conn.in.size() >= opts_.maxRequestBytes) {
            HttpResponse resp;
            resp.status = 431;
            resp.body = "request too large\n";
            respond(conn, resp, false);
        }
        return;
    }

    HttpResponse resp;
    bool headOnly = false;
    switch (parsed) {
      case HttpParseResult::Ok:
        resp = dispatch(req);
        headOnly = req.method == "HEAD";
        break;
      case HttpParseResult::MethodNotAllowed:
        resp.status = 405;
        resp.body = "only GET and HEAD are served here\n";
        resp.extraHeaders.emplace_back("Allow", "GET, HEAD");
        break;
      default:
        resp.status = 400;
        resp.body = "malformed request\n";
        break;
    }
    respond(conn, resp, headOnly);
}

void
HttpAdminServer::respond(Conn &conn, const HttpResponse &resp,
                         bool head_only)
{
    const std::string wire = renderHttpResponse(resp, head_only);
    conn.out.push(std::vector<std::uint8_t>(wire.begin(), wire.end()));
    conn.responding = true;
    requests_served_.fetch_add(1);
}

bool
HttpAdminServer::service(Conn &c, const EventLoop::Ready &ev, double now)
{
    if (ev.error)
        return false;
    if (c.draining || (!c.responding && (ev.readable || ev.hangup))) {
        char buf[2048];
        for (;;) {
            const ssize_t n = ::read(c.fd, buf, sizeof(buf));
            if (n == 0)
                return false; // the peer closed, or sent no full head
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                if (errno != EAGAIN && errno != EWOULDBLOCK)
                    return false;
                break;
            }
            if (c.draining)
                continue; // lingering close: discard until EOF
            c.idleSince = now;
            // Cap the buffered head: bytes beyond the limit cannot
            // change the (431) outcome.
            const std::size_t room = opts_.maxRequestBytes - c.in.size();
            c.in.append(buf, std::min(static_cast<std::size_t>(n), room));
            if (c.in.size() == opts_.maxRequestBytes)
                break;
        }
        if (c.draining)
            return true;
        makeResponse(c);
    }
    if (!c.responding)
        return true;
    const ssize_t n = c.out.flush(c.fd);
    if (n < 0)
        return false;
    if (n > 0)
        c.idleSince = now;
    if (c.out.empty()) {
        // Fully answered: half-close and linger until the peer
        // closes, so the response survives any unread request bytes
        // (no RST).
        ::shutdown(c.fd, SHUT_WR);
        c.draining = true;
    }
    return true;
}

void
HttpAdminServer::serveLoop()
{
    std::map<std::uint64_t, Conn> conns;
    std::uint64_t next_id = kListenKey + 1;
    auto drop = [&](std::map<std::uint64_t, Conn>::iterator it) {
        loop_.remove(it->second.fd);
        ::close(it->second.fd);
        return conns.erase(it);
    };
    while (!stop_requested_.load()) {
        listener_.watch(loop_, kListenKey, true);
        loop_.wait(kWaitTimeoutMs);
        const double now = monotonicSeconds();
        for (const EventLoop::Ready &ev : loop_.ready()) {
            if (ev.key == kListenKey) {
                for (int fd; (fd = listener_.accept()) >= 0;) {
                    if (conns.size() >= opts_.maxConnections) {
                        ::close(fd);
                        continue;
                    }
                    Conn &c = conns[next_id];
                    c.fd = fd;
                    c.idleSince = now;
                    loop_.set(fd, EventLoop::kRead, next_id++);
                }
                continue;
            }
            auto it = conns.find(ev.key);
            if (it == conns.end())
                continue;
            Conn &c = it->second;
            if (!service(c, ev, now)) {
                drop(it);
                continue;
            }
            loop_.set(c.fd,
                      c.responding && !c.draining ? EventLoop::kWrite
                                                  : EventLoop::kRead,
                      ev.key);
        }
        for (auto it = conns.begin(); it != conns.end();) {
            if (now - it->second.idleSince > opts_.idleTimeoutSeconds)
                it = drop(it);
            else
                ++it;
        }
    }
    while (!conns.empty())
        drop(conns.begin());
}

} // namespace sap
