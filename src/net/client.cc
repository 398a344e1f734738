#include "net/client.hh"

#include <cerrno>
#include <map>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/listener.hh"
#include "serve/shard.hh"

namespace sap {

NetClient::~NetClient()
{
    disconnect();
}

bool
NetClient::fail(const std::string &message)
{
    error_ = message;
    return false;
}

bool
NetClient::connect(const std::string &host, std::uint16_t port)
{
    if (fd_ >= 0)
        return fail("already connected");

    // Non-blocking from the start: every wait below goes through
    // poll(), so a full send buffer can never wedge a call that
    // still has responses to read (see the file comment).
    bool connected = false;
    std::string err;
    const int fd = dialStart(host, port, &connected, &err);
    if (fd < 0)
        return fail(err);
    if (sndbuf_bytes_ > 0)
        ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf_bytes_,
                     sizeof(sndbuf_bytes_));
    if (!connected && !dialFinish(fd, -1, &err)) {
        ::close(fd);
        return fail(err);
    }
    fd_ = fd;
    decoder_ = FrameDecoder(max_payload_);
    error_.clear();
    return true;
}

void
NetClient::disconnect()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
NetClient::drop(const std::string &message)
{
    disconnect();
    return fail(message);
}

bool
NetClient::nextFrame(OutQueue &out, Frame *frame)
{
    if (fd_ < 0)
        return fail("not connected");
    for (;;) {
        std::string err;
        const FrameDecoder::Result res = decoder_.next(frame, &err);
        if (res == FrameDecoder::Result::Ok)
            return true;
        if (res == FrameDecoder::Result::Malformed)
            return drop("malformed server stream: " + err);
        if (out.flush(fd_) < 0)
            return drop(errnoString("send"));
        struct pollfd pfd = {fd_, POLLIN, 0};
        if (!out.empty())
            pfd.events |= POLLOUT;
        if (::poll(&pfd, 1, -1) < 0) {
            if (errno == EINTR)
                continue;
            return drop(errnoString("poll"));
        }
        if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0)
            continue; // only writable: flush at the top
        const ssize_t n = decoder_.receive(fd_);
        if (n == 0)
            return drop("server closed the connection");
        if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
            errno != EINTR)
            return drop(errnoString("recv"));
    }
}

NetClient::Result
NetClient::submit(const ServeRequest &req)
{
    std::vector<Result> results = submitBatch({req});
    return std::move(results.front());
}

std::vector<NetClient::Result>
NetClient::submitBatch(const std::vector<ServeRequest> &reqs)
{
    std::vector<Result> results(reqs.size());
    if (reqs.empty())
        return results;

    // Pipeline all SUBMITs; nextFrame() sends them while it reads, as
    // a write-until-done loop here deadlocks (file comment).
    std::map<std::uint64_t, std::size_t> slot_of;
    OutQueue out;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        std::uint64_t tag = next_tag_++;
        slot_of[tag] = i;
        out.push(buildSubmitFrame(tag, reqs[i]));
    }

    auto fail_rest = [&] {
        for (const auto &entry : slot_of)
            results[entry.second].transportError = error_;
    };
    for (std::size_t outstanding = reqs.size(); outstanding > 0;
         --outstanding) {
        Frame frame;
        if (!nextFrame(out, &frame)) {
            fail_rest();
            return results;
        }
        auto it = slot_of.find(frame.header.tag);
        if (it == slot_of.end()) {
            // A frame we did not ask for: a server-side frame-level
            // ERROR (tag 0) is fatal to the stream; anything else is
            // a protocol violation by the server.
            std::string message =
                "unexpected " + frameTypeName(frame.header.type) +
                " frame for unknown tag " +
                std::to_string(frame.header.tag);
            std::string detail;
            if (frame.header.type ==
                    static_cast<std::uint16_t>(FrameType::Error) &&
                decodeError(frame.payload, &detail, nullptr))
                message += ": " + detail;
            drop(message);
            fail_rest();
            return results;
        }
        Result &result = results[it->second];
        slot_of.erase(it);

        std::string err;
        if (frame.header.type ==
            static_cast<std::uint16_t>(FrameType::Response)) {
            if (!decodeResponse(frame.payload, &result.response, &err)) {
                result.transportError = "undecodable RESPONSE: " + err;
                continue;
            }
            result.transportOk = true;
        } else if (frame.header.type ==
                   static_cast<std::uint16_t>(FrameType::Error)) {
            std::string message;
            if (!decodeError(frame.payload, &message, &err)) {
                result.transportError = "undecodable ERROR: " + err;
                continue;
            }
            // Application-level rejection: surfaced like a served
            // error response.
            result.transportOk = true;
            result.response.ok = false;
            result.response.error = message;
        } else {
            result.transportError =
                "unexpected " + frameTypeName(frame.header.type) +
                " frame in reply to SUBMIT";
        }
    }
    return results;
}

bool
NetClient::exchange(std::vector<std::uint8_t> (*build)(std::uint64_t),
                    FrameType type, Frame *reply)
{
    const std::uint64_t tag = next_tag_++;
    OutQueue out;
    out.push(build(tag));
    if (!nextFrame(out, reply))
        return false;
    if (reply->header.type != static_cast<std::uint16_t>(type) ||
        reply->header.tag != tag)
        return fail("unexpected " + frameTypeName(reply->header.type) +
                    " frame in reply to " +
                    frameTypeName(static_cast<std::uint16_t>(type)));
    return true;
}

bool
NetClient::stats(ServerStats *out)
{
    Frame frame;
    std::string err;
    if (!exchange(buildStatsRequestFrame, FrameType::Stats, &frame))
        return false;
    if (!decodeStats(frame.payload, out, &err))
        return fail("undecodable STATS: " + err);
    return true;
}

bool
NetClient::metrics(MetricsSnapshot *out)
{
    Frame frame;
    std::string err;
    if (!exchange(buildMetricsRequestFrame, FrameType::Metrics, &frame))
        return false;
    if (!decodeMetrics(frame.payload, out, &err))
        return fail("undecodable METRICS: " + err);
    return true;
}

bool
NetClient::traces(std::vector<RequestTrace> *out,
                  std::uint64_t *totalCommitted)
{
    Frame frame;
    std::vector<RequestTrace> traces;
    std::uint64_t total = 0;
    std::string err;
    if (!exchange(buildTracesRequestFrame, FrameType::Traces, &frame))
        return false;
    if (!decodeTraces(frame.payload, &traces, &total, &err))
        return fail("undecodable TRACES: " + err);
    if (out)
        *out = std::move(traces);
    if (totalCommitted)
        *totalCommitted = total;
    return true;
}

bool
NetClient::ping()
{
    Frame frame;
    return exchange(buildPingFrame, FrameType::Ping, &frame);
}

bool
NetClient::matchesOracle(const ServeRequest &req,
                         const WireResponse &resp)
{
    EngineRunResult result;
    result.y = resp.y;
    result.c = resp.c;
    return sap::matchesOracle(req.plan, result);
}

} // namespace sap
