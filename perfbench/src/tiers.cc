#include "tiers.hh"

#include <fcntl.h>
#include <sys/prctl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "net/gateway.hh"
#include "net/server.hh"

namespace perfbench {

using namespace sap;

namespace {

/**
 * Read one '\n'-terminated line from @p fd within @p timeout_ms.
 * Byte-at-a-time on purpose: the control channel carries a few short
 * lines, and reading past the newline would strand the next reply.
 */
bool
readLine(int fd, int timeout_ms, std::string *out)
{
    out->clear();
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    for (;;) {
        int left = static_cast<int>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now())
                .count());
        if (timeout_ms >= 0 && left <= 0)
            return false;
        pollfd p{fd, POLLIN, 0};
        int rc = ::poll(&p, 1, timeout_ms < 0 ? -1 : left);
        if (rc < 0 && errno == EINTR)
            continue;
        if (rc <= 0)
            return false;
        char c = 0;
        ssize_t n = ::read(fd, &c, 1);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        if (c == '\n')
            return true;
        out->push_back(c);
    }
}

bool
writeAll(int fd, const std::string &s)
{
    std::size_t off = 0;
    while (off < s.size()) {
        ssize_t n = ::write(fd, s.data() + off, s.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * Children not yet reaped. A fatal error exits the benchmark without
 * unwinding the stack, so an exit handler kills and reaps whatever is
 * still running; the benchmark never leaves a serving child behind.
 */
std::mutex g_live_mu;
std::vector<pid_t> g_live;

void
reapLive()
{
    std::lock_guard<std::mutex> lock(g_live_mu);
    for (pid_t pid : g_live) {
        ::kill(pid, SIGKILL);
        while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
        }
    }
    g_live.clear();
}

void
trackChild(pid_t pid, bool live)
{
    static bool registered = (std::atexit(reapLive), true);
    (void)registered;
    std::lock_guard<std::mutex> lock(g_live_mu);
    if (live)
        g_live.push_back(pid);
    else
        g_live.erase(std::remove(g_live.begin(), g_live.end(), pid),
                     g_live.end());
}

/**
 * Peak resident set of this process, KiB, from VmHWM. getrusage's
 * ru_maxrss would not do: it survives execve, so it would carry the
 * high-water mark of the parent's image (the request pool) the child
 * was forked from. VmHWM belongs to the exec'd program alone.
 */
double
peakRssKib()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6);
    return 0;
}

TierUsage
selfUsage()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    auto us = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) * 1e6 +
               static_cast<double>(tv.tv_usec);
    };
    TierUsage u;
    u.cpuMicros = us(ru.ru_utime) + us(ru.ru_stime);
    u.peakRssKib = peakRssKib();
    return u;
}

} // namespace

int
serveTiersMain(bool traced)
{
    // Lifecycle lines at Info would interleave with the benchmark's
    // own output; warnings and errors still reach stderr.
    setLogLevel(LogLevel::Warn);
    std::vector<std::unique_ptr<NetServer>> backends;
    std::vector<Gateway::BackendAddr> addrs;
    for (int b = 0; b < kBackends; ++b) {
        NetServer::Options opts;
        opts.cluster.shards = kShardsPerBackend;
        opts.cluster.threadsPerShard = 1;
        opts.metrics = true;
        opts.cluster.metrics = true;
        // Backends honor the gateway's head-sampling flag; with
        // sampleEvery=1 at the edge every request is committed.
        opts.trace.enabled = traced;
        opts.trace.sampleEvery = 1;
        backends.push_back(std::make_unique<NetServer>(opts));
        if (!backends.back()->start()) {
            std::fprintf(stderr, "perfbench tiers: backend: %s\n",
                         backends.back()->error().c_str());
            return 1;
        }
        addrs.push_back({"127.0.0.1", backends.back()->port(), 0});
    }
    Gateway::Options gopts;
    gopts.backends = addrs;
    gopts.metrics = true;
    gopts.trace.enabled = traced;
    gopts.trace.sampleEvery = 1;
    Gateway gw(gopts);
    if (!gw.start()) {
        std::fprintf(stderr, "perfbench tiers: gateway: %s\n",
                     gw.error().c_str());
        return 1;
    }
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (gw.routableBackends() < static_cast<std::size_t>(kBackends)) {
        if (std::chrono::steady_clock::now() > deadline) {
            std::fprintf(stderr,
                         "perfbench tiers: backends never routable\n");
            return 1;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (!writeAll(1, "ports " + std::to_string(gw.port()) + " " +
                         std::to_string(backends[0]->port()) + "\n"))
        return 1;

    std::string cmd;
    while (readLine(0, -1, &cmd)) {
        if (cmd == "usage") {
            TierUsage u = selfUsage();
            char line[96];
            std::snprintf(line, sizeof line, "%.0f %.0f\n", u.cpuMicros,
                          u.peakRssKib);
            if (!writeAll(1, line))
                break;
        }
    }
    gw.stop();
    for (std::unique_ptr<NetServer> &b : backends)
        b->stop();
    return 0;
}

std::unique_ptr<Tiers>
Tiers::spawn(const std::string &self_exe, bool traced,
             std::string *error)
{
    int in_pipe[2];  // parent → child
    int out_pipe[2]; // child → parent
    if (::pipe2(in_pipe, O_CLOEXEC) != 0) {
        *error = std::string("pipe: ") + std::strerror(errno);
        return nullptr;
    }
    if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
        *error = std::string("pipe: ") + std::strerror(errno);
        ::close(in_pipe[0]);
        ::close(in_pipe[1]);
        return nullptr;
    }
    pid_t pid = ::fork();
    if (pid < 0) {
        *error = std::string("fork: ") + std::strerror(errno);
        for (int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1]})
            ::close(fd);
        return nullptr;
    }
    if (pid == 0) {
        // Die with the parent, however it ends.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        // dup2 clears O_CLOEXEC on the new descriptors only.
        ::dup2(in_pipe[0], 0);
        ::dup2(out_pipe[1], 1);
        const char *argv[] = {self_exe.c_str(), "--serve-tiers",
                              traced ? "--traced" : nullptr, nullptr};
        ::execv(self_exe.c_str(), const_cast<char *const *>(argv));
        ::_exit(127);
    }
    ::close(in_pipe[0]);
    ::close(out_pipe[1]);
    trackChild(pid, true);

    std::unique_ptr<Tiers> t(new Tiers());
    t->pid_ = pid;
    t->to_child_ = in_pipe[1];
    t->from_child_ = out_pipe[0];

    std::string line;
    unsigned gw = 0, be = 0;
    if (!readLine(t->from_child_, 60000, &line) ||
        std::sscanf(line.c_str(), "ports %u %u", &gw, &be) != 2) {
        *error = "serving child did not come up";
        return nullptr;
    }
    t->gateway_port_ = static_cast<std::uint16_t>(gw);
    t->backend_port_ = static_cast<std::uint16_t>(be);
    return t;
}

Tiers::~Tiers() { stop(); }

bool
Tiers::usage(TierUsage *out)
{
    std::string line;
    if (to_child_ < 0 || !writeAll(to_child_, "usage\n") ||
        !readLine(from_child_, 10000, &line))
        return false;
    return std::sscanf(line.c_str(), "%lf %lf", &out->cpuMicros,
                       &out->peakRssKib) == 2;
}

bool
Tiers::stop()
{
    if (pid_ < 0)
        return true;
    ::close(to_child_);
    to_child_ = -1;
    // A healthy child exits within milliseconds of EOF; one that
    // hangs is killed so the benchmark always ends.
    int status = 0;
    pid_t rc = 0;
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while ((rc = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (rc == 0) {
        ::kill(pid_, SIGKILL);
        do {
            rc = ::waitpid(pid_, &status, 0);
        } while (rc < 0 && errno == EINTR);
        status = -1;
    }
    ::close(from_child_);
    from_child_ = -1;
    trackChild(pid_, false);
    pid_ = -1;
    return rc > 0 && status != -1 && WIFEXITED(status) &&
           WEXITSTATUS(status) == 0;
}

} // namespace perfbench
