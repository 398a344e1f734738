#include "net/event_loop.hh"

#include <cerrno>

#include <sys/eventfd.h>
#include <unistd.h>

#include "base/logging.hh"

namespace sap {

namespace {

/** The key the wake eventfd is watched with; set() refuses it. */
constexpr std::uint64_t kWakeToken = ~std::uint64_t{0};

} // namespace

EventLoop::EventLoop()
{
    epfd_ = ::epoll_create1(0);
    wakefd_ = ::eventfd(0, EFD_NONBLOCK);
    if (epfd_ < 0 || wakefd_ < 0)
        return;
    struct epoll_event ev;
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeToken;
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, wakefd_, &ev) != 0) {
        ::close(wakefd_);
        wakefd_ = -1;
    }
}

EventLoop::~EventLoop()
{
    if (epfd_ >= 0)
        ::close(epfd_);
    if (wakefd_ >= 0)
        ::close(wakefd_);
}

bool
EventLoop::valid() const
{
    return epfd_ >= 0 && wakefd_ >= 0;
}

bool
EventLoop::set(int fd, std::uint32_t interest, std::uint64_t key)
{
    SAP_ASSERT(key != kWakeToken, "event loop key ", key,
               " is reserved");
    if (interest == 0) {
        remove(fd);
        return true;
    }
    struct epoll_event ev;
    ev.events = ((interest & kRead) ? EPOLLIN : 0u) |
                ((interest & kWrite) ? EPOLLOUT : 0u);
    ev.data.u64 = key;
    auto it = entries_.find(fd);
    if (it == entries_.end()) {
        if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0)
            return false;
        entries_[fd] = {interest, key};
        return true;
    }
    if (it->second.interest == interest && it->second.key == key)
        return true;
    if (::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) != 0)
        return false;
    it->second = {interest, key};
    return true;
}

void
EventLoop::remove(int fd)
{
    auto it = entries_.find(fd);
    if (it == entries_.end())
        return;
    // Failure (EBADF after a racing close) only means the kernel
    // already forgot the fd; forget it here too either way.
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
    entries_.erase(it);
}

bool
EventLoop::watched(int fd) const
{
    return entries_.count(fd) != 0;
}

int
EventLoop::wait(int timeout_ms)
{
    ready_.clear();
    events_.resize(entries_.size() + 1); // + the wake eventfd
    int n = ::epoll_wait(epfd_, events_.data(),
                         static_cast<int>(events_.size()), timeout_ms);
    if (n <= 0)
        return 0; // timeout, or EINTR — the caller re-waits
    ready_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        if (events_[i].data.u64 == kWakeToken) {
            // One read resets the counter: every wake() since the
            // last drain is consumed here.
            std::uint64_t count;
            [[maybe_unused]] ssize_t r =
                ::read(wakefd_, &count, sizeof(count));
            continue;
        }
        Ready r;
        r.key = events_[i].data.u64;
        r.readable = (events_[i].events & EPOLLIN) != 0;
        r.writable = (events_[i].events & EPOLLOUT) != 0;
        r.error = (events_[i].events & EPOLLERR) != 0;
        r.hangup = (events_[i].events & EPOLLHUP) != 0;
        ready_.push_back(r);
    }
    return static_cast<int>(ready_.size());
}

void
EventLoop::wake()
{
    const std::uint64_t one = 1;
    // Best-effort: the counter saturating (it cannot, in practice)
    // would still leave the eventfd readable, i.e. a wake pending.
    [[maybe_unused]] ssize_t n = ::write(wakefd_, &one, sizeof(one));
}

const char *
EventLoop::backendName()
{
    return "epoll";
}

} // namespace sap
