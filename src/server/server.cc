#include "src/server/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "src/server/protocol.h"

namespace camo::server {

namespace {

std::uint64_t
nowMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/** One byte down a notification pipe; safe from signal handlers and
 *  supervisor threads alike. */
void
poke(int fd, char token)
{
    if (fd >= 0) {
        [[maybe_unused]] const ssize_t n = ::write(fd, &token, 1);
    }
}

} // namespace

Server::Server(const ServerConfig &cfg)
    : cfg_(cfg), service_(cfg.service)
{
}

Server::~Server()
{
    // Quiesce the service first: supervisors fire the completion
    // hook, which write()s to completionPipe_ — after stop() joins
    // them, nothing can touch the fds we close below (a hook call
    // after close would hit a closed — or worse, reused — fd).
    service_.stop();
    for (auto &[fd, conn] : conns_)
        ::close(fd);
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        ::unlink(cfg_.socketPath.c_str());
    }
    for (const int fd : {signalPipe_[0], signalPipe_[1],
                         completionPipe_[0], completionPipe_[1]}) {
        if (fd >= 0)
            ::close(fd);
    }
}

bool
Server::start(std::string *error)
{
    if (cfg_.socketPath.empty()) {
        *error = "no socket path configured";
        return false;
    }
    struct sockaddr_un addr;
    if (cfg_.socketPath.size() >= sizeof addr.sun_path) {
        *error = "socket path too long: " + cfg_.socketPath;
        return false;
    }
    if (::pipe(signalPipe_) != 0 || ::pipe(completionPipe_) != 0) {
        *error = "pipe() failed";
        return false;
    }
    setNonBlocking(signalPipe_[0]);
    setNonBlocking(signalPipe_[1]);
    setNonBlocking(completionPipe_[0]);
    setNonBlocking(completionPipe_[1]);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        *error = "socket() failed";
        return false;
    }
    // A leftover socket file from a dead daemon would fail bind();
    // replacing it is the standard local-daemon idiom.
    ::unlink(cfg_.socketPath.c_str());
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, cfg_.socketPath.c_str(),
                 sizeof addr.sun_path - 1);
    if (::bind(listenFd_, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof addr) != 0) {
        *error = "bind(" + cfg_.socketPath +
                 ") failed: " + std::strerror(errno);
        return false;
    }
    if (::listen(listenFd_, 64) != 0) {
        *error = "listen() failed";
        return false;
    }
    setNonBlocking(listenFd_);

    service_.setCompletionHook(
        [this](std::uint64_t) { poke(completionPipe_[1], 'c'); });
    return true;
}

void
Server::notifyShutdown()
{
    poke(signalPipe_[1], 't');
}

void
Server::notifyReload()
{
    poke(signalPipe_[1], 'h');
}

void
Server::acceptClients()
{
    for (;;) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            return; // EAGAIN or transient error; poll retries
        setNonBlocking(fd);
        conns_[fd];
    }
}

bool
Server::readConn(int fd, Conn &conn)
{
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            return false;
        }
        if (n == 0)
            return false; // EOF
        conn.in.append(buf, static_cast<std::size_t>(n));
        if (conn.in.size() > kFrameHeaderBytes + kMaxFrameBytes) {
            enqueue(fd, conn, errorResponse("frame too large"));
            conn.closeAfterFlush = true;
            return true;
        }
    }
    // Process every complete frame buffered so far.
    while (!conn.closeAfterFlush &&
           conn.in.size() >= kFrameHeaderBytes) {
        const std::uint32_t len = decodeFrameLength(
            reinterpret_cast<const unsigned char *>(conn.in.data()));
        if (len > kMaxFrameBytes) {
            enqueue(fd, conn,
                    errorResponse("frame length " +
                                  std::to_string(len) +
                                  " exceeds limit"));
            conn.closeAfterFlush = true;
            break;
        }
        if (conn.in.size() < kFrameHeaderBytes + len)
            break;
        const std::string payload =
            conn.in.substr(kFrameHeaderBytes, len);
        conn.in.erase(0, kFrameHeaderBytes + len);
        handleFrame(fd, conn, payload);
    }
    return true;
}

void
Server::handleFrame(int fd, Conn &conn, const std::string &payload)
{
    const auto doc = obs::json::tryParse(payload);
    if (!doc || !doc->isObject()) {
        // A client that desynced its framing can't be trusted to
        // resync; answer and drop it.
        enqueue(fd, conn, errorResponse("malformed request frame"));
        conn.closeAfterFlush = true;
        return;
    }
    const obs::json::Value resp = handleRequest(fd, *doc);
    // A deferred `result` wait returns Null: the waiter answers
    // later from settleWaiters().
    if (!resp.isNull())
        enqueue(fd, conn, resp);
}

obs::json::Value
Server::statusResponse(const JobStatus &s, bool include_result)
{
    obs::json::Value v = okResponse();
    v["id"] = s.id;
    v["state"] = jobStateName(s.state);
    v["done"] = jobStateTerminal(s.state);
    v["attempts"] = static_cast<std::uint64_t>(s.attempts);
    v["from_cache"] = s.fromCache;
    if (jobStateTerminal(s.state)) {
        v["code"] = s.code;
        v["latency_ms"] = s.latencyMs;
    }
    if (!s.kind.empty())
        v["kind"] = s.kind;
    if (!s.error.empty())
        v["error_detail"] = s.error;
    if (!s.dumpPath.empty())
        v["dump_path"] = s.dumpPath;
    if (!s.crashDetail.empty())
        v["crash_detail"] = s.crashDetail;
    if (include_result &&
        (s.state == JobState::Succeeded ||
         s.state == JobState::Cached)) {
        std::string text;
        if (service_.result(s.id, &text))
            v["result"] = text;
    }
    return v;
}

obs::json::Value
Server::handleRequest(int fd, const obs::json::Value &req)
{
    const obs::json::Value *op = req.find("op");
    if (!op || !op->isString())
        return errorResponse("request needs a string 'op'");
    const std::string &name = op->asString();

    if (name == "submit") {
        const obs::json::Value *jobDoc = req.find("job");
        if (!jobDoc)
            return errorResponse("submit needs a 'job' object");
        JobSpec spec;
        std::string err;
        if (!JobSpec::fromJson(*jobDoc, &spec, &err))
            return errorResponse(err);
        const SubmitResult r = service_.submit(spec);
        if (!r.accepted) {
            obs::json::Value v = errorResponse(r.error);
            v["shed"] = r.shed;
            return v;
        }
        obs::json::Value v = okResponse();
        v["id"] = r.id;
        return v;
    }

    const auto jobIdOf =
        [&req]() -> std::optional<std::uint64_t> {
        const obs::json::Value *id = req.find("id");
        return id ? obs::json::toUnsigned(*id) : std::nullopt;
    };

    if (name == "status" || name == "result") {
        const auto id = jobIdOf();
        if (!id)
            return errorResponse(name + " needs a numeric 'id'");
        std::optional<std::uint64_t> wait_ms = 0;
        if (const obs::json::Value *w = req.find("wait_ms"))
            wait_ms = obs::json::toUnsigned(*w);
        if (!wait_ms)
            return errorResponse("'wait_ms' must be a non-negative "
                                 "integer");
        JobStatus s;
        if (!service_.status(*id, &s))
            return errorResponse("unknown job id " +
                                 std::to_string(*id));
        if (name == "result" && !jobStateTerminal(s.state) &&
            *wait_ms > 0) {
            waiters_.push_back({fd, *id, nowMs() + *wait_ms});
            return obs::json::Value(); // answered on completion
        }
        return statusResponse(s, name == "result");
    }

    if (name == "cancel") {
        const auto id = jobIdOf();
        if (!id)
            return errorResponse("cancel needs a numeric 'id'");
        obs::json::Value v = okResponse();
        v["canceled"] = service_.cancel(*id);
        return v;
    }

    if (name == "stats") {
        obs::json::Value v = okResponse();
        v["stats"] = service_.statsJson();
        return v;
    }

    if (name == "drain") {
        shutdownRequested_ = true;
        service_.beginDrain();
        obs::json::Value v = okResponse();
        v["draining"] = true;
        return v;
    }

    if (name == "reload") {
        ServiceConfig limits = cfg_.service;
        if (const obs::json::Value *lim = req.find("limits")) {
            if (!lim->isObject())
                return errorResponse("'limits' must be an object");
            for (const auto &[key, value] : lim->asObject()) {
                const std::uint64_t max =
                    key == "retries"
                        ? std::numeric_limits<unsigned>::max()
                        : obs::json::kMaxExactInteger;
                const auto n = obs::json::toUnsigned(value, max);
                if (!n) {
                    return errorResponse("limit '" + key +
                                         "' must be an integer in "
                                         "[0, " + std::to_string(max) +
                                         "]");
                }
                if (key == "max_queue")
                    limits.maxQueue = *n;
                else if (key == "timeout_ms")
                    limits.defaultTimeoutMs = *n;
                else if (key == "retries")
                    limits.retry.attempts = static_cast<unsigned>(*n);
                else if (key == "cache_entries")
                    limits.maxCacheEntries = *n;
                else if (key == "terminal_jobs")
                    limits.maxTerminalJobs = *n;
                else
                    return errorResponse("unknown limit '" + key +
                                         "'");
            }
        }
        service_.reload(limits);
        return okResponse();
    }

    return errorResponse("unknown op '" + name + "'");
}

void
Server::settleWaiters(std::uint64_t now_ms)
{
    std::vector<Waiter> keep;
    keep.reserve(waiters_.size());
    for (const Waiter &w : waiters_) {
        auto it = conns_.find(w.fd);
        if (it == conns_.end())
            continue; // client went away
        JobStatus s;
        if (!service_.status(w.jobId, &s)) {
            enqueue(w.fd, it->second,
                    errorResponse("unknown job id " +
                                  std::to_string(w.jobId)));
            continue;
        }
        if (jobStateTerminal(s.state)) {
            enqueue(w.fd, it->second, statusResponse(s, true));
            continue;
        }
        if (now_ms >= w.deadlineMs) {
            obs::json::Value v = statusResponse(s, false);
            v["timed_out"] = true;
            enqueue(w.fd, it->second, v);
            continue;
        }
        keep.push_back(w);
    }
    waiters_.swap(keep);
}

void
Server::enqueue(int fd, Conn &conn, const obs::json::Value &doc)
{
    (void)fd;
    encodeFrame(doc.dump(), &conn.out);
}

bool
Server::flushConn(int fd, Conn &conn)
{
    while (!conn.out.empty()) {
        const ssize_t n = ::write(fd, conn.out.data(),
                                  conn.out.size());
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return true;
            return false;
        }
        conn.out.erase(0, static_cast<std::size_t>(n));
    }
    return !conn.closeAfterFlush;
}

void
Server::closeConn(int fd)
{
    ::close(fd);
    conns_.erase(fd);
    waiters_.erase(std::remove_if(waiters_.begin(), waiters_.end(),
                                  [fd](const Waiter &w) {
                                      return w.fd == fd;
                                  }),
                   waiters_.end());
}

int
Server::run()
{
    // Once drained, responses still buffered on slow connections
    // (the drain ack itself, a final status) get this long to flush
    // before the clean exit stops caring.
    constexpr std::uint64_t kFlushGraceMs = 2000;
    std::uint64_t flushDeadlineMs = 0;
    for (;;) {
        // Exit condition: a requested shutdown that has finished
        // draining. Checked first so a drain with no jobs exits
        // without waiting for traffic.
        if (shutdownRequested_ && service_.drained()) {
            bool pendingOut = false;
            for (const auto &[fd, conn] : conns_) {
                if (!conn.out.empty()) {
                    pendingOut = true;
                    break;
                }
            }
            if (!pendingOut)
                return 0;
            if (flushDeadlineMs == 0)
                flushDeadlineMs = nowMs() + kFlushGraceMs;
            else if (nowMs() >= flushDeadlineMs)
                return 0; // stuck client; don't hold the exit
        }

        std::vector<struct pollfd> fds;
        fds.push_back({listenFd_, POLLIN, 0});
        fds.push_back({signalPipe_[0], POLLIN, 0});
        fds.push_back({completionPipe_[0], POLLIN, 0});
        for (auto &[fd, conn] : conns_) {
            short events = POLLIN;
            if (!conn.out.empty())
                events |= POLLOUT;
            fds.push_back({fd, events, 0});
        }

        int timeout = -1;
        if (!waiters_.empty()) {
            const std::uint64_t now = nowMs();
            std::uint64_t next = ~0ull;
            for (const Waiter &w : waiters_)
                next = std::min(next, w.deadlineMs);
            timeout = next <= now
                          ? 0
                          : static_cast<int>(
                                std::min<std::uint64_t>(next - now,
                                                        1000));
        } else if (shutdownRequested_) {
            timeout = 50; // poll drained() while the pool empties
        }

        const int pr =
            ::poll(fds.data(),
                   static_cast<nfds_t>(fds.size()), timeout);
        if (pr < 0 && errno != EINTR)
            return 1;

        // Drain notification pipes (level-triggered wakeups).
        char buf[256];
        bool reload = false;
        for (;;) {
            const ssize_t n =
                ::read(signalPipe_[0], buf, sizeof buf);
            if (n <= 0)
                break;
            for (ssize_t i = 0; i < n; ++i) {
                if (buf[i] == 't') {
                    shutdownRequested_ = true;
                    service_.beginDrain();
                } else if (buf[i] == 'h') {
                    reload = true;
                }
            }
        }
        if (reload)
            service_.reload(cfg_.service);
        while (::read(completionPipe_[0], buf, sizeof buf) > 0) {
        }

        acceptClients();

        // Service connection I/O. Collect doomed fds first: closing
        // while iterating conns_ would invalidate the loop.
        std::vector<int> doomed;
        for (auto &pfd : fds) {
            auto it = conns_.find(pfd.fd);
            if (it == conns_.end())
                continue;
            bool alive = true;
            if (pfd.revents & (POLLIN | POLLHUP | POLLERR))
                alive = readConn(pfd.fd, it->second);
            if (alive)
                alive = flushConn(pfd.fd, it->second);
            else
                flushConn(pfd.fd, it->second);
            if (!alive ||
                (it->second.closeAfterFlush &&
                 it->second.out.empty()))
                doomed.push_back(pfd.fd);
        }
        for (const int fd : doomed)
            closeConn(fd);

        settleWaiters(nowMs());
    }
}

} // namespace camo::server
