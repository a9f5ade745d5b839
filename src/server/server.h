/**
 * @file
 * Unix-domain socket front end of the camosimd experiment service.
 *
 * One poll()-driven thread owns the listener, every client
 * connection, and the request/response framing; simulation work
 * happens on the Service's supervisor threads (which execute each
 * attempt in a forked child — see src/server/worker.h). The two
 * halves meet at a completion pipe: supervisors write one byte when
 * a job goes terminal, waking the poll loop to settle blocked
 * `result` waiters.
 *
 * Robustness contract: nothing a client sends — malformed JSON,
 * oversize frames, half-frames, sudden disconnects — and nothing a
 * job does ever takes the loop down. Protocol violations get an
 * error frame and a closed connection; everything else gets a
 * structured response.
 *
 * Lifecycle: SIGTERM (via notifyShutdown) or a `drain` request stops
 * admission, lets in-flight jobs finish, then run() returns 0.
 * SIGHUP (via notifyReload) re-applies the startup limits without
 * dropping queued jobs.
 */

#ifndef CAMO_SERVER_SERVER_H
#define CAMO_SERVER_SERVER_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/server/service.h"

namespace camo::server {

struct ServerConfig
{
    std::string socketPath;
    ServiceConfig service;
};

class Server
{
  public:
    explicit Server(const ServerConfig &cfg);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind + listen on cfg.socketPath (replacing a stale socket
     *  file). False with *error set on failure. */
    bool start(std::string *error);

    /**
     * Serve until a shutdown request has fully drained. Returns the
     * process exit code (0 on a clean drain). Call from the thread
     * that owns the server.
     */
    int run();

    /** Async-signal-safe: request drain-then-exit (SIGTERM/SIGINT
     *  handlers call this). */
    void notifyShutdown();

    /** Async-signal-safe: request a limits reload (SIGHUP). */
    void notifyReload();

    Service &service() { return service_; }

  private:
    struct Waiter
    {
        int fd = -1;
        std::uint64_t jobId = 0;
        std::uint64_t deadlineMs = 0;
    };

    struct Conn
    {
        std::string in;
        std::string out;
        bool closeAfterFlush = false;
    };

    void handleFrame(int fd, Conn &conn, const std::string &payload);
    obs::json::Value handleRequest(int fd,
                                   const obs::json::Value &req);
    obs::json::Value statusResponse(const JobStatus &s,
                                    bool include_result);
    void settleWaiters(std::uint64_t now_ms);
    void acceptClients();
    bool readConn(int fd, Conn &conn);
    bool flushConn(int fd, Conn &conn);
    void closeConn(int fd);
    void enqueue(int fd, Conn &conn, const obs::json::Value &doc);

    ServerConfig cfg_;
    Service service_;
    int listenFd_ = -1;
    int signalPipe_[2] = {-1, -1};
    int completionPipe_[2] = {-1, -1};
    std::map<int, Conn> conns_;
    std::vector<Waiter> waiters_;
    bool shutdownRequested_ = false;
};

} // namespace camo::server

#endif // CAMO_SERVER_SERVER_H
