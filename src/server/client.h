/**
 * @file
 * Blocking client for the camosimd protocol, shared by the
 * camosim_client CLI and the chaos-soak harness.
 *
 * One connection, strict request/response: every request() writes
 * one frame and reads one frame. The soak also uses rawFd() to send
 * deliberately malformed bytes — the daemon must survive those too.
 */

#ifndef CAMO_SERVER_CLIENT_H
#define CAMO_SERVER_CLIENT_H

#include <cstdint>
#include <optional>
#include <string>

#include "src/server/job.h"

namespace camo::server {

class Client
{
  public:
    Client() = default;
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Connect to a daemon socket. False with *error set on
     *  failure (daemon not up yet, path wrong, ...). */
    bool connect(const std::string &socket_path, std::string *error);

    bool connected() const { return fd_ >= 0; }
    void close();

    /** One request frame out, one response frame in. Nullopt on any
     *  transport error (connection closed, bad frame). */
    std::optional<obs::json::Value>
    request(const obs::json::Value &req);

    /** submit; returns the job id, or nullopt with *error set
     *  (sheds and rejects land here with the server's reason). */
    std::optional<std::uint64_t> submit(const JobSpec &spec,
                                        std::string *error);

    /**
     * result with wait_ms: blocks server-side until the job is
     * terminal or the wait times out. Returns the full response
     * document (state, code, result text on success).
     */
    std::optional<obs::json::Value>
    waitResult(std::uint64_t id, std::uint64_t wait_ms);

    std::optional<obs::json::Value> status(std::uint64_t id);
    std::optional<obs::json::Value> stats();
    bool cancel(std::uint64_t id);
    bool drain();

    /** The raw socket, for protocol-abuse tests. */
    int rawFd() const { return fd_; }

  private:
    int fd_ = -1;
};

} // namespace camo::server

#endif // CAMO_SERVER_CLIENT_H
