#include "src/server/client.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "src/server/protocol.h"

namespace camo::server {

Client::~Client()
{
    close();
}

void
Client::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
Client::connect(const std::string &socket_path, std::string *error)
{
    close();
    struct sockaddr_un addr;
    if (socket_path.size() >= sizeof addr.sun_path) {
        *error = "socket path too long: " + socket_path;
        return false;
    }
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
        *error = "socket() failed";
        return false;
    }
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof addr.sun_path - 1);
    if (::connect(fd_, reinterpret_cast<struct sockaddr *>(&addr),
                  sizeof addr) != 0) {
        *error = "connect(" + socket_path +
                 ") failed: " + std::strerror(errno);
        close();
        return false;
    }
    return true;
}

std::optional<obs::json::Value>
Client::request(const obs::json::Value &req)
{
    if (fd_ < 0)
        return std::nullopt;
    if (!writeJson(fd_, req)) {
        close();
        return std::nullopt;
    }
    auto resp = readJson(fd_);
    if (!resp)
        close();
    return resp;
}

std::optional<std::uint64_t>
Client::submit(const JobSpec &spec, std::string *error)
{
    obs::json::Value req = obs::json::Value::makeObject();
    req["op"] = "submit";
    req["job"] = spec.toJson();
    const auto resp = request(req);
    if (!resp) {
        *error = "connection lost";
        return std::nullopt;
    }
    const obs::json::Value *ok = resp->find("ok");
    if (!ok || !ok->isBool() || !ok->asBool()) {
        const obs::json::Value *msg = resp->find("error");
        *error = msg && msg->isString() ? msg->asString()
                                        : "submit rejected";
        const obs::json::Value *shed = resp->find("shed");
        if (shed && shed->isBool() && shed->asBool())
            *error = "shed: " + *error;
        return std::nullopt;
    }
    const obs::json::Value *id = resp->find("id");
    if (!id || !id->isNumber()) {
        *error = "submit response missing id";
        return std::nullopt;
    }
    return static_cast<std::uint64_t>(id->asNumber());
}

std::optional<obs::json::Value>
Client::waitResult(std::uint64_t id, std::uint64_t wait_ms)
{
    obs::json::Value req = obs::json::Value::makeObject();
    req["op"] = "result";
    req["id"] = id;
    req["wait_ms"] = wait_ms;
    return request(req);
}

std::optional<obs::json::Value>
Client::status(std::uint64_t id)
{
    obs::json::Value req = obs::json::Value::makeObject();
    req["op"] = "status";
    req["id"] = id;
    return request(req);
}

std::optional<obs::json::Value>
Client::stats()
{
    obs::json::Value req = obs::json::Value::makeObject();
    req["op"] = "stats";
    return request(req);
}

bool
Client::cancel(std::uint64_t id)
{
    obs::json::Value req = obs::json::Value::makeObject();
    req["op"] = "cancel";
    req["id"] = id;
    const auto resp = request(req);
    if (!resp)
        return false;
    const obs::json::Value *c = resp->find("canceled");
    return c && c->isBool() && c->asBool();
}

bool
Client::drain()
{
    obs::json::Value req = obs::json::Value::makeObject();
    req["op"] = "drain";
    const auto resp = request(req);
    if (!resp)
        return false;
    const obs::json::Value *ok = resp->find("ok");
    return ok && ok->isBool() && ok->asBool();
}

} // namespace camo::server
