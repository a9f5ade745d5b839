#include "src/server/protocol.h"

#include <cerrno>
#include <cstddef>
#include <unistd.h>

namespace camo::server {

namespace {

bool
writeAll(int fd, const char *data, std::size_t len)
{
    while (len > 0) {
        const ssize_t n = ::write(fd, data, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

/** Read exactly `len` bytes; 1 = ok, 0 = clean EOF at offset 0,
 *  -1 = error or truncation. */
int
readAll(int fd, char *data, std::size_t len)
{
    std::size_t got = 0;
    while (got < len) {
        const ssize_t n = ::read(fd, data + got, len - got);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return -1;
        }
        if (n == 0)
            return got == 0 ? 0 : -1;
        got += static_cast<std::size_t>(n);
    }
    return 1;
}

} // namespace

void
encodeFrame(const std::string &payload, std::string *out)
{
    const auto n = static_cast<std::uint32_t>(payload.size());
    out->push_back(static_cast<char>(n & 0xFF));
    out->push_back(static_cast<char>((n >> 8) & 0xFF));
    out->push_back(static_cast<char>((n >> 16) & 0xFF));
    out->push_back(static_cast<char>((n >> 24) & 0xFF));
    out->append(payload);
}

std::uint32_t
decodeFrameLength(const unsigned char *header)
{
    return static_cast<std::uint32_t>(header[0]) |
           (static_cast<std::uint32_t>(header[1]) << 8) |
           (static_cast<std::uint32_t>(header[2]) << 16) |
           (static_cast<std::uint32_t>(header[3]) << 24);
}

bool
writeFrame(int fd, const std::string &payload)
{
    if (payload.size() > kMaxFrameBytes)
        return false;
    std::string buf;
    buf.reserve(kFrameHeaderBytes + payload.size());
    encodeFrame(payload, &buf);
    return writeAll(fd, buf.data(), buf.size());
}

ReadStatus
readFrame(int fd, std::string *payload)
{
    unsigned char header[kFrameHeaderBytes];
    const int h =
        readAll(fd, reinterpret_cast<char *>(header), sizeof header);
    if (h == 0)
        return ReadStatus::Eof;
    if (h < 0)
        return ReadStatus::Error;
    const std::uint32_t len = decodeFrameLength(header);
    if (len > kMaxFrameBytes)
        return ReadStatus::Oversize;
    payload->resize(len);
    if (len > 0 && readAll(fd, payload->data(), len) != 1)
        return ReadStatus::Error;
    return ReadStatus::Ok;
}

bool
writeJson(int fd, const obs::json::Value &doc)
{
    return writeFrame(fd, doc.dump());
}

std::optional<obs::json::Value>
readJson(int fd)
{
    std::string payload;
    if (readFrame(fd, &payload) != ReadStatus::Ok)
        return std::nullopt;
    return obs::json::tryParse(payload);
}

obs::json::Value
errorResponse(const std::string &msg)
{
    obs::json::Value v = obs::json::Value::makeObject();
    v["ok"] = false;
    v["error"] = msg;
    return v;
}

obs::json::Value
okResponse()
{
    obs::json::Value v = obs::json::Value::makeObject();
    v["ok"] = true;
    return v;
}

} // namespace camo::server
