/**
 * @file
 * HTTP request reading / parsing / response serialization.
 */

#include "mfusim/serve/http.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "mfusim/core/clock.hh"
#include "mfusim/core/faultpoint.hh"
#include "mfusim/core/lexical.hh"

namespace mfusim
{

namespace
{

constexpr std::size_t kMaxHeadBytes = 16 * 1024;

std::string
toLower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return char(std::tolower(c));
    });
    return s;
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && (s[b] == ' ' || s[b] == '\t'))
        ++b;
    while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' ||
                     s[e - 1] == '\r'))
        --e;
    return s.substr(b, e - b);
}

} // namespace

std::string
HttpRequest::header(const std::string &name,
                    const std::string &fallback) const
{
    const auto it = headers.find(toLower(name));
    return it == headers.end() ? fallback : it->second;
}

bool
HttpRequest::keepAlive() const
{
    // HTTP/1.1 defaults to persistent connections.
    return toLower(header("connection", "keep-alive")) != "close";
}

HttpResponse::HttpResponse(int status, std::string contentType,
                           std::string responseBody)
    : status(status), body(std::move(responseBody))
{
    headers["Content-Type"] = std::move(contentType);
}

const char *
HttpResponse::reason(int status)
{
    switch (status) {
      case 200: return "OK";
      case 400: return "Bad Request";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      case 408: return "Request Timeout";
      case 413: return "Payload Too Large";
      case 429: return "Too Many Requests";
      case 431: return "Request Header Fields Too Large";
      case 500: return "Internal Server Error";
      case 503: return "Service Unavailable";
      default:  return "Unknown";
    }
}

void
HttpResponse::serializeHead(bool keepAlive, std::string *out) const
{
    char line[64];
    std::snprintf(line, sizeof(line), "HTTP/1.1 %d ", status);
    out->append(line);
    out->append(reason(status));
    out->append("\r\n");
    for (const auto &[name, value] : headers) {
        out->append(name);
        out->append(": ");
        out->append(value);
        out->append("\r\n");
    }
    std::snprintf(line, sizeof(line), "Content-Length: %zu\r\n",
                  body.size());
    out->append(line);
    out->append(keepAlive ? "Connection: keep-alive\r\n\r\n"
                          : "Connection: close\r\n\r\n");
}

std::string
HttpResponse::serialize(bool keepAlive) const
{
    std::string out;
    serializeHead(keepAlive, &out);
    out += body;
    return out;
}

bool
parseRequestHead(const std::string &head, HttpRequest *out,
                 std::string *error)
{
    *out = HttpRequest{};
    std::size_t pos = 0;
    const auto nextLine = [&](std::string *line) -> bool {
        if (pos >= head.size())
            return false;
        const std::size_t eol = head.find('\n', pos);
        if (eol == std::string::npos) {
            *line = head.substr(pos);
            pos = head.size();
        } else {
            *line = head.substr(pos, eol - pos);
            pos = eol + 1;
        }
        if (!line->empty() && line->back() == '\r')
            line->pop_back();
        return true;
    };

    std::string line;
    if (!nextLine(&line) || line.empty()) {
        *error = "empty request line";
        return false;
    }
    // METHOD SP TARGET SP VERSION
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos) {
        *error = "malformed request line '" + line + "'";
        return false;
    }
    out->method = line.substr(0, sp1);
    out->target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::string version = line.substr(sp2 + 1);
    if (version.rfind("HTTP/1.", 0) != 0) {
        *error = "unsupported protocol '" + version + "'";
        return false;
    }
    if (out->method.empty() || out->target.empty() ||
        out->target[0] != '/') {
        *error = "malformed request line '" + line + "'";
        return false;
    }
    out->path = out->target.substr(0, out->target.find('?'));

    while (nextLine(&line)) {
        if (line.empty())
            break;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos || colon == 0) {
            *error = "malformed header line '" + line + "'";
            return false;
        }
        const std::string name = toLower(trim(line.substr(0, colon)));
        if (name.find(' ') != std::string::npos ||
            name.find('\t') != std::string::npos) {
            *error = "whitespace in header name '" + name + "'";
            return false;
        }
        if (name == "content-length" && out->headers.count(name) != 0) {
            // Two lengths frame the body two ways: never guess.
            *error = "repeated Content-Length";
            return false;
        }
        out->headers[name] = trim(line.substr(colon + 1));
    }
    return true;
}

ExtractStatus
extractRequest(const std::string &buffer, std::size_t offset,
               std::size_t maxBody, HttpRequest *out,
               std::size_t *consumed, std::string *error,
               bool *headComplete)
{
    if (headComplete != nullptr)
        *headComplete = false;

    // Locate the end of the head (CRLFCRLF, or bare LFLF for
    // hand-typed clients) within the unparsed suffix.
    const std::size_t crlf = buffer.find("\r\n\r\n", offset);
    const std::size_t lf = buffer.find("\n\n", offset);
    std::size_t headEnd = std::string::npos;
    std::size_t headSkip = 0;
    if (crlf != std::string::npos &&
        (lf == std::string::npos || crlf < lf)) {
        headEnd = crlf;
        headSkip = 4;
    } else if (lf != std::string::npos) {
        headEnd = lf;
        headSkip = 2;
    }
    if (headEnd == std::string::npos) {
        if (buffer.size() - offset > kMaxHeadBytes)
            return ExtractStatus::kTooLarge;
        return ExtractStatus::kNeedMore;
    }
    if (headEnd - offset > kMaxHeadBytes)
        return ExtractStatus::kTooLarge;

    if (!parseRequestHead(
            buffer.substr(offset, headEnd - offset), out, error))
        return ExtractStatus::kMalformed;

    std::size_t contentLength = 0;
    if (const auto length = out->headers.find("content-length");
        length != out->headers.end()) {
        const std::optional<std::uint64_t> parsed =
            parseDecimal(length->second);
        if (!parsed) {
            *error = "bad Content-Length '" + length->second + "'";
            return ExtractStatus::kMalformed;
        }
        contentLength = std::size_t(*parsed);
    }
    if (!out->header("transfer-encoding").empty()) {
        *error = "Transfer-Encoding is not supported";
        return ExtractStatus::kMalformed;
    }
    if (contentLength > maxBody)
        return ExtractStatus::kTooLarge;

    const std::size_t bodyStart = headEnd + headSkip;
    if (buffer.size() - bodyStart < contentLength) {
        if (headComplete != nullptr)
            *headComplete = true;
        return ExtractStatus::kNeedMore;
    }
    out->body = buffer.substr(bodyStart, contentLength);
    *consumed = bodyStart - offset + contentLength;
    return ExtractStatus::kOk;
}

bool
writeAll(int fd, const std::string &data, unsigned timeoutMs)
{
    const std::uint64_t start = monoNanos() / kNanosPerMilli;
    const auto remaining = [&]() -> int {
        if (timeoutMs == 0)
            return -1;      // poll() "wait forever"
        const std::uint64_t elapsed = monoNanos() / kNanosPerMilli - start;
        if (elapsed >= timeoutMs)
            return 0;
        return int(timeoutMs - elapsed);
    };

    std::size_t sent = 0;
    while (sent < data.size()) {
        std::size_t cap = data.size() - sent;
        if (faultAt("http.write")) {
            const std::string mode = faultMode("http.write");
            if (mode == "fail")
                return false;
            cap = 1;    // "short" (and the default mode)
        }
        const ssize_t n = send(fd, data.data() + sent, cap,
#ifdef MSG_NOSIGNAL
                               MSG_NOSIGNAL
#else
                               0
#endif
        );
        if (n >= 0) {
            sent += std::size_t(n);
            continue;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            // Kernel buffer full: the peer is not draining.  Wait
            // for writability within the remaining budget instead of
            // spinning.
            const int wait = remaining();
            if (wait == 0)
                return false;
            struct pollfd pfd = { fd, POLLOUT, 0 };
            const int ready = poll(&pfd, 1, wait);
            if (ready < 0 && errno != EINTR)
                return false;
            if (ready == 0 && remaining() == 0)
                return false;   // budget exhausted
            continue;
        }
        return false;
    }
    return true;
}

} // namespace mfusim
