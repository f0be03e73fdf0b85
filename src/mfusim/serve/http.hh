/**
 * @file
 * HTTP/1.1 protocol layer of the serve daemon.
 *
 * POSIX sockets only, no external dependencies.  The layer splits
 * cleanly in two:
 *
 *  - pure parsing/serialization (parseRequestHead(),
 *    extractRequest(), HttpResponse::serialize()/serializeHead())
 *    — unit-testable on strings, no sockets involved.  The epoll
 *    reactor (server.hh) accumulates bytes into a per-connection
 *    buffer and calls extractRequest() repeatedly, which is what
 *    makes HTTP/1.1 pipelining natural: every complete request
 *    already buffered parses without another read.
 *  - socket plumbing (writeAll()) — a poll()-based blocking write
 *    used by test clients and one-shot replies; the server's own
 *    I/O is non-blocking inside the reactor.
 *
 * Supported surface (deliberately narrow — this is a JSON RPC
 * daemon, not a general web server): GET/POST, Content-Length
 * bodies (no chunked transfer), keep-alive with Connection: close
 * opt-out, HTTP/1.1 pipelining, header section capped at 16 KiB.
 */

#ifndef MFUSIM_SERVE_HTTP_HH
#define MFUSIM_SERVE_HTTP_HH

#include <cstdint>
#include <map>
#include <string>

namespace mfusim
{

/** One parsed request. */
struct HttpRequest
{
    std::string method;     //!< "GET", "POST", ...
    std::string target;     //!< path incl. query, e.g. "/v1/simulate"
    std::string path;       //!< target up to '?'
    /** Header fields, names lowercased; later duplicates win (a
     *  second Content-Length is malformed, RFC 9112 6.3). */
    std::map<std::string, std::string> headers;
    std::string body;

    /** Header value by lowercase name, or @p fallback. */
    std::string header(const std::string &name,
                       const std::string &fallback = "") const;

    /** True when the client asked for (or defaulted to) keep-alive. */
    bool keepAlive() const;
};

/** One response under construction. */
struct HttpResponse
{
    int status = 200;
    std::map<std::string, std::string> headers;
    std::string body;

    HttpResponse() = default;
    HttpResponse(int status, std::string contentType,
                 std::string body);

    /** Canonical reason phrase for the statuses the daemon emits. */
    static const char *reason(int status);

    /**
     * Full wire form: status line, headers (Content-Length and
     * Connection added/overridden here), blank line, body.
     */
    std::string serialize(bool keepAlive) const;

    /**
     * Append the head only (status line, headers, Content-Length,
     * Connection, blank line — no body) to @p out.  The reactor
     * reuses one head buffer per connection and sends head + body
     * with one gathered writev, so the hit path never concatenates
     * head and body into a fresh string.
     */
    void serializeHead(bool keepAlive, std::string *out) const;
};

/**
 * Parse the request head (request line + header fields, everything
 * before the blank line, CRLF or bare-LF separated).
 *
 * @returns true on success; false with @p error set on malformed
 *          input, a repeated Content-Length included (the caller
 *          answers 400).
 */
bool parseRequestHead(const std::string &head, HttpRequest *out,
                      std::string *error);

/** What extractRequest() observed about the buffer. */
enum class ExtractStatus
{
    kOk,            //!< one full request parsed into *out
    kNeedMore,      //!< buffer holds a prefix; read more bytes
    kMalformed,     //!< unparseable head; answer 400 and close
    kTooLarge,      //!< head over cap or body over maxBody; answer 413
    kHeadComplete,  //!< internal: head parsed, body incomplete
};

/**
 * Try to parse one complete request from @p buffer starting at
 * @p offset (pure function of the bytes — no sockets, no clocks).
 *
 * On kOk, *out holds the request and *consumed the total byte count
 * (head + separator + body) so the caller can advance its offset and
 * immediately try again — that loop IS pipelining.  kNeedMore means
 * the suffix is a valid prefix of a request; the caller should keep
 * accumulating (and apply its header/body clocks).  kTooLarge fires
 * both for a head growing past the 16 KiB cap without terminating
 * and for a Content-Length above @p maxBody — in either case the
 * request is never partially adopted.  @p headComplete (optional)
 * reports whether the head was already terminated on kNeedMore, so
 * the caller can pick the body clock over the header clock.
 */
ExtractStatus extractRequest(const std::string &buffer,
                             std::size_t offset, std::size_t maxBody,
                             HttpRequest *out, std::size_t *consumed,
                             std::string *error,
                             bool *headComplete = nullptr);

/**
 * write()/send() until every byte of @p data is out; false on
 * error/EPIPE.  @p timeoutMs bounds the total wall-clock time spent
 * waiting for a slow-reading peer (0 = wait forever): a client that
 * stops draining its receive window cannot pin a worker past the
 * bound.  Partial writes are completed in a loop; EINTR and EAGAIN
 * are retried (EAGAIN via poll(POLLOUT), so O_NONBLOCK fds do not
 * spin).
 */
bool writeAll(int fd, const std::string &data,
              unsigned timeoutMs = 0);

} // namespace mfusim

#endif // MFUSIM_SERVE_HTTP_HH
