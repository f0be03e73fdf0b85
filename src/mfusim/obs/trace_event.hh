/**
 * @file
 * Shared Chrome / Perfetto trace-event JSON emitters.
 *
 * Two exporters speak this format: the simulator pipeline tracer
 * (obs/pipe_trace.cc, one slice per op per pipeline stage) and the
 * serve-tier request tracer (obs/req_trace.cc, one track per worker
 * with per-request lifecycle spans).  Both must stay loadable by
 * Perfetto and validatable by tools/check_obs_json.py, so the event
 * syntax lives here once.
 *
 * The emitters are streaming: callers own the surrounding
 * `{"traceEvents": [ ... ]}` envelope and thread a `first` flag
 * through every call so separators land only between events.  The
 * timestamp is taken pre-formatted (the pipeline exporter emits
 * integer cycles, the request exporter fractional microseconds) —
 * formatting is the one thing the two disagree on.
 *
 * jsonEscape() is the one JSON string escaper: the emitters below,
 * the metrics exporter and the serve tier's JSON writer all use it.
 */

#ifndef MFUSIM_OBS_TRACE_EVENT_HH
#define MFUSIM_OBS_TRACE_EVENT_HH

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

namespace mfusim
{

/** @p s escaped for use inside a JSON string literal. */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace trace_event
{

/**
 * Emit one trace event.  @p ts and @p dur are pre-formatted numbers;
 * @p dur is only written for complete ("X") events.  @p args is the
 * raw key-value body of the "args" object (no braces), empty to omit.
 * @p extra is raw JSON spliced after "tid" — async events use it for
 * `"cat": ..., "id": ...`, which the plain slice path never needs.
 */
inline void
event(std::ostream &os, bool &first, const std::string &name,
      const char *ph, std::int64_t tid, const std::string &ts,
      const std::string &dur = "", const std::string &args = "",
      const std::string &extra = "")
{
    os << (first ? "" : ",") << "\n  {\"name\": \""
       << jsonEscape(name) << "\", \"ph\": \"" << ph
       << "\", \"pid\": 1, \"tid\": " << tid;
    if (!extra.empty())
        os << ", " << extra;
    os << ", \"ts\": " << ts;
    if (*ph == 'X')
        os << ", \"dur\": " << dur;
    if (!args.empty())
        os << ", \"args\": {" << args << "}";
    os << "}";
    first = false;
}

/** Metadata pair naming a track and pinning its sort order. */
inline void
threadName(std::ostream &os, bool &first, std::int64_t tid,
           const std::string &name, std::int64_t sortIndex)
{
    os << (first ? "" : ",") << "\n  {\"name\": \"thread_name\", "
       << "\"ph\": \"M\", \"pid\": 1, \"tid\": " << tid
       << ", \"args\": {\"name\": \"" << jsonEscape(name)
       << "\"}},"
       << "\n  {\"name\": \"thread_sort_index\", \"ph\": \"M\", "
       << "\"pid\": 1, \"tid\": " << tid
       << ", \"args\": {\"sort_index\": " << sortIndex << "}}";
    first = false;
}

/** Metadata event naming the (single) process. */
inline void
processName(std::ostream &os, bool &first, const std::string &name)
{
    os << (first ? "" : ",")
       << "\n  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1"
       << ", \"args\": {\"name\": \"" << jsonEscape(name)
       << "\"}}";
    first = false;
}

/** Nanoseconds -> fractional microseconds ("12.345"), Perfetto's unit. */
inline std::string
microsFromNanos(std::uint64_t ns)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%llu.%03u",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned>(ns % 1000));
    return buf;
}

} // namespace trace_event
} // namespace mfusim

#endif // MFUSIM_OBS_TRACE_EVENT_HH
