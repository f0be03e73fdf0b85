/**
 * @file
 * PipeTraceRecorder implementation and the Chrome-trace / pipeview
 * exporters.
 */

#include "mfusim/obs/pipe_trace.hh"

#include "mfusim/obs/trace_event.hh"

#include <algorithm>
#include <map>
#include <string>

namespace mfusim
{

// ----------------------------------------------------------------- recorder

void
PipeTraceRecorder::onStall(const StallSample &sample)
{
    stalls_.push_back(sample);
}

ClockCycle
PipeTraceRecorder::front(std::size_t i) const
{
    return insert(i) != kNoCycle ? insert(i) : issue(i);
}

ClockCycle
PipeTraceRecorder::exec(std::size_t i) const
{
    return dispatch(i) != kNoCycle ? dispatch(i) : front(i);
}

// ------------------------------------------------------------- chrome trace

namespace
{

// Track (tid) layout inside the single process: stable numbers keep
// Perfetto's track order meaningful across runs.
constexpr std::int64_t kTidIssueBase = 10;   // + issue slot
constexpr std::int64_t kTidFuBase = 100;     // + FuClass
constexpr std::int64_t kTidBusBase = 200;    // + bus id
constexpr std::int64_t kTidStalls = 300;
constexpr std::int64_t kTidInflight = 301;

// Thin adapters over the shared emitters: the pipeline exporter
// stamps integer cycles, which the shared layer takes pre-formatted.
void
writeEvent(std::ostream &os, bool &first, const std::string &name,
           const char *ph, std::int64_t tid, ClockCycle ts,
           ClockCycle dur, const std::string &args)
{
    trace_event::event(os, first, name, ph, tid, std::to_string(ts),
                       std::to_string(dur), args);
}

void
writeThreadName(std::ostream &os, bool &first, std::int64_t tid,
                const std::string &name, std::int64_t sortIndex)
{
    trace_event::threadName(os, first, tid, name, sortIndex);
}

} // namespace

void
writeChromeTrace(std::ostream &os, const PipeTraceRecorder &recorder,
                 const DecodedTrace &trace, const std::string &label)
{
    const std::size_t n =
        std::min(recorder.opCount(), trace.size());

    os << "{\n\"traceEvents\": [";
    bool first = true;

    trace_event::processName(os, first, label);

    // Discover the used issue slots, FU classes and busses so only
    // live tracks get names.
    std::map<std::int32_t, bool> slots, busses;
    std::map<unsigned, bool> fus;
    for (std::size_t i = 0; i < n; ++i) {
        if (recorder.front(i) == PipeTraceRecorder::kNoCycle)
            continue;
        slots[std::max(recorder.issueUnit(i), 0)] = true;
        if (recorder.complete(i) != PipeTraceRecorder::kNoCycle) {
            fus[unsigned(trace.fu(i))] = true;
            busses[std::max(recorder.completeUnit(i), 0)] = true;
        }
    }
    for (const auto &[slot, used] : slots)
        writeThreadName(os, first, kTidIssueBase + slot,
                        "issue slot " + std::to_string(slot), slot);
    for (const auto &[fu, used] : fus)
        writeThreadName(os, first, kTidFuBase + fu,
                        std::string("FU ") + fuClassName(FuClass(fu)),
                        100 + fu);
    for (const auto &[bus, used] : busses)
        writeThreadName(os, first, kTidBusBase + bus,
                        "result bus " + std::to_string(bus),
                        200 + bus);
    if (!recorder.stalls().empty())
        writeThreadName(os, first, kTidStalls, "front stalls", 300);

    // Per-op slices.
    for (std::size_t i = 0; i < n; ++i) {
        const ClockCycle front = recorder.front(i);
        if (front == PipeTraceRecorder::kNoCycle)
            continue;
        const std::string name = mnemonicOf(trace.op(i));
        const std::string args = "\"op\": " + std::to_string(i);

        // Front-end occupancy: from the front event until execution
        // starts (1 cycle minimum so the slice is visible).
        const ClockCycle exec = recorder.exec(i);
        const std::int64_t slot =
            kTidIssueBase + std::max(recorder.issueUnit(i), 0);
        const ClockCycle frontEnd =
            exec != PipeTraceRecorder::kNoCycle && exec > front
                ? exec
                : front + 1;
        writeEvent(os, first, name, "X", slot, front,
                   frontEnd - front, args);

        // Execution: [exec, complete) on the op's FU-class track.
        const ClockCycle complete = recorder.complete(i);
        if (complete != PipeTraceRecorder::kNoCycle &&
            exec != PipeTraceRecorder::kNoCycle) {
            const ClockCycle dur = complete > exec ? complete - exec
                                                   : 1;
            writeEvent(os, first, name, "X",
                       kTidFuBase + std::int64_t(unsigned(trace.fu(i))),
                       exec, dur, args);
            // Completion slot on the result bus track.
            writeEvent(os, first, name, "X",
                       kTidBusBase +
                           std::max(recorder.completeUnit(i), 0),
                       complete, 1, args);
        }
    }

    // Attributed stalls.
    for (const StallSample &s : recorder.stalls()) {
        writeEvent(os, first, stallCauseName(s.cause), "X",
                   kTidStalls, s.from, s.cycles,
                   "\"op\": " + std::to_string(s.op));
    }

    // In-flight counter: +1 at each front event, -1 at commit (or
    // completion when the machine has no commit stage).
    std::map<ClockCycle, std::int64_t> delta;
    for (std::size_t i = 0; i < n; ++i) {
        const ClockCycle front = recorder.front(i);
        if (front == PipeTraceRecorder::kNoCycle)
            continue;
        ClockCycle out = recorder.commit(i);
        if (out == PipeTraceRecorder::kNoCycle)
            out = recorder.complete(i);
        if (out == PipeTraceRecorder::kNoCycle)
            out = front + 1;
        ++delta[front];
        --delta[out];
    }
    std::int64_t live = 0;
    for (const auto &[cycle, d] : delta) {
        live += d;
        writeEvent(os, first, "in-flight ops", "C", kTidInflight,
                   cycle, 0,
                   "\"ops\": " + std::to_string(live));
    }

    os << "\n],\n\"displayTimeUnit\": \"ms\"\n}\n";
}

// ---------------------------------------------------------------- pipeview

void
writePipeview(std::ostream &os, const PipeTraceRecorder &recorder,
              const DecodedTrace &trace, std::size_t maxOps,
              std::size_t maxCols)
{
    const std::size_t n =
        std::min(recorder.opCount(), trace.size());
    const std::size_t shown = std::min(n, maxOps);
    if (shown == 0) {
        os << "(empty pipeview)\n";
        return;
    }

    // Window: from the first shown op's front event to the last
    // shown op's final event, clamped to maxCols columns.
    ClockCycle base = PipeTraceRecorder::kNoCycle;
    ClockCycle last = 0;
    for (std::size_t i = 0; i < shown; ++i) {
        const ClockCycle front = recorder.front(i);
        if (front == PipeTraceRecorder::kNoCycle)
            continue;
        base = std::min(base, front);
        for (const ClockCycle c :
             { recorder.complete(i), recorder.commit(i) })
            if (c != PipeTraceRecorder::kNoCycle)
                last = std::max(last, c);
        last = std::max(last, front);
    }
    if (base == PipeTraceRecorder::kNoCycle) {
        os << "(no recorded events)\n";
        return;
    }
    const std::size_t cols =
        std::min<std::size_t>(std::size_t(last - base) + 1, maxCols);

    os << "pipeview: cycles " << base << ".." << (base + cols - 1)
       << "  (I issue/insert, D dispatch, C complete, R retire, "
          "= exec, . wait)\n";

    for (std::size_t i = 0; i < shown; ++i) {
        // The widest label: a 20-digit index, a space, a 10-column
        // mnemonic, " |" and the NUL.
        char buf[20 + 1 + 10 + 2 + 1];
        std::snprintf(buf, sizeof(buf), "%5zu %-10.10s |", i,
                      mnemonicOf(trace.op(i)));
        os << buf;

        const ClockCycle front = recorder.front(i);
        const ClockCycle exec = recorder.exec(i);
        const ClockCycle complete = recorder.complete(i);
        const ClockCycle commit = recorder.commit(i);
        const ClockCycle issue = recorder.issue(i);
        const ClockCycle insert = recorder.insert(i);
        const ClockCycle dispatch = recorder.dispatch(i);

        std::string row(cols, ' ');
        const auto col = [&](ClockCycle c) -> std::int64_t {
            if (c == PipeTraceRecorder::kNoCycle || c < base)
                return -1;
            const ClockCycle rel = c - base;
            return rel < cols ? std::int64_t(rel) : -1;
        };
        const auto fill = [&](ClockCycle from, ClockCycle to,
                              char ch) {
            if (from == PipeTraceRecorder::kNoCycle ||
                to == PipeTraceRecorder::kNoCycle || to <= from)
                return;
            for (ClockCycle c = from; c < to && c - base < cols; ++c)
                if (c >= base)
                    row[std::size_t(c - base)] = ch;
        };

        fill(front, exec, '.');         // waiting in the front end
        fill(exec, complete, '=');      // executing
        // Markers override spans; later stages win at shared cycles.
        if (const auto c = col(insert); c >= 0)
            row[std::size_t(c)] = 'I';
        if (const auto c = col(issue); c >= 0)
            row[std::size_t(c)] = 'I';
        if (const auto c = col(dispatch); c >= 0)
            row[std::size_t(c)] = 'D';
        if (const auto c = col(complete); c >= 0)
            row[std::size_t(c)] = 'C';
        if (const auto c = col(commit); c >= 0)
            row[std::size_t(c)] = 'R';

        os << row << "\n";
    }
    if (shown < n)
        os << "  ... (" << (n - shown) << " more ops)\n";
}

} // namespace mfusim
