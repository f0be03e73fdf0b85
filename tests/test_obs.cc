/**
 * @file
 * Observability-layer tests: the MetricsRegistry primitives, the
 * PipeTraceRecorder + exporters, and — for all six simulators — the
 * per-op schedule invariants and the cycle accounting identity
 *
 *     cycles.total = cycles.front_active
 *                  + sum(cycles.stall.*) + cycles.drain
 *
 * which populateRunMetrics() enforces (it throws on a negative
 * remainder, so merely calling it is half the test).
 */

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mfusim/harness/spec_parse.hh"
#include "mfusim/harness/sweep.hh"
#include "mfusim/harness/trace_library.hh"
#include "mfusim/obs/metrics.hh"
#include "mfusim/obs/pipe_trace.hh"
#include "mfusim/obs/run_metrics.hh"
#include "mfusim/serve/json.hh"
#include "mfusim/sim/cdc6600_sim.hh"
#include "mfusim/sim/multi_issue_sim.hh"
#include "mfusim/sim/ruu_sim.hh"
#include "mfusim/sim/scoreboard_sim.hh"
#include "mfusim/sim/simple_sim.hh"
#include "mfusim/sim/tomasulo_sim.hh"
#include "test_util.hh"

namespace mfusim
{
namespace
{

// ---------------------------------------------------------------
// A minimal JSON validity checker (structure only, no values kept):
// enough to catch unbalanced brackets, bad escapes, trailing commas
// and unquoted keys in the exporters' hand-written JSON.

class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : text_(text) {}

    bool valid()
    {
        skipSpace();
        if (!value())
            return false;
        skipSpace();
        return pos_ == text_.size();
    }

  private:
    bool value()
    {
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
        case '{': return object();
        case '[': return array();
        case '"': return string();
        case 't': return literal("true");
        case 'f': return literal("false");
        case 'n': return literal("null");
        default: return number();
        }
    }

    bool object()
    {
        ++pos_;     // '{'
        skipSpace();
        if (peek() == '}') { ++pos_; return true; }
        for (;;) {
            skipSpace();
            if (!string())
                return false;
            skipSpace();
            if (peek() != ':')
                return false;
            ++pos_;
            skipSpace();
            if (!value())
                return false;
            skipSpace();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == '}') { ++pos_; return true; }
            return false;
        }
    }

    bool array()
    {
        ++pos_;     // '['
        skipSpace();
        if (peek() == ']') { ++pos_; return true; }
        for (;;) {
            skipSpace();
            if (!value())
                return false;
            skipSpace();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == ']') { ++pos_; return true; }
            return false;
        }
    }

    bool string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= text_.size())
                    return false;
            }
            ++pos_;
        }
        if (pos_ >= text_.size())
            return false;
        ++pos_;     // closing quote
        return true;
    }

    bool number()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        return pos_ > start;
    }

    bool literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    char peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

bool
validJson(const std::string &text)
{
    return JsonChecker(text).valid();
}

// ---------------------------------------------------------------
// MetricsRegistry primitives.

TEST(Metrics, CountersAndGauges)
{
    MetricsRegistry reg;
    reg.counter("a").add(3);
    reg.counter("a").increment();
    reg.gauge("g").set(2.5);
    reg.gauge("g").add(0.5);
    EXPECT_EQ(reg.counterValue("a"), 4u);
    EXPECT_DOUBLE_EQ(reg.gaugeValue("g"), 3.0);
    EXPECT_EQ(reg.counterValue("missing"), 0u);
    EXPECT_DOUBLE_EQ(reg.gaugeValue("missing"), 0.0);
}

TEST(Metrics, KindMismatchThrows)
{
    MetricsRegistry reg;
    reg.counter("x");
    EXPECT_THROW(reg.gauge("x"), Error);
    EXPECT_THROW(reg.histogram("x", 1.0, 4), Error);
}

TEST(Metrics, HistogramBucketsAndMerge)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram("h", 10.0, 4);
    h.record(0);
    h.record(5);
    h.record(15);
    h.record(999);      // overflow
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 999.0);

    MetricsRegistry other;
    other.histogram("h", 10.0, 4).record(25);
    reg.merge(other);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.bucket(2), 1u);

    MetricsRegistry bad;
    bad.histogram("h", 5.0, 4).record(1);
    EXPECT_THROW(reg.merge(bad), Error);
}

TEST(Metrics, TimeSeriesCompactsUnderCap)
{
    MetricsRegistry reg;
    TimeSeries &s = reg.series("s", 64);
    for (ClockCycle t = 0; t < 10000; ++t)
        s.record(t, double(t));
    EXPECT_LE(s.points().size(), 64u);
    EXPECT_GT(s.stride(), 1u);
    // Sampled cycles remain sorted.
    const auto &pts = s.points();
    for (std::size_t i = 1; i < pts.size(); ++i)
        EXPECT_LT(pts[i - 1].cycle, pts[i].cycle);
}

TEST(Metrics, MergeAccumulatesAndKeepsFirstLabels)
{
    MetricsRegistry a, b;
    a.setLabel("who", "a");
    a.counter("n").add(1);
    b.setLabel("who", "b");
    b.setLabel("extra", "e");
    b.counter("n").add(2);
    a.merge(b);
    EXPECT_EQ(a.counterValue("n"), 3u);
    EXPECT_EQ(a.labels().at("who"), "a");
    EXPECT_EQ(a.labels().at("extra"), "e");
}

TEST(Metrics, JsonAndCsvOutput)
{
    MetricsRegistry reg;
    reg.setLabel("sim", "test \"quoted\"");
    reg.counter("cycles.total").add(10);
    reg.gauge("rate").set(0.5);
    reg.histogram("occ", 1.0, 4).record(2);
    reg.series("ts").record(0, 1.0);

    std::ostringstream json;
    reg.writeJson(json);
    EXPECT_TRUE(validJson(json.str())) << json.str();
    EXPECT_NE(json.str().find("mfusim-metrics-v1"), std::string::npos);

    std::ostringstream csv;
    reg.writeCsv(csv);
    EXPECT_NE(csv.str().find("name,kind,value"), std::string::npos);
    EXPECT_NE(csv.str().find("cycles.total"), std::string::npos);
}

TEST(Metrics, Log2HistogramBucketSemantics)
{
    // Bucket i counts values with bit_width == i: bucket 0 is
    // exactly 0, bucket i holds [2^(i-1), 2^i - 1].
    MetricsRegistry reg;
    Histogram &h = reg.histogramLog2("lat", 8, 1e-9);
    EXPECT_TRUE(h.isLog2());
    EXPECT_DOUBLE_EQ(h.unitScale(), 1e-9);

    h.record(0);        // bucket 0
    h.record(1);        // bucket 1
    h.record(2);        // bucket 2
    h.record(3);        // bucket 2
    h.record(4);        // bucket 3
    h.record(7);        // bucket 3
    h.record(127);      // bucket 7 (last in-range)
    h.record(128);      // bit_width 8 >= bucketCount: overflow
    EXPECT_EQ(h.count(), 8u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 2u);
    EXPECT_EQ(h.bucket(3), 2u);
    EXPECT_EQ(h.bucket(7), 1u);
    EXPECT_EQ(h.overflow(), 1u);

    // Upper edges are (2^i)-1, the largest value the bucket holds.
    EXPECT_EQ(h.bucketUpperEdge(0), 0u);
    EXPECT_EQ(h.bucketUpperEdge(1), 1u);
    EXPECT_EQ(h.bucketUpperEdge(2), 3u);
    EXPECT_EQ(h.bucketUpperEdge(7), 127u);
}

TEST(Metrics, Log2HistogramMergeGeometryChecked)
{
    MetricsRegistry a, b;
    a.histogramLog2("lat", 8, 1e-9).record(5);
    b.histogramLog2("lat", 8, 1e-9).record(9);
    a.merge(b);
    EXPECT_EQ(a.histogramLog2("lat", 8, 1e-9).count(), 2u);

    // A linear histogram of the same name must not merge in.
    MetricsRegistry linear;
    linear.histogram("lat", 1.0, 8).record(1);
    EXPECT_THROW(a.merge(linear), Error);
    // Nor a log2 histogram with a different display scale.
    MetricsRegistry scaled;
    scaled.histogramLog2("lat", 8, 1e-6).record(1);
    EXPECT_THROW(a.merge(scaled), Error);
}

TEST(Prometheus, EmbeddedLabelNamesRenderAsOneFamily)
{
    MetricsRegistry reg;
    reg.setLabel("sim", "t");
    reg.histogramLog2("http.phase_seconds{phase=parse}", 4, 1e-9)
        .record(3);
    reg.histogramLog2("http.phase_seconds{phase=compute}", 4, 1e-9)
        .record(5);
    reg.gauge("build_info{version=v1,git_sha=abc}").set(1.0);
    const std::string text = renderPrometheus(reg);

    // One TYPE line for the whole family, not one per labeled entry.
    std::size_t typeCount = 0, pos = 0;
    const std::string typeLine =
        "# TYPE mfusim_http_phase_seconds histogram";
    while ((pos = text.find(typeLine, pos)) != std::string::npos) {
        ++typeCount;
        pos += typeLine.size();
    }
    EXPECT_EQ(typeCount, 1u);

    // Embedded labels merge with registry labels (le renders last);
    // log2 edges render scaled to seconds, %.9g-clean.
    EXPECT_NE(text.find("mfusim_http_phase_seconds_bucket"
                        "{phase=\"parse\",sim=\"t\",le=\"0\"}"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("mfusim_http_phase_seconds_bucket"
                        "{phase=\"parse\",sim=\"t\",le=\"3e-09\"}"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("mfusim_http_phase_seconds_count"
                        "{phase=\"compute\",sim=\"t\"} 1"),
              std::string::npos)
        << text;
    EXPECT_NE(
        text.find("mfusim_build_info{git_sha=\"abc\",sim=\"t\","
                  "version=\"v1\"} 1"),
        std::string::npos)
        << text;
}

TEST(Metrics, ConcurrentRecordersMergeWithoutLostCounts)
{
    // The serve-tier pattern: each thread records into its own
    // registry, a collector merges them under a lock.  The merged
    // output must be exact (no lost counts) and deterministic in
    // shape regardless of merge order.
    constexpr unsigned kThreads = 8;
    constexpr unsigned kRecordsPerThread = 5000;

    MetricsRegistry merged;
    std::mutex mergedMutex;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            MetricsRegistry local;
            // Registration order varies per thread; merge must align
            // by name, not position.
            if (t % 2 == 0) {
                local.histogramLog2("lat", 24, 1e-9);
                local.counter("reqs");
            } else {
                local.counter("reqs");
                local.histogramLog2("lat", 24, 1e-9);
            }
            Histogram &h = local.histogramLog2("lat", 24, 1e-9);
            Counter &c = local.counter("reqs");
            for (unsigned i = 0; i < kRecordsPerThread; ++i) {
                h.record((std::uint64_t(t) << 10) + i);
                c.increment();
            }
            std::lock_guard<std::mutex> lock(mergedMutex);
            merged.merge(local);
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(merged.counterValue("reqs"),
              std::uint64_t(kThreads) * kRecordsPerThread);
    const Histogram &h = merged.histogramLog2("lat", 24, 1e-9);
    EXPECT_EQ(h.count(),
              std::uint64_t(kThreads) * kRecordsPerThread);
    std::uint64_t inBuckets = h.overflow();
    for (std::size_t i = 0; i < h.bucketCount(); ++i)
        inBuckets += h.bucket(i);
    EXPECT_EQ(inBuckets, h.count());
}

// ---------------------------------------------------------------
// All six simulators: schedule invariants + the accounting identity.

struct NamedSim
{
    std::string name;
    std::unique_ptr<Simulator> sim;
    bool inOrderFront;      // front events monotonic in op order
};

std::vector<NamedSim>
allSims(const MachineConfig &cfg)
{
    std::vector<NamedSim> sims;
    sims.push_back({ "simple", std::make_unique<SimpleSim>(cfg),
                     true });
    sims.push_back({ "cray",
                     std::make_unique<ScoreboardSim>(
                         ScoreboardConfig::crayLike(), cfg),
                     true });
    sims.push_back({ "cdc",
                     std::make_unique<Cdc6600Sim>(Cdc6600Config{},
                                                  cfg),
                     true });
    sims.push_back({ "tomasulo",
                     std::make_unique<TomasuloSim>(TomasuloConfig{},
                                                   cfg),
                     true });
    sims.push_back({ "ooo4",
                     std::make_unique<MultiIssueSim>(
                         MultiIssueConfig{ 4, true, BusKind::kPerUnit },
                         cfg),
                     false });
    sims.push_back({ "ruu",
                     std::make_unique<RuuSim>(
                         RuuConfig{ 2, 30, BusKind::kPerUnit },
                         cfg),
                     true });
    return sims;
}

TEST(ObsAllSims, ScheduleCompleteAndMonotonic)
{
    const MachineConfig cfg = configM11BR5();
    for (int loop : { 3, 5 }) {
        const DecodedTrace trace(TraceLibrary::instance().trace(loop),
                                 cfg);
        for (NamedSim &entry : allSims(cfg)) {
            PipeTraceRecorder rec(trace.size());
            entry.sim->attachAudit(&rec);
            entry.sim->run(trace);
            entry.sim->attachAudit(nullptr);

            ASSERT_EQ(rec.opCount(), trace.size())
                << entry.name << " LL" << loop;
            ClockCycle prevFront = 0;
            for (std::size_t i = 0; i < trace.size(); ++i) {
                const std::string where = entry.name + " LL" +
                                          std::to_string(loop) +
                                          " op " + std::to_string(i);
                // Every op enters the front end exactly once...
                ASSERT_NE(rec.front(i), PipeTraceRecorder::kNoCycle)
                    << where;
                // ...executes no earlier than it entered...
                EXPECT_LE(rec.front(i), rec.exec(i)) << where;
                // ...and completes after starting, where completion
                // is modeled (branches produce no result).
                if (rec.complete(i) != PipeTraceRecorder::kNoCycle) {
                    EXPECT_LT(rec.exec(i), rec.complete(i) + 1)
                        << where;
                }
                if (rec.commit(i) != PipeTraceRecorder::kNoCycle &&
                    rec.complete(i) != PipeTraceRecorder::kNoCycle) {
                    EXPECT_LE(rec.complete(i), rec.commit(i))
                        << where;
                }
                if (entry.inOrderFront) {
                    EXPECT_LE(prevFront, rec.front(i)) << where;
                    prevFront = rec.front(i);
                }
            }
        }
    }
}

TEST(ObsAllSims, StallIdentityHolds)
{
    const MachineConfig cfg = configM11BR5();
    for (int loop : { 1, 3, 5, 7, 12 }) {
        const DecodedTrace trace(TraceLibrary::instance().trace(loop),
                                 cfg);
        for (NamedSim &entry : allSims(cfg)) {
            PipeTraceRecorder rec(trace.size());
            entry.sim->attachAudit(&rec);
            const SimResult r = entry.sim->run(trace);
            entry.sim->attachAudit(nullptr);

            MetricsRegistry reg;
            // Throws if attribution overlaps issue cycles.
            ASSERT_NO_THROW(
                populateRunMetrics(reg, trace, rec, r, *entry.sim))
                << entry.name << " LL" << loop;

            std::uint64_t stall = 0;
            for (unsigned c = 0; c < kNumStallCauses; ++c)
                stall += reg.counterValue(
                    std::string("cycles.stall.") +
                    stallCauseName(StallCause(c)));
            EXPECT_EQ(reg.counterValue("cycles.total"),
                      reg.counterValue("cycles.front_active") +
                          stall + reg.counterValue("cycles.drain"))
                << entry.name << " LL" << loop;
            EXPECT_EQ(reg.counterValue("cycles.total"), r.cycles)
                << entry.name << " LL" << loop;
            EXPECT_EQ(reg.counterValue("ops.total"), r.instructions)
                << entry.name << " LL" << loop;
            // Utilization gauges are fractions.
            for (const auto &label : reg.labels())
                (void)label;
        }
    }
}

TEST(ObsAllSims, InstrumentedRunMatchesFastPath)
{
    // Attaching a sink disables the steady-state fast path; the
    // result must nevertheless be identical to the default run.
    const MachineConfig cfg = configM11BR5();
    const DecodedTrace trace(TraceLibrary::instance().trace(7), cfg);
    for (NamedSim &entry : allSims(cfg)) {
        SimResult fast = entry.sim->run(trace);
        PipeTraceRecorder rec(trace.size());
        entry.sim->attachAudit(&rec);
        const SimResult slow = entry.sim->run(trace);
        entry.sim->attachAudit(nullptr);
        // The instrumented run must not have taken the fast path.
        EXPECT_EQ(slow.steadyOpsSkipped, 0u) << entry.name;
        fast.steadyOpsSkipped = slow.steadyOpsSkipped;
        test::expectSameResult(fast, slow, entry.name);
    }
}

/** @p got's per-op columns and stall samples equal @p want's. */
void
expectSameRecording(const PipeTraceRecorder &got,
                    const PipeTraceRecorder &want, const std::string &what)
{
    ASSERT_EQ(got.opCount(), want.opCount()) << what;
    for (std::size_t i = 0; i < want.opCount(); ++i) {
        const std::string where = what + " op " + std::to_string(i);
        EXPECT_EQ(got.issue(i), want.issue(i)) << where;
        EXPECT_EQ(got.dispatch(i), want.dispatch(i)) << where;
        EXPECT_EQ(got.complete(i), want.complete(i)) << where;
        EXPECT_EQ(got.insert(i), want.insert(i)) << where;
        EXPECT_EQ(got.commit(i), want.commit(i)) << where;
        EXPECT_EQ(got.squash(i), want.squash(i)) << where;
        EXPECT_EQ(got.issueUnit(i), want.issueUnit(i)) << where;
        EXPECT_EQ(got.dispatchUnit(i), want.dispatchUnit(i)) << where;
        EXPECT_EQ(got.completeUnit(i), want.completeUnit(i)) << where;
        EXPECT_EQ(got.insertUnit(i), want.insertUnit(i)) << where;
    }
    ASSERT_EQ(got.wrongPath().size(), want.wrongPath().size()) << what;
    for (std::size_t w = 0; w < want.wrongPath().size(); ++w) {
        const AuditEvent &a = got.wrongPath()[w];
        const AuditEvent &b = want.wrongPath()[w];
        EXPECT_EQ(a.cycle, b.cycle) << what << " wrong path " << w;
        EXPECT_EQ(a.op, b.op) << what << " wrong path " << w;
        EXPECT_EQ(a.unit, b.unit) << what << " wrong path " << w;
    }
    ASSERT_EQ(got.stalls().size(), want.stalls().size()) << what;
    for (std::size_t s = 0; s < want.stalls().size(); ++s) {
        const StallSample &a = got.stalls()[s];
        const StallSample &b = want.stalls()[s];
        EXPECT_EQ(a.from, b.from) << what << " sample " << s;
        EXPECT_EQ(a.cycles, b.cycles) << what << " sample " << s;
        EXPECT_EQ(a.op, b.op) << what << " sample " << s;
        EXPECT_EQ(a.cause, b.cause) << what << " sample " << s;
    }
}

TEST(ObsAllSims, AuditedRecordingMatchesRecorderOnly)
{
    // Auditing an instrumented run must leave its recording exactly
    // as an unaudited instrumented run leaves it.
    const MachineConfig cfg = configM11BR5();
    const DecodedTrace trace(TraceLibrary::instance().trace(7), cfg);
    std::vector<NamedSim> sims = allSims(cfg);
    // Armed predictors add squash and wrong-path events.
    for (const char *spec : { "ooo:4,pred=2bit", "ruu:4:50,pred=2bit" })
        sims.push_back({ spec, parseMachineSpec(spec, cfg), false });
    for (NamedSim &entry : sims) {
        PipeTraceRecorder plain(trace.size()), audited(trace.size());
        runWithSinks(*entry.sim, trace, &plain, false);
        runWithSinks(*entry.sim, trace, &audited, true);
        expectSameRecording(audited, plain, entry.name);
    }
}

// ---------------------------------------------------------------
// Exporters.

TEST(ObsExport, ChromeTraceIsValidJson)
{
    const MachineConfig cfg = configM11BR5();
    const DecodedTrace trace(TraceLibrary::instance().trace(5), cfg);
    for (NamedSim &entry : allSims(cfg)) {
        PipeTraceRecorder rec(trace.size());
        entry.sim->attachAudit(&rec);
        entry.sim->run(trace);
        entry.sim->attachAudit(nullptr);
        std::ostringstream out;
        writeChromeTrace(out, rec, trace, entry.name + " LL5");
        EXPECT_TRUE(validJson(out.str())) << entry.name;
        EXPECT_NE(out.str().find("traceEvents"), std::string::npos)
            << entry.name;
        EXPECT_NE(out.str().find("process_name"), std::string::npos)
            << entry.name;
    }
}

TEST(ObsExport, ChromeTraceEscapesNames)
{
    const MachineConfig cfg = configM11BR5();
    const DecodedTrace trace(TraceLibrary::instance().trace(5), cfg);
    ScoreboardSim sim(ScoreboardConfig::crayLike(), cfg);
    PipeTraceRecorder rec(trace.size());
    sim.attachAudit(&rec);
    sim.run(trace);
    sim.attachAudit(nullptr);
    const std::string label = "LL5 \"quoted\" \\path\nline 2";
    std::ostringstream out;
    writeChromeTrace(out, rec, trace, label);
    const Json doc = parseJson(out.str());
    const Json &process = doc.find("traceEvents")->items().front();
    EXPECT_EQ(process.find("name")->asString(), "process_name");
    EXPECT_EQ(process.find("args")->find("name")->asString(), label);
}

TEST(ObsExport, PipeviewShowsSchedule)
{
    const MachineConfig cfg = configM11BR5();
    const DecodedTrace trace(TraceLibrary::instance().trace(5), cfg);
    RuuSim sim(RuuConfig{ 2, 30, BusKind::kPerUnit }, cfg);
    PipeTraceRecorder rec(trace.size());
    sim.attachAudit(&rec);
    sim.run(trace);
    sim.attachAudit(nullptr);
    std::ostringstream out;
    writePipeview(out, rec, trace, 8, 80);
    const std::string text = out.str();
    EXPECT_NE(text.find("pipeview:"), std::string::npos);
    EXPECT_NE(text.find(mnemonicOf(trace.op(0))),
              std::string::npos);
    EXPECT_NE(text.find('I'), std::string::npos);
    // 8-op clamp plus a truncation note for the rest.
    EXPECT_NE(text.find("more ops"), std::string::npos);
}

TEST(ObsExport, ScopedPhaseTimerAccumulates)
{
    MetricsRegistry reg;
    {
        ScopedPhaseTimer timer(reg.gauge("profile.x_seconds"));
        volatile unsigned sink = 0;
        for (unsigned i = 0; i < 100000; ++i)
            sink = sink + i;
    }
    EXPECT_GT(reg.gaugeValue("profile.x_seconds"), 0.0);
}

// ---------------------------------------------------------------
// Prometheus text exposition.

/** The registry behind the pinned golden file. */
MetricsRegistry
prometheusGoldenRegistry()
{
    MetricsRegistry reg;
    reg.setLabel("sim", "CRAY-like");
    reg.setLabel("config", "M11\"BR5\\x");  // value needs escaping
    reg.counter("issues.total").add(12345);
    reg.counter("stall.raw").add(678);
    reg.gauge("rate.LL5").set(0.385);
    reg.gauge("profile.simulate_seconds").set(1.5);
    Histogram &h = reg.histogram("queue depth!", 2, 3);
    h.record(0);
    h.record(1);
    h.record(3);
    h.record(5);
    h.record(100);      // overflow bucket
    reg.series("occupancy.timeline").record(1, 0.5);
    return reg;
}

TEST(Prometheus, RenderMatchesPinnedGolden)
{
    const std::string rendered =
        renderPrometheus(prometheusGoldenRegistry());

    std::ifstream golden(std::string(MFUSIM_TEST_GOLDEN_DIR) +
                         "/metrics.prom");
    ASSERT_TRUE(golden.good())
        << "missing golden file; expected output:\n" << rendered;
    std::ostringstream want;
    want << golden.rdbuf();
    EXPECT_EQ(rendered, want.str())
        << "renderPrometheus drifted from the pinned golden; if the "
           "change is intentional, update tests/golden/metrics.prom";
}

TEST(Prometheus, FormatInvariants)
{
    const std::string text =
        renderPrometheus(prometheusGoldenRegistry());

    // Counters carry the _total suffix and the sanitized prefix.
    EXPECT_NE(text.find("# TYPE mfusim_issues_total_total counter"),
              std::string::npos)
        << text;
    // Name sanitization: "queue depth!" -> queue_depth_.
    EXPECT_NE(text.find("mfusim_queue_depth__bucket"),
              std::string::npos)
        << text;
    // Histograms are cumulative and end at +Inf == _count.
    const std::size_t inf = text.find("le=\"+Inf\"");
    ASSERT_NE(inf, std::string::npos);
    EXPECT_NE(text.find("mfusim_queue_depth__count"),
              std::string::npos);
    // Label values are escaped.
    EXPECT_NE(text.find("M11\\\"BR5\\\\x"), std::string::npos)
        << text;
    // Time series are not exported.
    EXPECT_EQ(text.find("occupancy"), std::string::npos) << text;
    // Every line is a comment or a sample ending in a number.
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        if (line[0] == '#')
            continue;
        const std::size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        char *end = nullptr;
        std::strtod(line.c_str() + space + 1, &end);
        EXPECT_EQ(*end, '\0') << line;
    }
}

TEST(Prometheus, SweepRegistryRendersCleanly)
{
    // A real merged sweep registry (the /metrics payload shape for
    // an instrumented run) renders without throwing and contains the
    // per-loop rate gauges.
    const SimFactory factory = [](const MachineConfig &c)
        -> std::unique_ptr<Simulator> {
        return std::make_unique<SimpleSim>(c);
    };
    const SweepMetrics sweep = parallelPerLoopMetrics(
        factory, { 1, 2 }, configM11BR5(), 1);
    const std::string text = renderPrometheus(sweep.metrics);
    EXPECT_NE(text.find("mfusim_rate_LL1"), std::string::npos)
        << text;
    EXPECT_NE(text.find("mfusim_rate_LL2"), std::string::npos);
}

} // namespace
} // namespace mfusim
