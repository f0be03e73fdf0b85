/**
 * @file
 * MetricsRegistry: named counters, gauges, fixed-bucket histograms
 * and bounded time-series samplers for simulator telemetry.
 *
 * The registry is the common currency of the observability layer:
 * run_metrics.cc populates one from a recorded pipeline schedule,
 * the sweep runner merges per-cell registries into grid aggregates,
 * bench/stall_breakdown prints from one, and the CLI serializes one
 * to JSON (schema "mfusim-metrics-v1") or CSV.
 *
 * Design constraints, in order:
 *  - deterministic output: entries serialize in insertion order and
 *    merge() is commutative on values, so parallel sweeps that merge
 *    in index order reproduce bit-identical files;
 *  - bounded memory: histograms have a fixed bucket count with an
 *    explicit overflow bucket, and TimeSeries halves itself by
 *    doubling its sampling stride when full (SimpleScalar-style), so
 *    a billion-cycle run costs the same as a thousand-cycle one;
 *  - fail-fast misuse: looking a name up as the wrong kind throws
 *    Error rather than silently aliasing.
 */

#ifndef MFUSIM_OBS_METRICS_HH
#define MFUSIM_OBS_METRICS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "mfusim/core/types.hh"

namespace mfusim
{

/** A monotone event count. */
class Counter
{
  public:
    void add(std::uint64_t n) { value_ += n; }
    void increment() { ++value_; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** A point-in-time scalar (rates, percentages, wall seconds). */
class Gauge
{
  public:
    void set(double v) { value_ = v; }
    void add(double v) { value_ += v; }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/**
 * A fixed-width-bucket histogram over non-negative integers.
 * Values at or above bucketWidth * bucketCount land in a dedicated
 * overflow bucket; exact count/sum/min/max are kept alongside so no
 * precision is lost for the scalar statistics.
 *
 * makeLog2() builds the variant the serve tier records latencies
 * into: bucket i counts values whose bit width is i (bucket 0 holds
 * exactly 0, bucket i holds [2^(i-1), 2^i - 1]), so 30 buckets span
 * 1 ns to ~1 s with one bit_width() per record and no division.  An
 * optional unitScale converts raw recorded units to display units at
 * export time (record nanoseconds, render seconds) — recording stays
 * pure integer arithmetic on the hot path.
 */
class Histogram
{
  public:
    Histogram(std::uint64_t bucketWidth, std::size_t bucketCount);

    /** Log2-bucket histogram; see the class comment. */
    static Histogram makeLog2(std::size_t bucketCount,
                              double unitScale = 1.0);

    void record(std::uint64_t value, std::uint64_t weight = 1);
    /** Merge @p other in; bucket geometry must match (throws). */
    void merge(const Histogram &other);

    std::uint64_t bucketWidth() const { return width_; }
    std::size_t bucketCount() const { return buckets_.size(); }
    std::uint64_t bucket(std::size_t i) const { return buckets_[i]; }
    std::uint64_t overflow() const { return overflow_; }
    bool isLog2() const { return log2_; }
    double unitScale() const { return unitScale_; }
    /** Inclusive upper edge of bucket @p i, in raw recorded units. */
    std::uint64_t bucketUpperEdge(std::size_t i) const;

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }
    double mean() const { return count_ ? double(sum_) / double(count_) : 0.0; }

  private:
    std::uint64_t width_;
    std::vector<std::uint64_t> buckets_;
    bool log2_ = false;
    double unitScale_ = 1.0;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~std::uint64_t(0);
    std::uint64_t max_ = 0;
};

/**
 * A bounded sampler of (cycle, value) points.  Records every point
 * until the capacity is reached, then compacts by dropping every
 * other retained point and doubling the recording stride — the
 * retained points stay evenly spaced over the whole run regardless
 * of its length.
 */
class TimeSeries
{
  public:
    explicit TimeSeries(std::size_t capacity = 512);

    void record(ClockCycle cycle, double value);

    struct Point
    {
        ClockCycle cycle;
        double value;
    };

    const std::vector<Point> &points() const { return points_; }
    std::uint64_t stride() const { return stride_; }

  private:
    std::size_t capacity_;
    std::uint64_t stride_ = 1;
    std::uint64_t pending_ = 0;     //!< points skipped since last keep
    std::vector<Point> points_;
};

/**
 * A named, insertion-ordered collection of metrics, plus free-form
 * string labels (sim name, config, trace id).  Accessors create on
 * first use and return stable references — entries are heap-held so
 * a reference survives later insertions.
 */
class MetricsRegistry
{
  public:
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name,
                         std::uint64_t bucketWidth,
                         std::size_t bucketCount);
    /** Create-or-find a Histogram::makeLog2 histogram. */
    Histogram &histogramLog2(const std::string &name,
                             std::size_t bucketCount,
                             double unitScale = 1.0);
    TimeSeries &series(const std::string &name,
                       std::size_t capacity = 512);

    /** The counter's value, or 0 if absent.  Throws on kind clash. */
    std::uint64_t counterValue(const std::string &name) const;
    /** The gauge's value, or 0.0 if absent.  Throws on kind clash. */
    double gaugeValue(const std::string &name) const;
    const Histogram *findHistogram(const std::string &name) const;

    void setLabel(const std::string &key, const std::string &value);
    const std::map<std::string, std::string> &labels() const
    {
        return labels_;
    }

    /**
     * Fold @p other into this registry: counters and gauges sum,
     * histograms merge bucket-wise.  Time series are skipped — their
     * cycle axes restart per run, so they do not aggregate.
     * Entries new to this registry are created in @p other's order,
     * so index-ordered merging is deterministic.
     */
    void merge(const MetricsRegistry &other);

    /** Serialize as "mfusim-metrics-v1" JSON. */
    void writeJson(std::ostream &os) const;
    /** Serialize as flat name,kind,value CSV (scalar stats only). */
    void writeCsv(std::ostream &os) const;

    /**
     * Serialize in the Prometheus text exposition format (version
     * 0.0.4), the `GET /metrics` payload of `mfusim serve`.
     *
     * Mapping:
     *  - names are prefixed "mfusim_" and sanitized to the metric-
     *    name alphabet [a-zA-Z0-9_:] (every other byte becomes '_');
     *  - counters render with the conventional "_total" suffix;
     *  - histograms render as cumulative "_bucket" samples with
     *    le="<upper edge>" plus the "+Inf" bucket, "_sum" and
     *    "_count", matching the native Prometheus histogram type;
     *  - registry labels() are attached to every sample, with label
     *    names sanitized like metric names and values escaped;
     *  - a name with a trailing `{key=value,...}` block — e.g.
     *    "http.phase_seconds{phase=parse}" — renders as the base
     *    family with those labels merged in, so one registry can hold
     *    many labeled series of a single Prometheus family (the TYPE
     *    line is emitted once per family, at its first appearance);
     *  - log2 histograms with a unitScale render their bucket edges
     *    and _sum in scaled (display) units;
     *  - time series are per-run artifacts with their own cycle axis
     *    and have no Prometheus equivalent, so they are skipped.
     *
     * Every family is preceded by its "# TYPE" line.  Output order is
     * insertion order, so the format is deterministic and golden-file
     * testable.
     */
    void writePrometheus(std::ostream &os) const;

  private:
    enum class Kind : std::uint8_t
    {
        kCounter,
        kGauge,
        kHistogram,
        kSeries
    };

    struct Entry
    {
        std::string name;
        Kind kind;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
        std::unique_ptr<TimeSeries> series;
    };

    Entry *find(const std::string &name);
    const Entry *find(const std::string &name) const;
    Entry &create(const std::string &name, Kind kind);
    [[noreturn]] void kindClash(const Entry &entry, Kind wanted) const;

    std::vector<std::unique_ptr<Entry>> entries_;
    std::map<std::string, std::string> labels_;
};

/**
 * RAII wall-clock phase timer: on destruction adds the elapsed
 * seconds to a gauge (conventionally "profile.<phase>_seconds").
 * Used by the CLI to stamp decode / period-detect / simulate phase
 * times into metrics output.
 */
class ScopedPhaseTimer
{
  public:
    explicit ScopedPhaseTimer(Gauge &gauge);
    ~ScopedPhaseTimer();

    ScopedPhaseTimer(const ScopedPhaseTimer &) = delete;
    ScopedPhaseTimer &operator=(const ScopedPhaseTimer &) = delete;

  private:
    Gauge &gauge_;
    std::uint64_t startNs_;
};

/** writePrometheus() into a string (serve /metrics handler). */
std::string renderPrometheus(const MetricsRegistry &metrics);

} // namespace mfusim

#endif // MFUSIM_OBS_METRICS_HH
