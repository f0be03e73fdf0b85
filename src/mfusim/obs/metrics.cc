/**
 * @file
 * MetricsRegistry implementation: storage, merging, JSON/CSV export.
 */

#include "mfusim/obs/metrics.hh"

#include <bit>
#include <cmath>
#include <set>
#include <sstream>

#include "mfusim/core/clock.hh"
#include "mfusim/core/error.hh"
#include "mfusim/obs/trace_event.hh"

namespace mfusim
{

// ---------------------------------------------------------------- Histogram

Histogram::Histogram(std::uint64_t bucketWidth, std::size_t bucketCount)
    : width_(bucketWidth), buckets_(bucketCount, 0)
{
    if (bucketWidth == 0 || bucketCount == 0)
        throw Error("Histogram: bucketWidth and bucketCount must be "
                    "nonzero");
}

Histogram
Histogram::makeLog2(std::size_t bucketCount, double unitScale)
{
    Histogram h(1, bucketCount);
    h.log2_ = true;
    h.unitScale_ = unitScale;
    return h;
}

std::uint64_t
Histogram::bucketUpperEdge(std::size_t i) const
{
    if (!log2_)
        return width_ * std::uint64_t(i + 1);
    // Bucket i counts values with bit_width == i: [2^(i-1), 2^i - 1].
    return i == 0 ? 0 : (std::uint64_t(1) << i) - 1;
}

void
Histogram::record(std::uint64_t value, std::uint64_t weight)
{
    if (weight == 0)
        return;
    const std::uint64_t idx =
        log2_ ? std::uint64_t(std::bit_width(value)) : value / width_;
    if (idx < buckets_.size())
        buckets_[idx] += weight;
    else
        overflow_ += weight;
    count_ += weight;
    sum_ += value * weight;
    if (value < min_)
        min_ = value;
    if (value > max_)
        max_ = value;
}

void
Histogram::merge(const Histogram &other)
{
    if (other.width_ != width_ ||
        other.buckets_.size() != buckets_.size() ||
        other.log2_ != log2_ || other.unitScale_ != unitScale_)
        throw Error("Histogram::merge: bucket geometry mismatch");
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    overflow_ += other.overflow_;
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.count_ && other.min_ < min_)
        min_ = other.min_;
    if (other.max_ > max_)
        max_ = other.max_;
}

// ---------------------------------------------------------------- TimeSeries

TimeSeries::TimeSeries(std::size_t capacity)
    : capacity_(capacity < 2 ? 2 : capacity)
{
}

void
TimeSeries::record(ClockCycle cycle, double value)
{
    if (pending_ + 1 < stride_) {
        ++pending_;
        return;
    }
    pending_ = 0;
    if (points_.size() >= capacity_) {
        // Keep every other point and double the stride: retained
        // points stay evenly spaced over the run so far.
        std::size_t w = 0;
        for (std::size_t r = 0; r < points_.size(); r += 2)
            points_[w++] = points_[r];
        points_.resize(w);
        stride_ *= 2;
    }
    points_.push_back(Point{ cycle, value });
}

// ---------------------------------------------------------------- Registry

MetricsRegistry::Entry *
MetricsRegistry::find(const std::string &name)
{
    for (auto &entry : entries_)
        if (entry->name == name)
            return entry.get();
    return nullptr;
}

const MetricsRegistry::Entry *
MetricsRegistry::find(const std::string &name) const
{
    for (const auto &entry : entries_)
        if (entry->name == name)
            return entry.get();
    return nullptr;
}

MetricsRegistry::Entry &
MetricsRegistry::create(const std::string &name, Kind kind)
{
    entries_.push_back(std::make_unique<Entry>());
    Entry &entry = *entries_.back();
    entry.name = name;
    entry.kind = kind;
    return entry;
}

void
MetricsRegistry::kindClash(const Entry &entry, Kind wanted) const
{
    static const char *const names[] = { "counter", "gauge",
                                         "histogram", "series" };
    throw Error("MetricsRegistry: '" + entry.name + "' is a " +
                names[unsigned(entry.kind)] + ", requested as " +
                names[unsigned(wanted)]);
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    if (Entry *entry = find(name)) {
        if (entry->kind != Kind::kCounter)
            kindClash(*entry, Kind::kCounter);
        return *entry->counter;
    }
    Entry &entry = create(name, Kind::kCounter);
    entry.counter = std::make_unique<Counter>();
    return *entry.counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    if (Entry *entry = find(name)) {
        if (entry->kind != Kind::kGauge)
            kindClash(*entry, Kind::kGauge);
        return *entry->gauge;
    }
    Entry &entry = create(name, Kind::kGauge);
    entry.gauge = std::make_unique<Gauge>();
    return *entry.gauge;
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           std::uint64_t bucketWidth,
                           std::size_t bucketCount)
{
    if (Entry *entry = find(name)) {
        if (entry->kind != Kind::kHistogram)
            kindClash(*entry, Kind::kHistogram);
        return *entry->histogram;
    }
    Entry &entry = create(name, Kind::kHistogram);
    entry.histogram =
        std::make_unique<Histogram>(bucketWidth, bucketCount);
    return *entry.histogram;
}

Histogram &
MetricsRegistry::histogramLog2(const std::string &name,
                               std::size_t bucketCount,
                               double unitScale)
{
    if (Entry *entry = find(name)) {
        if (entry->kind != Kind::kHistogram)
            kindClash(*entry, Kind::kHistogram);
        return *entry->histogram;
    }
    Entry &entry = create(name, Kind::kHistogram);
    entry.histogram = std::make_unique<Histogram>(
        Histogram::makeLog2(bucketCount, unitScale));
    return *entry.histogram;
}

TimeSeries &
MetricsRegistry::series(const std::string &name, std::size_t capacity)
{
    if (Entry *entry = find(name)) {
        if (entry->kind != Kind::kSeries)
            kindClash(*entry, Kind::kSeries);
        return *entry->series;
    }
    Entry &entry = create(name, Kind::kSeries);
    entry.series = std::make_unique<TimeSeries>(capacity);
    return *entry.series;
}

std::uint64_t
MetricsRegistry::counterValue(const std::string &name) const
{
    const Entry *entry = find(name);
    if (!entry)
        return 0;
    if (entry->kind != Kind::kCounter)
        kindClash(*entry, Kind::kCounter);
    return entry->counter->value();
}

double
MetricsRegistry::gaugeValue(const std::string &name) const
{
    const Entry *entry = find(name);
    if (!entry)
        return 0.0;
    if (entry->kind != Kind::kGauge)
        kindClash(*entry, Kind::kGauge);
    return entry->gauge->value();
}

const Histogram *
MetricsRegistry::findHistogram(const std::string &name) const
{
    const Entry *entry = find(name);
    if (!entry)
        return nullptr;
    if (entry->kind != Kind::kHistogram)
        kindClash(*entry, Kind::kHistogram);
    return entry->histogram.get();
}

void
MetricsRegistry::setLabel(const std::string &key,
                          const std::string &value)
{
    labels_[key] = value;
}

void
MetricsRegistry::merge(const MetricsRegistry &other)
{
    for (const auto &src : other.entries_) {
        switch (src->kind) {
          case Kind::kCounter:
            counter(src->name).add(src->counter->value());
            break;
          case Kind::kGauge:
            gauge(src->name).add(src->gauge->value());
            break;
          case Kind::kHistogram: {
            Histogram &dst = src->histogram->isLog2()
                ? histogramLog2(src->name,
                                src->histogram->bucketCount(),
                                src->histogram->unitScale())
                : histogram(src->name, src->histogram->bucketWidth(),
                            src->histogram->bucketCount());
            dst.merge(*src->histogram);
            break;
          }
          case Kind::kSeries:
            // Time series are per-run artifacts: their cycle axes
            // restart at 0 in every run, so concatenating them
            // would produce a non-monotonic, meaningless series.
            // Merged registries carry counters, gauges and
            // histograms only.
            break;
        }
    }
    for (const auto &[key, value] : other.labels_)
        labels_.emplace(key, value);    // first writer wins
}

// ------------------------------------------------------------------- export

namespace
{

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    os << "{\n  \"schema\": \"mfusim-metrics-v1\",\n";

    os << "  \"labels\": {";
    bool first = true;
    for (const auto &[key, value] : labels_) {
        os << (first ? "" : ",") << "\n    \"" << jsonEscape(key)
           << "\": \"" << jsonEscape(value) << "\"";
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n";

    os << "  \"counters\": {";
    first = true;
    for (const auto &entry : entries_) {
        if (entry->kind != Kind::kCounter)
            continue;
        os << (first ? "" : ",") << "\n    \""
           << jsonEscape(entry->name)
           << "\": " << entry->counter->value();
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n";

    os << "  \"gauges\": {";
    first = true;
    for (const auto &entry : entries_) {
        if (entry->kind != Kind::kGauge)
            continue;
        os << (first ? "" : ",") << "\n    \""
           << jsonEscape(entry->name)
           << "\": " << jsonNumber(entry->gauge->value());
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n";

    os << "  \"histograms\": {";
    first = true;
    for (const auto &entry : entries_) {
        if (entry->kind != Kind::kHistogram)
            continue;
        const Histogram &h = *entry->histogram;
        os << (first ? "" : ",") << "\n    \""
           << jsonEscape(entry->name) << "\": {\"bucket_width\": "
           << h.bucketWidth();
        if (h.isLog2())
            os << ", \"log2\": true, \"unit_scale\": "
               << jsonNumber(h.unitScale());
        os << ", \"count\": " << h.count()
           << ", \"sum\": " << h.sum() << ", \"min\": " << h.min()
           << ", \"max\": " << h.max()
           << ", \"mean\": " << jsonNumber(h.mean())
           << ", \"buckets\": [";
        for (std::size_t i = 0; i < h.bucketCount(); ++i)
            os << (i ? ", " : "") << h.bucket(i);
        os << "], \"overflow\": " << h.overflow() << "}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n";

    os << "  \"series\": {";
    first = true;
    for (const auto &entry : entries_) {
        if (entry->kind != Kind::kSeries)
            continue;
        const TimeSeries &ts = *entry->series;
        os << (first ? "" : ",") << "\n    \""
           << jsonEscape(entry->name) << "\": {\"stride\": "
           << ts.stride() << ", \"points\": [";
        bool firstPoint = true;
        for (const auto &p : ts.points()) {
            os << (firstPoint ? "" : ", ") << "[" << p.cycle << ", "
               << jsonNumber(p.value) << "]";
            firstPoint = false;
        }
        os << "]}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "}\n}\n";
}

void
MetricsRegistry::writeCsv(std::ostream &os) const
{
    // CSV flattens to scalar statistics: histograms export their
    // moments, series their last value.  Labels ride along as
    // pseudo-metrics so a spreadsheet join keeps the context.
    os << "name,kind,value\n";
    for (const auto &[key, value] : labels_)
        os << "label." << key << ",label," << value << "\n";
    for (const auto &entry : entries_) {
        switch (entry->kind) {
          case Kind::kCounter:
            os << entry->name << ",counter,"
               << entry->counter->value() << "\n";
            break;
          case Kind::kGauge:
            os << entry->name << ",gauge,"
               << jsonNumber(entry->gauge->value()) << "\n";
            break;
          case Kind::kHistogram: {
            const Histogram &h = *entry->histogram;
            os << entry->name << ".count,histogram," << h.count()
               << "\n"
               << entry->name << ".mean,histogram,"
               << jsonNumber(h.mean()) << "\n"
               << entry->name << ".min,histogram," << h.min() << "\n"
               << entry->name << ".max,histogram," << h.max() << "\n";
            break;
          }
          case Kind::kSeries: {
            const auto &points = entry->series->points();
            os << entry->name << ".samples,series," << points.size()
               << "\n";
            break;
          }
        }
    }
}

// -------------------------------------------------------------- prometheus

namespace
{

/** "http.latency ms" -> "mfusim_http_latency_ms". */
std::string
promName(const std::string &name)
{
    std::string out = "mfusim_";
    out.reserve(out.size() + name.size());
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
            (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
            c == '_' || c == ':';
        out += ok ? c : '_';
    }
    return out;
}

/** Label-name alphabet is the metric alphabet minus ':'. */
std::string
promLabelName(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
            (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
            c == '_';
        out += ok ? c : '_';
    }
    if (out.empty() || (out[0] >= '0' && out[0] <= '9'))
        out = "_" + out;
    return out;
}

std::string
promLabelValue(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (const char c : value) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '"':  out += "\\\""; break;
          case '\n': out += "\\n"; break;
          default:   out += c;
        }
    }
    return out;
}

/** The shared {key="value",...} suffix, or "" without labels. */
std::string
promLabels(const std::map<std::string, std::string> &labels)
{
    if (labels.empty())
        return "";
    std::string out = "{";
    bool first = true;
    for (const auto &[key, value] : labels) {
        if (!first)
            out += ",";
        out += promLabelName(key) + "=\"" + promLabelValue(value) +
            "\"";
        first = false;
    }
    out += "}";
    return out;
}

/** Like promLabels() but with one extra (histogram "le") label. */
std::string
promLabelsWith(const std::map<std::string, std::string> &labels,
               const std::string &extraKey,
               const std::string &extraValue)
{
    std::string out = "{";
    for (const auto &[key, value] : labels)
        out += promLabelName(key) + "=\"" + promLabelValue(value) +
            "\",";
    out += extraKey + "=\"" + extraValue + "\"}";
    return out;
}

/**
 * Split a registry name with a trailing embedded-label block
 * ("http.phase_seconds{phase=parse}") into the base family name and
 * its label pairs.  Names without a block pass through untouched.
 */
struct NameParts
{
    std::string base;
    std::map<std::string, std::string> labels;
};

NameParts
splitEmbedded(const std::string &name)
{
    NameParts parts;
    const std::size_t open = name.find('{');
    if (open == std::string::npos || name.back() != '}') {
        parts.base = name;
        return parts;
    }
    parts.base = name.substr(0, open);
    const std::string body =
        name.substr(open + 1, name.size() - open - 2);
    std::size_t pos = 0;
    while (pos <= body.size()) {
        std::size_t comma = body.find(',', pos);
        if (comma == std::string::npos)
            comma = body.size();
        const std::string pair = body.substr(pos, comma - pos);
        const std::size_t eq = pair.find('=');
        if (eq != std::string::npos)
            parts.labels[pair.substr(0, eq)] = pair.substr(eq + 1);
        pos = comma + 1;
    }
    return parts;
}

} // namespace

void
MetricsRegistry::writePrometheus(std::ostream &os) const
{
    // Embedded-label names make one family span several entries, so
    // the TYPE line is emitted at the family's first appearance only.
    std::set<std::string> typed;
    const auto typeLine = [&](const std::string &family,
                              const char *kind) {
        if (typed.insert(family).second)
            os << "# TYPE " << family << " " << kind << "\n";
    };
    for (const auto &entry : entries_) {
        const NameParts parts = splitEmbedded(entry->name);
        std::map<std::string, std::string> all = labels_;
        for (const auto &[key, value] : parts.labels)
            all[key] = value;
        const std::string labels = promLabels(all);
        switch (entry->kind) {
          case Kind::kCounter: {
            const std::string name = promName(parts.base) + "_total";
            typeLine(name, "counter");
            os << name << labels << " " << entry->counter->value()
               << "\n";
            break;
          }
          case Kind::kGauge: {
            const std::string name = promName(parts.base);
            typeLine(name, "gauge");
            os << name << labels << " "
               << jsonNumber(entry->gauge->value()) << "\n";
            break;
          }
          case Kind::kHistogram: {
            const Histogram &h = *entry->histogram;
            const std::string name = promName(parts.base);
            const bool scaled = h.unitScale() != 1.0;
            typeLine(name, "histogram");
            // Scaled edges render with %.9g: "1e-09" instead of the
            // %.17g round-trip noise ("1.0000000000000001e-09") —
            // `le` is a display edge, not a re-parsed value.
            const auto edgeString = [&](std::uint64_t raw) {
                if (!scaled)
                    return std::to_string(raw);
                char buf[32];
                std::snprintf(buf, sizeof(buf), "%.9g",
                              double(raw) * h.unitScale());
                return std::string(buf);
            };
            std::uint64_t cumulative = 0;
            for (std::size_t i = 0; i < h.bucketCount(); ++i) {
                cumulative += h.bucket(i);
                const std::string edge =
                    edgeString(h.bucketUpperEdge(i));
                os << name << "_bucket"
                   << promLabelsWith(all, "le", edge) << " "
                   << cumulative << "\n";
            }
            os << name << "_bucket"
               << promLabelsWith(all, "le", "+Inf") << " "
               << h.count() << "\n";
            os << name << "_sum" << labels << " ";
            if (scaled)
                os << jsonNumber(double(h.sum()) * h.unitScale());
            else
                os << h.sum();
            os << "\n";
            os << name << "_count" << labels << " " << h.count()
               << "\n";
            break;
          }
          case Kind::kSeries:
            // No Prometheus equivalent (per-run cycle axis).
            break;
        }
    }
}

std::string
renderPrometheus(const MetricsRegistry &metrics)
{
    std::ostringstream os;
    metrics.writePrometheus(os);
    return os.str();
}

// ------------------------------------------------------------- phase timer

ScopedPhaseTimer::ScopedPhaseTimer(Gauge &gauge)
    : gauge_(gauge), startNs_(monoNanos())
{
}

ScopedPhaseTimer::~ScopedPhaseTimer()
{
    gauge_.add(double(monoNanos() - startNs_) * 1e-9);
}

} // namespace mfusim
