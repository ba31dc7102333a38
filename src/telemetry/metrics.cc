#include "telemetry/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/logging.h"

namespace qpc {

namespace {

/** Format a double with enough precision to round-trip visually. */
std::string
fmtValue(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

bool
validBaseName(const std::string& base)
{
    if (base.empty())
        return false;
    for (std::size_t i = 0; i < base.size(); ++i) {
        const char c = base[i];
        const bool alpha = (c >= 'a' && c <= 'z') ||
                           (c >= 'A' && c <= 'Z') || c == '_' ||
                           c == ':';
        const bool digit = c >= '0' && c <= '9';
        if (!(alpha || (digit && i > 0)))
            return false;
    }
    return true;
}

/**
 * Split "base{labels}" into its parts; labels comes back *without*
 * braces and empty when absent. Returns false on a malformed name.
 */
bool
splitName(const std::string& name, std::string& base,
          std::string& labels)
{
    const auto brace = name.find('{');
    if (brace == std::string::npos) {
        base = name;
        labels.clear();
        return validBaseName(base) &&
               name.find('}') == std::string::npos;
    }
    if (name.back() != '}' || brace + 1 >= name.size())
        return false;
    base = name.substr(0, brace);
    labels = name.substr(brace + 1, name.size() - brace - 2);
    return validBaseName(base) && !labels.empty() &&
           labels.find('{') == std::string::npos &&
           labels.find('}') == std::string::npos &&
           labels.find('\n') == std::string::npos;
}

/** The sample named `name` in one snapshot section (const or not),
 * or nullptr. */
template <typename Section>
auto
findByName(Section& section, const std::string& name)
    -> decltype(section.data())
{
    for (auto& sample : section)
        if (sample.name == name)
            return &sample;
    return nullptr;
}

void
checkName(const std::string& name)
{
    std::string base, labels;
    panicIf(!splitName(name, base, labels),
            "metrics: malformed metric name: ", name);
}

/** "# TYPE base t" — emitted once per metric family. */
void
emitTypeHeader(std::string& out, std::string& lastBase,
               const std::string& base, const char* type)
{
    if (base == lastBase)
        return;
    lastBase = base;
    out += "# TYPE ";
    out += base;
    out += ' ';
    out += type;
    out += '\n';
}

/** Rebuild "base{labels,extra}" with optional label fragments. */
std::string
sampleName(const std::string& base, const std::string& suffix,
           const std::string& labels, const std::string& extra)
{
    std::string out = base + suffix;
    if (labels.empty() && extra.empty())
        return out;
    out += '{';
    out += labels;
    if (!labels.empty() && !extra.empty())
        out += ',';
    out += extra;
    out += '}';
    return out;
}

} // namespace

std::string
promLabelEscape(const std::string& raw)
{
    std::string out;
    out.reserve(raw.size());
    for (const char c : raw) {
        switch (c) {
          case '\\':
            out += "\\\\";
            break;
          case '"':
            out += "\\\"";
            break;
          case '\n':
            out += "\\n";
            break;
          // The registry keeps labels inside the metric-name string,
          // so a brace in a label value (legal Prometheus, but
          // unparseable there) is neutralized rather than letting a
          // hostile tenant name panic the name validator.
          case '{':
          case '}':
            out += '_';
            break;
          default:
            out += c;
        }
    }
    return out;
}

void
MetricsSnapshot::sortByName()
{
    const auto byName = [](const auto& a, const auto& b) {
        return a.name < b.name;
    };
    std::sort(counters.begin(), counters.end(), byName);
    std::sort(gauges.begin(), gauges.end(), byName);
    std::sort(histograms.begin(), histograms.end(), byName);
}

void
MetricsSnapshot::merge(const MetricsSnapshot& other)
{
    for (const auto& c : other.counters) {
        if (CounterSample* mine = findByName(counters, c.name))
            mine->value += c.value;
        else
            counters.push_back(c);
    }
    for (const auto& g : other.gauges) {
        if (GaugeSample* mine = findByName(gauges, g.name))
            mine->value = g.value;
        else
            gauges.push_back(g);
    }
    for (const auto& h : other.histograms) {
        if (HistogramSample* mine = findByName(histograms, h.name))
            mine->histogram.merge(h.histogram);
        else
            histograms.push_back(h);
    }
}

const std::uint64_t*
MetricsSnapshot::counter(const std::string& name) const
{
    const CounterSample* sample = findByName(counters, name);
    return sample ? &sample->value : nullptr;
}

const double*
MetricsSnapshot::gauge(const std::string& name) const
{
    const GaugeSample* sample = findByName(gauges, name);
    return sample ? &sample->value : nullptr;
}

const HistogramSnapshot*
MetricsSnapshot::histogram(const std::string& name) const
{
    const HistogramSample* sample = findByName(histograms, name);
    return sample ? &sample->histogram : nullptr;
}

std::string
renderPrometheus(const MetricsSnapshot& snap)
{
    MetricsSnapshot sorted = snap;
    sorted.sortByName();
    std::string out;
    std::string lastBase;

    for (const auto& c : sorted.counters) {
        std::string base, labels;
        if (!splitName(c.name, base, labels))
            continue;
        emitTypeHeader(out, lastBase, base, "counter");
        out += sampleName(base, "", labels, "");
        out += ' ';
        out += std::to_string(c.value);
        out += '\n';
    }
    for (const auto& g : sorted.gauges) {
        std::string base, labels;
        if (!splitName(g.name, base, labels))
            continue;
        emitTypeHeader(out, lastBase, base, "gauge");
        out += sampleName(base, "", labels, "");
        out += ' ';
        out += fmtValue(g.value);
        out += '\n';
    }
    for (const auto& h : sorted.histograms) {
        std::string base, labels;
        if (!splitName(h.name, base, labels))
            continue;
        emitTypeHeader(out, lastBase, base, "histogram");
        std::uint64_t cum = 0;
        for (const auto& [index, count] : h.histogram.buckets) {
            cum += count;
            // The overflow bucket is covered by the +Inf line below.
            if (static_cast<int>(index) ==
                LatencyHistogram::kNumBuckets - 1)
                continue;
            const double upperUs =
                static_cast<double>(
                    LatencyHistogram::bucketUpperNs(
                        static_cast<int>(index))) /
                1e3;
            out += sampleName(base, "_bucket", labels,
                              "le=\"" + fmtValue(upperUs) + "\"");
            out += ' ';
            out += std::to_string(cum);
            out += '\n';
        }
        out += sampleName(base, "_bucket", labels, "le=\"+Inf\"");
        out += ' ';
        out += std::to_string(h.histogram.count);
        out += '\n';
        out += sampleName(base, "_sum", labels, "");
        out += ' ';
        out += fmtValue(static_cast<double>(h.histogram.sumNs) /
                        1e3);
        out += '\n';
        out += sampleName(base, "_count", labels, "");
        out += ' ';
        out += std::to_string(h.histogram.count);
        out += '\n';
    }
    return out;
}

void
MetricRegistry::Gauge::set(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v), "double width");
    std::memcpy(&bits, &v, sizeof(bits));
    bits_.store(bits, std::memory_order_relaxed);
}

double
MetricRegistry::Gauge::value() const
{
    const std::uint64_t bits =
        bits_.load(std::memory_order_relaxed);
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

MetricRegistry::Counter&
MetricRegistry::counter(const std::string& name)
{
    checkName(name);
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

MetricRegistry::Gauge&
MetricRegistry::gauge(const std::string& name)
{
    checkName(name);
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

LatencyHistogram&
MetricRegistry::histogram(const std::string& name)
{
    checkName(name);
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<LatencyHistogram>();
    return *slot;
}

MetricsSnapshot
MetricRegistry::collect() const
{
    MetricsSnapshot snap;
    std::lock_guard<std::mutex> lock(mu_);
    snap.counters.reserve(counters_.size());
    for (const auto& [name, c] : counters_)
        snap.counters.push_back({name, c->value()});
    snap.gauges.reserve(gauges_.size());
    for (const auto& [name, g] : gauges_)
        snap.gauges.push_back({name, g->value()});
    snap.histograms.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_)
        snap.histograms.push_back({name, h->snapshot()});
    return snap;
}

} // namespace qpc
