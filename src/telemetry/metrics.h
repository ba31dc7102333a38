/**
 * @file
 * Named-metric registry and Prometheus text-format exposition.
 *
 * A MetricRegistry owns counters, gauges, and latency histograms by
 * name and hands out stable references, so instrumented code pays the
 * name lookup once at wire-up and the hot path touches only atomics.
 * collect() freezes everything into a MetricsSnapshot — a plain data
 * struct that travels over the wire (see server/protocol.h) and
 * renders as Prometheus text exposition on either end.
 *
 * Naming convention: metric names follow Prometheus rules
 * ([a-zA-Z_:][a-zA-Z0-9_:]*) with an optional trailing label block,
 * e.g. `qpc_tenant_serve_us{tenant="alice"}`. The label block is kept
 * inside the name string — the registry does not model label sets —
 * and the renderer splices histogram `le` labels into it. All
 * histograms record *nanoseconds*; exposition converts bounds and
 * sums to *microseconds* to match the `_us` name suffix used
 * throughout.
 */

#ifndef QPC_TELEMETRY_METRICS_H
#define QPC_TELEMETRY_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/histogram.h"

namespace qpc {

/** Point-in-time samples of every metric in a registry. */
struct MetricsSnapshot
{
    struct CounterSample
    {
        std::string name;
        std::uint64_t value = 0;
    };

    struct GaugeSample
    {
        std::string name;
        double value = 0.0;
    };

    struct HistogramSample
    {
        std::string name;
        HistogramSnapshot histogram;
    };

    std::vector<CounterSample> counters;
    std::vector<GaugeSample> gauges;
    std::vector<HistogramSample> histograms;

    /** Sort every section by name for deterministic exposition. */
    void sortByName();

    /** Fold another snapshot in (same-name histograms merge). */
    void merge(const MetricsSnapshot& other);

    /** @name By-name lookup (full name, label block included);
     * nullptr when the snapshot holds no such metric.
     *  @{ */
    const std::uint64_t* counter(const std::string& name) const;
    const double* gauge(const std::string& name) const;
    const HistogramSnapshot* histogram(const std::string& name) const;
    /** @} */
};

/**
 * Render a snapshot as Prometheus text exposition (version 0.0.4).
 * Counters and gauges emit `# TYPE` headers plus one sample line;
 * histograms emit cumulative `_bucket{le=...}` lines (nonzero buckets
 * only, plus `+Inf`), `_sum`, and `_count`, with bucket bounds and
 * sums converted from recorded nanoseconds to microseconds.
 */
std::string renderPrometheus(const MetricsSnapshot& snap);

/**
 * Owns metrics by name. Lookup is mutex-guarded; the returned
 * references are stable for the registry's lifetime, so callers
 * resolve once and record lock-free afterwards.
 */
class MetricRegistry
{
  public:
    /** Monotonically increasing event count. */
    class Counter
    {
      public:
        void inc(std::uint64_t n = 1)
        {
            value_.fetch_add(n, std::memory_order_relaxed);
        }

        std::uint64_t value() const
        {
            return value_.load(std::memory_order_relaxed);
        }

      private:
        std::atomic<std::uint64_t> value_{0};
    };

    /** Instantaneous level that can move both ways. */
    class Gauge
    {
      public:
        void set(double v);
        double value() const;

      private:
        std::atomic<std::uint64_t> bits_{0};
    };

    /** Find or create; panics on a malformed metric name. */
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    LatencyHistogram& histogram(const std::string& name);

    /** Snapshot every registered metric. */
    MetricsSnapshot collect() const;

  private:
    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<LatencyHistogram>>
        histograms_;
};

/**
 * Quote a string for use as a Prometheus label value: escapes
 * backslash, double quote, and newline per the exposition format.
 */
std::string promLabelEscape(const std::string& raw);

} // namespace qpc

#endif // QPC_TELEMETRY_METRICS_H
