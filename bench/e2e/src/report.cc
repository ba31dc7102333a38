/**
 * @file
 * Metric tables, the check ledger, result output, provenance, and the
 * --repeat summarizer.
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <thread>

#include "bench.h"
#include "linalg/kernels.h"

namespace qpc::e2e {

namespace {

/** Workloads, as bits of a per-layer metric's applicability mask. */
enum : unsigned
{
    kLookup = 1u,
    kDownload = 2u,
    kCold = 4u,
    kConverge = 8u,
    kServe = kLookup | kDownload,
    kAll = kServe | kCold | kConverge,
};

unsigned
workloadBit(const std::string& workload)
{
    if (workload == "qaoa_warm_lookup")
        return kLookup;
    if (workload == "qaoa_pulse_download")
        return kDownload;
    if (workload == "lih_grape_cold")
        return kCold;
    if (workload == "vqe_qaoa_converge")
        return kConverge;
    return 0;
}

struct MetricDef
{
    const char* name;
    const char* unit;
    unsigned workloads = kAll; ///< Where a per-layer metric applies.
};

/** Reported by every workload with --trace 0 (see BENCHMARK.json). */
const std::vector<MetricDef> kEndToEnd = {
    {"latency_p50_ms", "ms"},
    {"throughput_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/**
 * Reported with --trace 1 (see BENCHMARK.json, and the README's layer
 * table for what each one is meant to move). A traced run measures
 * the metrics that apply to its workload and prints the others as 0.
 */
const std::vector<MetricDef> kPerLayer = {
    {"server.handle_serve_p50_us", "us", kServe},
    {"server.handle_serve_p99_us", "us", kServe},
    {"server.wire_p50_us", "us", kServe},
    {"server.busy_rejections", "count", kServe},
    {"server.served_bytes_per_serve", "bytes", kServe},
    {"protocol.frame_roundtrip_us", "us", kServe},
    {"protocol.serve_frame_bytes", "bytes", kServe},
    {"runtime.serve_1t_p50_us", "us", kServe},
    {"runtime.serve_1t_p99_us", "us", kServe},
    {"runtime.serve_4t_p50_us", "us", kServe},
    {"runtime.serve_4t_p99_us", "us", kServe},
    {"runtime.serve_adaptive_p50_us", "us", kConverge},
    {"runtime.prepare_ms", "ms", kAll},
    {"runtime.prewarm_s", "s", kServe | kConverge},
    {"runtime.queue_wait_p99_us", "us", kAll},
    {"runtime.job_run_p50_us", "us", kAll},
    {"runtime.synth_runs", "count", kAll},
    {"runtime.coalesced", "count", kAll},
    {"runtime.hit_rate", "ratio", kAll},
    {"runtime.refine_rounds", "count", kConverge},
    {"cache.get_hit_ns", "ns", kServe | kConverge},
    {"cache.get_hit_4t_ns", "ns", kServe},
    {"cache.put_us", "us", kAll},
    {"cache.fingerprint_us", "us", kAll},
    {"cache.angle_bin_ns", "ns", kServe},
    {"cache.miss_ratio", "ratio", kServe},
    {"cache.evictions_per_serve", "count", kServe},
    {"cache.bytes_in_use_mb", "MiB", kServe},
    {"pulse.serialize_ms", "ms", kDownload},
    {"pulse.deserialize_ms", "ms", kDownload},
    {"pulse.analytic_synth_us", "us", kDownload},
    {"grape.synth_s_w1", "s", kCold},
    {"grape.synth_s_w2", "s", kCold},
    {"grape.synth_s_w3", "s", kCold},
    {"grape.iterations_mean", "count", kCold},
    {"grape.converged_ratio", "ratio", kCold},
    {"grape.fidelity_min", "ratio", kCold},
    {"linalg.expm_us_d4", "us", kCold},
    {"linalg.expm_us_d8", "us", kCold},
    {"linalg.gemm_d8_ns", "ns", kCold},
    {"opt.evals_vqe", "count", kConverge},
    {"opt.evals_qaoa", "count", kConverge},
    {"opt.vqe_converge_s", "s", kConverge},
    {"opt.qaoa_converge_s", "s", kConverge},
    {"opt.vqe_energy_error_ha", "Ha", kConverge},
    {"opt.qaoa_approx_ratio", "ratio", kConverge},
    {"sim.energy_eval_us", "us", kConverge},
    {"sim.cut_eval_us", "us", kConverge},
    {"partial.strict_partition_us", "us", kAll},
    {"partial.pulse_speedup", "ratio", kCold},
    {"transpile.prepare_circuit_ms", "ms", kServe | kCold},
    {"bench.samples", "count", kAll},
    {"bench.gen_late_p99_us", "us", kServe},
    {"bench.latency_p90_ms", "ms", kAll},
    {"bench.latency_p99_ms", "ms", kServe | kConverge},
    {"bench.latency_p999_ms", "ms", kServe | kConverge},
    {"bench.max_rate_at_slo", "1/s", kServe},
    {"telemetry.trace_overhead_pct", "%", kAll},
};

const MetricDef*
findMetric(const std::string& name)
{
    for (const std::vector<MetricDef>* table : {&kEndToEnd, &kPerLayer})
        for (const MetricDef& d : *table)
            if (name == d.name)
                return &d;
    return nullptr;
}

/** Shortest round-trip decimal form of a double. */
std::string
number(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos && colon + 2 <= line.size())
                return line.substr(colon + 2);
        }
    return "unknown";
}

/** Python's statistics.quantiles(data, n=4) (exclusive method). */
std::vector<double>
quartiles(std::vector<double> data)
{
    std::sort(data.begin(), data.end());
    const long ld = static_cast<long>(data.size());
    if (ld < 2)
        return std::vector<double>(3, data.empty() ? 0.0 : data[0]);
    const long n = 4, m = ld + 1;
    std::vector<double> out;
    for (long i = 1; i < n; ++i) {
        long j = i * m / n;
        j = std::clamp(j, 1L, ld - 1);
        const long delta = i * m - j * n;
        out.push_back((data[j - 1] * (n - delta) + data[j] * delta) / n);
    }
    return out;
}

} // namespace

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t
monoNs()
{
    timespec ts;
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        p / 100.0 * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (rank - lo);
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50);
}

void
Report::set(const std::string& name, double value)
{
    if (!findMetric(name)) {
        check(false, "unknown metric " + name);
        return;
    }
    values_[name] = value;
}

bool
Report::wants(const std::string& name) const
{
    const MetricDef* d = findMetric(name);
    return options_.trace && d &&
           (d->workloads & workloadBit(options_.workload)) != 0;
}

void
Report::check(bool ok, const std::string& what)
{
    if (!ok)
        failures_.push_back(what);
}

void
Report::note(const std::string& line)
{
    notes_.push_back(line);
}

int
Report::finish()
{
    const RunOptions& options = options_;
    const std::vector<MetricDef>& table =
        options.trace ? kPerLayer : kEndToEnd;
    const auto applies = [&](const MetricDef& d) {
        return !options.trace || wants(d.name);
    };
    std::string notApplicable;
    for (const MetricDef& d : table) {
        const auto it = values_.find(d.name);
        if (!applies(d)) {
            check(it == values_.end(), std::string("metric ") + d.name +
                                           " does not apply to " +
                                           options.workload);
            notApplicable += std::string(" ") + d.name;
            continue;
        }
        if (it == values_.end()) {
            check(false, std::string("missing metric ") + d.name);
            continue;
        }
        check(std::isfinite(it->second),
              std::string("non-finite metric ") + d.name);
        // End-to-end metrics are compared as ratios of medians, so a
        // zero is an invalid run rather than a value.
        check(options.trace || it->second > 0.0,
              std::string("non-positive end-to-end metric ") + d.name);
    }
    if (!notApplicable.empty())
        note("not applicable to this workload, reported as 0:" +
             notApplicable);
    check(attempted_ > 0, "no operation attempted");
    const bool correct = failures_.empty() && failed_ == 0;

    // The JSON line carries every metric of the mode; the text lines
    // (and so --repeat summaries) only the ones this workload measures.
    std::string metrics, text;
    for (const MetricDef& d : table) {
        const auto it = values_.find(d.name);
        const double v = it != values_.end() && std::isfinite(it->second)
                             ? it->second
                             : 0.0;
        if (!metrics.empty())
            metrics += ", ";
        metrics += jsonString(d.name) + ": {\"value\": " + number(v) +
                   ", \"unit\": " + jsonString(d.unit) + "}";
        if (applies(d))
            text += options.workload + " " + d.name + " " + number(v) +
                    " " + d.unit + "\n";
    }
    const std::string result =
        "{\"correct\": " + std::string(correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(attempted_) +
        ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {" +
        metrics + "}}";

    std::string failures, notes;
    for (const std::string& f : failures_)
        failures += (failures.empty() ? "" : ", ") + jsonString(f);
    for (const std::string& n : notes_)
        notes += (notes.empty() ? "" : ", ") + jsonString(n);
    const std::string stem = options.outDir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             (options.trace ? "-trace" : "");
    std::ofstream(stem + ".json")
        << "{\"workload\": " << jsonString(options.workload)
        << ", \"seed\": " << options.seed
        << ", \"seconds\": " << number(options.seconds)
        << ", \"trace\": " << (options.trace ? "true" : "false")
        << ", \"provenance\": " << provenanceJson(options.gitRev)
        << ", \"failures\": [" << failures << "], \"notes\": [" << notes
        << "], \"result\": " << result << "}\n";
    std::ofstream(stem + ".txt") << text;

    for (const std::string& f : failures_)
        std::fprintf(stderr, "qpcbench: check failed: %s\n", f.c_str());
    std::fputs(text.c_str(), stdout);
    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

std::string
provenanceJson(const std::string& gitRev)
{
    return "{\"git_rev\": " + jsonString(gitRev) +
           ", \"compiler\": " + jsonString("GCC " __VERSION__) +
           ", \"build_type\": " + jsonString(QPC_E2E_BUILD_TYPE) +
           ", \"qpc_native\": " + jsonString(QPC_E2E_NATIVE) +
           ", \"kernels\": " + jsonString(kernels::backendName()) +
           ", \"nproc\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"cpu\": " + jsonString(cpuModel()) + "}";
}

int
summarize(const std::vector<std::string>& files)
{
    // (workload, metric) -> values, in first-seen order.
    std::vector<std::pair<std::string, std::string>> order;
    std::map<std::pair<std::string, std::string>, std::vector<double>>
        values;
    std::map<std::pair<std::string, std::string>, std::string> units;
    for (const std::string& file : files) {
        std::ifstream in(file);
        std::string workload, name, unit;
        double v = 0.0;
        while (in >> workload >> name >> v >> unit) {
            const auto key = std::make_pair(workload, name);
            if (!values.count(key))
                order.push_back(key);
            values[key].push_back(v);
            units[key] = unit;
        }
    }
    std::printf("%-22s %-32s %5s %14s %14s %14s %8s %s\n", "workload",
                "metric", "n", "median", "q1", "q3", "iqr%", "unit");
    for (const auto& key : order) {
        const std::vector<double>& v = values[key];
        const double med = median(v);
        const std::vector<double> q = quartiles(v);
        const double spread =
            med != 0.0 ? 100.0 * (q[2] - q[0]) / std::fabs(med) : 0.0;
        std::printf("%-22s %-32s %5zu %14.6g %14.6g %14.6g %8.2f %s\n",
                    key.first.c_str(), key.second.c_str(), v.size(), med,
                    q[0], q[2], spread, units[key].c_str());
    }
    return order.empty() ? 1 : 0;
}

} // namespace qpc::e2e
