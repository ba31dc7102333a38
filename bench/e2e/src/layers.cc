/**
 * @file
 * The traced run's per-layer replay: a workload's own inputs (its
 * template, its grid, its reply shape, its optimizer problems) pushed
 * through the public functions of the layers it exercises, one at a
 * time, every call or batch inside a bench-level span, so the Perfetto
 * file shows the layers side by side and each per-layer metric names
 * one function's cost. Counters and pool telemetry come from the
 * workload's own service where it has one.
 *
 * Times are medians over batches; counts are exact.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <optional>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "bench.h"
#include "cache/fingerprint.h"
#include "cache/pulsecache.h"
#include "common/rng.h"
#include "grape/grape.h"
#include "linalg/expm.h"
#include "linalg/kernels.h"
#include "model/timemodel.h"
#include "partial/compiler.h"
#include "partial/strict.h"
#include "pulse/serialize.h"
#include "qaoa/maxcut.h"
#include "qaoa/qaoacircuit.h"
#include "server/protocol.h"
#include "sim/statevector.h"
#include "telemetry/trace.h"

namespace qpc::e2e {

namespace {

/**
 * A bench-level span: recorded into the Perfetto trace, while the
 * library's own spans stay off inside it (the global switch is on only
 * while the span opens), so the timings it wraps carry no recording
 * cost. telemetry.trace_overhead_pct measures that cost separately.
 */
class LayerSpan
{
  public:
    explicit LayerSpan(const char* name)
        : span_((setTraceEnabled(true), name))
    {
        setTraceEnabled(false);
    }

  private:
    TraceSpan span_;
};

/** Median over `batches` of the mean per-call time of `calls` calls,
 * in nanoseconds. A null span records nothing: worker threads of a
 * multi-threaded phase leave the span to the thread that started it
 * (LayerSpan flips the process-wide switch). */
double
nsPerCall(const char* span, int batches, int calls,
          const std::function<void()>& fn)
{
    std::vector<double> perCall;
    for (int b = 0; b < batches; ++b) {
        std::optional<LayerSpan> s;
        if (span)
            s.emplace(span);
        const std::uint64_t t0 = monoNs();
        for (int i = 0; i < calls; ++i)
            fn();
        perCall.push_back(static_cast<double>(monoNs() - t0) / calls);
    }
    return median(perCall);
}

/** Per-call latencies (us) of fn(i) for i < n, stopping early once
 * `budgetS` seconds have passed; `span` as for nsPerCall. */
std::vector<double>
timedCalls(const char* span, int n, double budgetS,
           const std::function<void(int)>& fn)
{
    std::vector<double> us;
    const auto t0 = Clock::now();
    for (int i = 0; i < n && (i < 16 || secondsSince(t0) < budgetS);
         ++i) {
        std::optional<LayerSpan> s;
        if (span)
            s.emplace(span);
        const std::uint64_t a = monoNs();
        fn(i);
        us.push_back(static_cast<double>(monoNs() - a) / 1e3);
    }
    return us;
}

/**
 * Recording cost of the library's own spans on one unit of the
 * workload's work: `pairs` runs each with the global recorder off and
 * on, alternated to share the host's noise; the percentage more time
 * the median run takes with it on. Runs after the Perfetto file is
 * written, so its spans never crowd the replay's out of the
 * per-thread rings.
 */
double
traceOverheadPct(int pairs, const std::function<void()>& fn)
{
    std::vector<double> off, on;
    for (int i = 0; i < 2 * pairs; ++i) {
        const bool tracing = i % 2 == 1;
        setTraceEnabled(tracing);
        const std::uint64_t t0 = monoNs();
        fn();
        (tracing ? on : off).push_back(static_cast<double>(monoNs() - t0));
        setTraceEnabled(false);
    }
    return 100.0 * (median(on) / median(off) - 1.0);
}

/** Run `body` under the replay's root span, then write the spans to
 * the run's Perfetto file. */
void
traced(const RunOptions& options, Report& report,
       const std::function<void()>& body)
{
    {
        LayerSpan root("qpcbench.replay");
        body();
    }
    const std::string path = options.outDir + "/trace-" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             ".json";
    report.check(dumpTraceJson(path), "cannot write " + path);
    report.note("perfetto trace: " + path);
}

CMatrix
randomHermitian(int dim, Rng& rng)
{
    CMatrix h(dim, dim);
    for (int r = 0; r < dim; ++r)
        for (int c = r; c < dim; ++c) {
            const Complex v(rng.normal(), r == c ? 0.0 : rng.normal());
            h(r, c) = v;
            h(c, r) = std::conj(v);
        }
    return h;
}

/** The ServeOk payload the daemon would send for this reply. */
std::vector<std::uint8_t>
serveOkPayload(const ServedPulse& served, bool wantPulses)
{
    WireWriter w = beginMessage(MsgType::ServeOk);
    w.f64(served.pulseNs);
    w.u64(served.cacheHits);
    w.u64(served.cacheMisses);
    w.u64(served.quantHits);
    w.u64(served.quantMisses);
    w.u64(served.exactServes);
    w.f64(served.quantErrorBound);
    w.u64(0);
    w.u32(static_cast<std::uint32_t>(served.segments.size()));
    if (wantPulses)
        for (const PulsePtr& s : served.segments)
            w.blob(serializePulseSchedule(*s));
    return w.take();
}

/** Echo the payload across a socketpair: writeFrame + readFrame on
 * each end; median round trip in microseconds. */
double
frameRoundTripUs(const std::vector<std::uint8_t>& payload, int reps)
{
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
        return 0.0;
    std::thread echo([fd = fds[1]] {
        while (auto frame = readFrame(fd))
            if (!writeFrame(fd, *frame))
                break;
    });
    std::vector<double> us;
    for (int i = 0; i < reps; ++i) {
        LayerSpan s("protocol.frame_roundtrip");
        const std::uint64_t t0 = monoNs();
        if (!writeFrame(fds[0], payload) || !readFrame(fds[0]))
            break;
        us.push_back(static_cast<double>(monoNs() - t0) / 1e3);
    }
    ::shutdown(fds[0], SHUT_RDWR);
    echo.join();
    ::close(fds[0]);
    ::close(fds[1]);
    return median(us);
}

/** strictPartition and prepareServing of a template, each timed; the
 * plan that results. */
ServingPlan
timedPrepare(const CompileService& svc, const Circuit& templ,
             const std::optional<ParamQuantization>& quantization,
             Report& report)
{
    StrictPartition partition;
    report.set("partial.strict_partition_us",
               nsPerCall("partial.strictPartition", 5, 20, [&] {
                   partition = strictPartition(templ);
               }) / 1e3);
    ServingPlan plan;
    report.set("runtime.prepare_ms",
               nsPerCall("runtime.prepareServing", 5, 1, [&] {
                   plan = quantization
                              ? svc.prepareServing(partition, *quantization)
                              : svc.prepareServing(partition);
               }) / 1e6);
    return plan;
}

/** precompilePlan then prewarmQuantizedBins, timed together and both
 * checked against the accounting identity. */
void
timedPrewarm(CompileService& svc, const ServingPlan& plan, Report& report)
{
    LayerSpan s("runtime.prewarm");
    const auto t0 = Clock::now();
    const BatchCompileReport fixed = svc.precompilePlan(plan);
    const BatchCompileReport bins = svc.prewarmQuantizedBins(plan);
    report.set("runtime.prewarm_s", secondsSince(t0));
    for (const BatchCompileReport* r : {&fixed, &bins})
        report.check(r->cacheHits + r->synthRuns + r->coalesced ==
                         static_cast<std::uint64_t>(r->uniqueBlocks),
                     "replay prewarm: accounting identity broken");
}

/** A service's pool telemetry and lifetime counters. */
void
reportServiceCounters(const CompileService& svc, Report& report)
{
    const ServiceTelemetry tel = svc.telemetry();
    report.set("runtime.queue_wait_p99_us",
               tel.queueWaitNs.percentileNs(99) / 1e3);
    report.set("runtime.job_run_p50_us", tel.jobRunNs.percentileNs(50) / 1e3);
    const ServiceStats stats = svc.stats();
    report.set("runtime.synth_runs", static_cast<double>(stats.synthRuns));
    report.set("runtime.coalesced", static_cast<double>(stats.coalesced));
    report.set("runtime.hit_rate",
               stats.requests ? static_cast<double>(stats.cacheHits) /
                                    stats.requests
                              : 0.0);
}

/**
 * Cache primitives on a template's Fixed blocks: fingerprintBlock,
 * analytic synthesis, PulseCache::put, and hit gets from one thread
 * and, where the workload has concurrent servers, from `threads`.
 */
void
replayCache(const std::vector<Circuit>& blocks, int threads,
            Report& report)
{
    const double n = static_cast<double>(blocks.size());
    std::vector<BlockFingerprint> fps(blocks.size());
    report.set("cache.fingerprint_us",
               nsPerCall("cache.fingerprintBlock", 5, 1, [&] {
                   for (std::size_t i = 0; i < blocks.size(); ++i)
                       fps[i] = fingerprintBlock(blocks[i]);
               }) / 1e3 / n);
    std::vector<PulsePtr> pulses;
    const BlockSynthesizer analytic = analyticBlockSynthesizer();
    const double synthNs = nsPerCall("pulse.analyticSynth", 3, 1, [&] {
        pulses.clear();
        for (const Circuit& b : blocks)
            pulses.push_back(
                std::make_shared<const PulseSchedule>(analytic(b)));
    });
    if (report.wants("pulse.analytic_synth_us"))
        report.set("pulse.analytic_synth_us", synthNs / 1e3 / n);
    PulseCacheOptions copts;
    copts.capacity = 16384;
    PulseCache cache(copts);
    report.set("cache.put_us", nsPerCall("cache.put", 1, 1, [&] {
                   for (std::size_t i = 0; i < fps.size(); ++i)
                       cache.put(fps[i], pulses[i]);
               }) / 1e3 / n);
    if (!report.wants("cache.get_hit_ns"))
        return;
    std::atomic<std::uint64_t> getMisses{0};
    const auto getAll = [&] {
        for (const BlockFingerprint& fp : fps)
            if (!cache.get(fp))
                getMisses.fetch_add(1, std::memory_order_relaxed);
    };
    report.set("cache.get_hit_ns",
               nsPerCall("cache.get", 5, 200, getAll) / n);
    if (report.wants("cache.get_hit_4t_ns")) {
        std::vector<double> getNs(threads);
        LayerSpan span("cache.get_mt");
        std::vector<std::thread> pool;
        for (int k = 0; k < threads; ++k)
            pool.emplace_back([&, k] {
                getNs[k] = nsPerCall(nullptr, 5, 200, getAll) / n;
            });
        for (std::thread& t : pool)
            t.join();
        report.set("cache.get_hit_4t_ns", median(getNs));
    }
    report.check(getMisses.load() == 0, "cache get missed a fresh entry");
}

void
replayTranspile(const Circuit& raw, Report& report)
{
    report.set("transpile.prepare_circuit_ms",
               nsPerCall("transpile.prepareCircuit", 3, 1,
                         [&] { prepareCircuit(raw); }) /
                   1e6);
}

} // namespace

std::optional<ServerLayer>
scrapeServer(CompileClient& client, double rttP50Us)
{
    const std::optional<MetricsSnapshot> snap = client.metrics();
    if (!snap)
        return std::nullopt;
    ServerLayer layer;
    layer.rttP50Us = rttP50Us;
    for (const auto& h : snap->histograms)
        if (h.name == "qpc_server_handle_us{type=\"Serve\"}") {
            layer.handleP50Us = h.histogram.percentileNs(50) / 1e3;
            layer.handleP99Us = h.histogram.percentileNs(99) / 1e3;
        }
    double bytes = 0.0, serves = 0.0;
    for (const auto& c : snap->counters) {
        if (c.name == "qpc_server_busy_rejections_total")
            layer.busyRejections = static_cast<double>(c.value);
        if (c.name.rfind("qpc_tenant_served_bytes_total", 0) == 0)
            bytes += static_cast<double>(c.value);
        if (c.name.rfind("qpc_tenant_serves_total", 0) == 0)
            serves += static_cast<double>(c.value);
    }
    layer.servedBytesPerServe = serves > 0 ? bytes / serves : 0.0;
    return layer;
}

void
replayServe(const RunOptions& options, const ServeReplay& in,
            Report& report)
{
    const int params = in.templ.numParams();
    Rng rng(options.seed * 101 + 9);
    std::vector<std::vector<double>> thetas(2000);
    for (auto& t : thetas)
        t = rng.angles(params);

    // The daemon's service in-process: its worker count, grid, entry
    // cap and byte budget.
    CompileServiceOptions o;
    o.numWorkers = options.clients;
    o.quantization.enabled = true;
    o.quantization.bins = in.bins;
    o.cache.capacity = 16384;
    o.cache.capacityBytes = in.cacheBytes;
    CompileService svc(o);
    ServingPlan plan;

    traced(options, report, [&] {
        report.set("server.handle_serve_p50_us", in.server.handleP50Us);
        report.set("server.handle_serve_p99_us", in.server.handleP99Us);
        report.set("server.wire_p50_us",
                   in.server.rttP50Us - in.server.handleP50Us);
        report.set("server.busy_rejections", in.server.busyRejections);
        report.set("server.served_bytes_per_serve",
                   in.server.servedBytesPerServe);

        plan = timedPrepare(svc, in.templ, {}, report);
        timedPrewarm(svc, plan, report);

        // Warm serves, one thread then `clients` at once (the
        // contention the daemon's sessions put on the same path).
        const CacheStats before = svc.cacheStats();
        ServedPulse sample;
        const std::vector<double> oneThread = timedCalls(
            "runtime.serve", static_cast<int>(thetas.size()), 1.0,
            [&](int i) { sample = svc.serve(plan, thetas[i]); });
        const CacheStats after = svc.cacheStats();
        report.set("runtime.serve_1t_p50_us", percentile(oneThread, 50));
        report.set("runtime.serve_1t_p99_us", percentile(oneThread, 99));
        const double lookups =
            static_cast<double>(after.lookups - before.lookups);
        report.set("cache.miss_ratio",
                   lookups > 0 ? (after.misses - before.misses) / lookups
                               : 0.0);
        report.set("cache.evictions_per_serve",
                   (after.evictions - before.evictions) /
                       static_cast<double>(oneThread.size()));
        report.set("cache.bytes_in_use_mb", after.bytesInUse / 1048576.0);

        const int threads = options.clients;
        std::vector<std::vector<double>> perThread(threads);
        {
            LayerSpan span("runtime.serve_mt");
            std::vector<std::thread> pool;
            for (int k = 0; k < threads; ++k)
                pool.emplace_back([&, k] {
                    perThread[k] = timedCalls(
                        nullptr,
                        static_cast<int>(thetas.size()) / threads, 1.0,
                        [&](int i) {
                            svc.serve(plan, thetas[i * threads + k]);
                        });
                });
            for (std::thread& t : pool)
                t.join();
        }
        std::vector<double> multi;
        for (const auto& v : perThread)
            multi.insert(multi.end(), v.begin(), v.end());
        report.set("runtime.serve_4t_p50_us", percentile(multi, 50));
        report.set("runtime.serve_4t_p99_us", percentile(multi, 99));
        reportServiceCounters(svc, report);

        // Reply shape: serialization and the wire frame of one serve.
        if (in.wantPulses) {
            std::vector<std::vector<std::uint8_t>> records;
            report.set("pulse.serialize_ms",
                       nsPerCall("pulse.serializePulseSchedule", 5, 1, [&] {
                           records.clear();
                           for (const PulsePtr& s : sample.segments)
                               records.push_back(serializePulseSchedule(*s));
                       }) / 1e6);
            report.set("pulse.deserialize_ms",
                       nsPerCall("pulse.deserializePulseSchedule", 5, 1,
                                 [&] {
                                     for (const auto& r : records)
                                         report.check(
                                             deserializePulseSchedule(r)
                                                 .has_value(),
                                             "pulse record did not "
                                             "round-trip");
                                 }) /
                           1e6);
        }
        const std::vector<std::uint8_t> payload =
            serveOkPayload(sample, in.wantPulses);
        report.set("protocol.serve_frame_bytes",
                   static_cast<double>(payload.size()));
        report.set("protocol.frame_roundtrip_us",
                   frameRoundTripUs(payload, in.wantPulses ? 20 : 500));

        replayCache(svc.fixedBlocksOf(in.templ), threads, report);
        double sink = 0.0;
        report.set("cache.angle_bin_ns",
                   nsPerCall("cache.angleBin", 5, 1, [&] {
                       for (const auto& t : thetas)
                           for (double a : t)
                               sink += static_cast<double>(
                                   angleBin(a, in.bins));
                   }) / (thetas.size() * std::max(1, params)));
        report.check(std::isfinite(sink), "angleBin sink");
        replayTranspile(in.raw, report);
    });
    report.set("telemetry.trace_overhead_pct",
               traceOverheadPct(3, [&] {
                   for (int i = 0; i < 300; ++i)
                       svc.serve(plan, thetas[i]);
               }));
}

void
replayCold(const RunOptions& options, const ColdReplay& in, Report& report)
{
    traced(options, report, [&] {
        reportServiceCounters(*in.service, report);
        timedPrepare(*in.service, in.templ, {}, report);
        const std::vector<Circuit> blocks =
            in.service->fixedBlocksOf(in.templ);
        replayCache(blocks, options.clients, report);

        // GRAPE with the service's recipe (fixed time from the pulse
        // time model, default options, the block's clique device) on
        // the first block of each width up to the cap.
        const int widths = in.service->options().maxBlockWidth;
        double iterations = 0.0, converged = 0.0;
        for (int w = 1; w <= widths; ++w) {
            const auto it = std::find_if(
                blocks.begin(), blocks.end(), [&](const Circuit& b) {
                    return b.numQubits() == w &&
                           PulseTimeModel().blockTimeNs(b) > 0.0;
                });
            const std::string metric =
                "grape.synth_s_w" + std::to_string(w);
            report.check(it != blocks.end(), "no block for " + metric);
            if (it == blocks.end())
                continue;
            LayerSpan span("grape.runGrapeFixedTime");
            const GrapeResult r =
                runGrapeFixedTime(DeviceModel::gmonClique(w),
                                  circuitUnitary(*it),
                                  PulseTimeModel().blockTimeNs(*it));
            report.set(metric, r.wallSeconds);
            iterations += r.iterations;
            converged += r.converged ? 1.0 : 0.0;
        }
        report.set("grape.iterations_mean", iterations / widths);
        report.set("grape.converged_ratio", converged / widths);
        report.set("grape.fidelity_min", in.grapeFidelityMin);

        Rng rng(options.seed * 7 + 1);
        for (int dim : {4, 8}) {
            const CMatrix h = randomHermitian(dim, rng);
            report.set("linalg.expm_us_d" + std::to_string(dim),
                       nsPerCall("linalg.expmHermitian", 5, 200, [&] {
                           expmHermitian(h, Complex(0.0, -0.05));
                       }) / 1e3);
        }
        kernels::SoaMatrix a, b, c;
        a.pack(randomHermitian(8, rng));
        b.pack(randomHermitian(8, rng));
        c.resize(8, 8);
        report.set("linalg.gemm_d8_ns",
                   nsPerCall("linalg.gemm", 5, 20000,
                             [&] { kernels::gemm(c, a, b); }));

        // Fig. 5's quantity on this template: gate-based over strict-
        // partial pulse duration.
        const PartialCompiler compiler(in.templ);
        const std::vector<double> bind = rng.angles(in.templ.numParams());
        const double strict =
            compiler.compile(Strategy::StrictPartial, bind).pulseNs;
        report.check(strict > 0.0, "strict-partial pulse has no duration");
        report.set("partial.pulse_speedup",
                   compiler.compile(Strategy::GateBased, bind).pulseNs /
                       strict);
        replayTranspile(in.raw, report);
    });
    report.set("telemetry.trace_overhead_pct",
               traceOverheadPct(1, in.compile));
}

void
replayConverge(const RunOptions& options, const ConvergeReplay& in,
               Report& report)
{
    traced(options, report, [&] {
        reportServiceCounters(*in.service, report);
        report.set("runtime.refine_rounds", in.refineRounds);
        report.set("opt.evals_vqe", in.evalsVqe);
        report.set("opt.evals_qaoa", in.evalsQaoa);
        report.set("opt.vqe_converge_s", in.vqeSeconds);
        report.set("opt.qaoa_converge_s", in.qaoaSeconds);
        report.set("opt.vqe_energy_error_ha", in.vqeEnergyErrorHa);
        report.set("opt.qaoa_approx_ratio", in.qaoaApproxRatio);

        // The adaptive serve path (per-axis locate under a mutex) on a
        // fresh service configured like the suite's.
        Rng rng(options.seed * 3 + 11);
        CompileService fresh(in.service->options());
        const ServingPlan plan =
            timedPrepare(fresh, in.ansatz, convergeQuantization(), report);
        timedPrewarm(fresh, plan, report);
        std::vector<std::vector<double>> thetas(500);
        for (auto& t : thetas)
            t = rng.angles(in.ansatz.numParams());
        report.set("runtime.serve_adaptive_p50_us",
                   percentile(timedCalls("runtime.serve_adaptive", 500, 0.5,
                                         [&](int i) {
                                             fresh.serve(plan, thetas[i]);
                                         }),
                              50));
        replayCache(fresh.fixedBlocksOf(in.ansatz), options.clients,
                    report);

        double sink = 0.0;
        report.set("sim.energy_eval_us",
                   nsPerCall("sim.energy_eval", 5, 20, [&] {
                       StateVector s(in.ansatz.numQubits());
                       s.applyCircuit(in.ansatz.bind(thetas[0]));
                       sink += in.hamiltonian.expectation(s);
                   }) / 1e3);
        const Circuit qaoa =
            buildQaoaCircuit(qaoaConvergeGraph(), kQaoaConvergeP);
        const PauliHamiltonian cost =
            maxcutCostHamiltonian(qaoaConvergeGraph());
        const std::vector<double> gammaBeta = rng.angles(qaoa.numParams());
        report.set("sim.cut_eval_us", nsPerCall("sim.cut_eval", 5, 20, [&] {
                       StateVector s(qaoa.numQubits());
                       s.applyCircuit(qaoa.bind(gammaBeta));
                       sink += cost.expectation(s);
                   }) / 1e3);
        report.check(std::isfinite(sink), "simulator produced a non-finite");
    });
    report.set("telemetry.trace_overhead_pct",
               traceOverheadPct(2, in.vqeRun));
}

} // namespace qpc::e2e
