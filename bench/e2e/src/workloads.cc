/**
 * @file
 * The four workloads. Each one sets up several times (setup_s is the
 * median), measures for the requested seconds, checks its outputs,
 * and reports the end-to-end metrics — or, traced, hands its inputs,
 * its own service and its own measurements to the per-layer replay.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <memory>
#include <mutex>
#include <sched.h>
#include <stdexcept>
#include <unistd.h>

#include "bench.h"
#include "common/rng.h"
#include "daemon.h"
#include "loadgen.h"
#include "model/timemodel.h"
#include "opt/neldermead.h"
#include "partial/strict.h"
#include "qaoa/qaoacircuit.h"
#include "sim/statevector.h"
#include "vqe/hamiltonian.h"
#include "vqe/molecule.h"
#include "vqe/uccsd.h"

namespace qpc::e2e {

namespace {

/** Whether this is a smoke-length run (run.sh --smoke: 1 s). */
bool
smokeLength(const RunOptions& options)
{
    return options.seconds < 5;
}

/** Set-ups per run, whose median is setup_s: `full`, or three at the
 * smoke length. */
int
setupRepeats(const RunOptions& options, int full)
{
    return smokeLength(options) ? 3 : full;
}

/** What distinguishes the two serve workloads. */
struct ServeWorkload
{
    bool wantPulses = false;
    double nominalRate = 0.0; ///< Serves/s of the latency phase.
    double ladderStart = 0.0; ///< First rate-ladder step, serves/s.
    double sloUs = 0.0;       ///< p99 objective of the ladder.
    double stepShare = 0.0;   ///< Ladder step length / --seconds.
    int cacheMb = 0;          ///< Daemon memory budget (0: entries only).
    int oracleReplies = 0;    ///< Downloads the physics oracle checks.
};

constexpr int kServeBins = 1024;

/** A daemon plus one prepared, prewarmed tenant per connection. */
struct ServeRig
{
    std::unique_ptr<Daemon> daemon;
    std::vector<ServeSession> sessions;
    ServeSpec spec;
};

ServeRig
setUpServeRig(const RunOptions& options, const ServeWorkload& w,
              const Circuit& templ, Report& report)
{
    ServeRig rig;
    std::vector<std::string> flags = {
        "--workers=" + std::to_string(options.clients), "--quantize",
        "--bins=" + std::to_string(kServeBins), "--cache-entries=16384"};
    if (w.cacheMb > 0)
        flags.push_back("--cache-mb=" + std::to_string(w.cacheMb));
    rig.daemon = std::make_unique<Daemon>(
        options.serverd, "qpc-" + std::to_string(::getpid()) + ".sock",
        flags);
    if (!rig.daemon->waitReady(10.0))
        throw std::runtime_error("qpc_serverd did not come up");

    ClientOptions copts;
    copts.deadlineMs = 10000; // a wedged server fails, never hangs
    rig.spec.numParams = templ.numParams();
    rig.spec.wantPulses = w.wantPulses;
    for (int k = 0; k < options.clients; ++k) {
        ServeSession s;
        s.client = std::make_unique<CompileClient>(copts);
        if (!s.client->connectUnix(rig.daemon->socket()) ||
            !s.client->hello("tenant-" + std::to_string(k)))
            throw std::runtime_error("tenant connect failed");
        const auto prep = s.client->prepareServing(templ);
        if (!prep)
            throw std::runtime_error("PrepareServing failed: " +
                                     s.client->lastError());
        s.planId = prep->planId;
        const std::uint32_t segments =
            prep->numFixedBlocks + prep->numParamGates;
        report.check(k == 0 || segments == rig.spec.expectedSegments,
                     "tenants disagree on the plan's segment count");
        rig.spec.expectedSegments = segments;
        const auto warm = s.client->prewarm(s.planId);
        if (!warm)
            throw std::runtime_error("Prewarm failed: " +
                                     s.client->lastError());
        // Tenants prewarm one after another, so nothing coalesces:
        // the accounting identity reduces to hits + syntheses.
        report.check(warm->cacheHits + warm->synthRuns ==
                         warm->uniqueBlocks,
                     "prewarm report: cacheHits + synthRuns != "
                     "uniqueBlocks");
        rig.sessions.push_back(std::move(s));
    }
    return rig;
}

void
runServe(const RunOptions& options, const ServeWorkload& w,
         Report& report)
{
    const Circuit raw = buildQaoaCircuit(qaoaServeGraph(), kQaoaServeP);
    const Circuit templ = prepareCircuit(raw);

    std::vector<double> setups;
    ServeRig rig;
    for (int i = 0; i < setupRepeats(options, 15); ++i) {
        if (rig.daemon)
            report.check(rig.daemon->stop(rig.sessions[0].client.get()),
                         "daemon did not shut down cleanly");
        const auto t0 = Clock::now();
        rig = setUpServeRig(options, w, templ, report);
        setups.push_back(secondsSince(t0));
    }

    // Latency at the nominal rate, open loop, over every sample of the
    // phase; then closed-loop saturation throughput. The rate ladder
    // runs in traced runs only (its knee is too noisy on a shared host
    // to gate on).
    const StepResult nominal = runOpenLoop(rig.sessions, rig.spec,
                                           w.nominalRate,
                                           options.seconds * 0.7,
                                           options.seed);
    const StepStats stats = analyzeStep(nominal, w.sloUs);
    std::optional<ServerLayer> server;
    if (options.trace)
        server = scrapeServer(*rig.sessions[0].client, stats.rttP50Us);
    const StepResult saturation =
        runClosedLoop(rig.sessions, rig.spec, options.seconds * 0.2,
                      options.seed * 7919 + 1);
    LadderResult ladder;
    if (options.trace)
        ladder = runLadder(rig.sessions, rig.spec, w.ladderStart, 1.1,
                           std::max(0.1, options.seconds * w.stepShare),
                           2, options.seconds * 0.5, w.sloUs,
                           options.seed * 7919 + 2);

    report.attempted(nominal.attempted + saturation.attempted +
                     ladder.attempted);
    report.failed(nominal.failed + saturation.failed + ladder.failed);
    report.check(nominal.badSegments + saturation.badSegments +
                         ladder.badSegments ==
                     0,
                 "a reply did not carry the plan's segment count");
    char line[200];
    std::snprintf(line, sizeof line,
                  "nominal %.0f/s: %zu samples p50 %.1fus p90 %.1fus "
                  "p99 %.1fus rtt p50 %.1fus gen-late p99 %.1fus; "
                  "saturation %.0f/s",
                  w.nominalRate, stats.samples, stats.p50Us, stats.p90Us,
                  stats.p99Us, stats.rttP50Us, stats.genLateP99Us,
                  saturation.rate);
    report.note(line);
    if (!stats.valid)
        report.note("invalid: the generator, not the server, fell behind "
                    "at the nominal rate");
    for (const StepStats& s : ladder.steps) {
        std::snprintf(line, sizeof line,
                      "ladder %.0f/s: %zu samples p99 %.1fus gen-late "
                      "p99 %.1fus backlog %+.1fus %s%s",
                      s.rate, s.samples, s.p99Us, s.genLateP99Us,
                      s.backlogGrowthUs, s.pass ? "pass" : "FAIL",
                      s.valid ? "" : " (invalid: generator behind)");
        report.note(line);
    }

    // Physics oracle over whole downloads, after the timed phase.
    Rng rng(options.seed * 31 + 7);
    for (int i = 0; i < w.oracleReplies; ++i) {
        const std::vector<double> theta = rng.angles(templ.numParams());
        const auto reply = rig.sessions[0].client->serve(
            rig.sessions[0].planId, theta, /*want_pulses=*/true);
        report.attempted(1);
        if (!reply) {
            report.failed(1);
            continue;
        }
        // qpc_serverd has no width flag: it blocks at the default cap.
        const OracleResult oracle = checkServedSegments(
            templ, theta, reply->pulses,
            CompileServiceOptions{}.maxBlockWidth, kServeBins,
            kAnalyticTolerance);
        report.check(oracle.segments ==
                             static_cast<int>(rig.spec.expectedSegments) &&
                         oracle.worstExcess <= 0.0,
                     "served segment outside its physics bound "
                     "(worst excess " +
                         std::to_string(oracle.worstExcess) + ")");
    }

    const double rss = rig.daemon->peakRssMb();
    report.check(rig.daemon->stop(rig.sessions[0].client.get()),
                 "daemon did not shut down cleanly");

    report.set("latency_p50_ms", stats.p50Us / 1e3);
    report.set("throughput_per_s", saturation.rate);
    report.set("setup_s", median(setups));
    report.set("peak_rss_mb", rss);
    if (!options.trace)
        return;

    report.set("bench.samples", static_cast<double>(stats.samples));
    report.set("bench.gen_late_p99_us", stats.genLateP99Us);
    report.set("bench.latency_p90_ms", stats.p90Us / 1e3);
    report.set("bench.latency_p99_ms", stats.p99Us / 1e3);
    report.set("bench.latency_p999_ms", stats.p999Us / 1e3);
    report.set("bench.max_rate_at_slo", ladder.maxRateAtSlo);
    report.check(server.has_value(), "Metrics scrape failed");
    ServeReplay in;
    in.raw = raw;
    in.templ = templ;
    in.bins = kServeBins;
    in.wantPulses = w.wantPulses;
    in.cacheBytes = static_cast<std::size_t>(w.cacheMb) << 20;
    in.server = server.value_or(ServerLayer{});
    replayServe(options, in, report);
}

/**
 * GRAPE for the template's Fixed blocks, the analytic library for the
 * rotation grid. Grid bins cannot go through fixed-time GRAPE at the
 * modelled Rz durations: the identity bin Rz(0) is priced at 0 ns,
 * which GRAPE refuses, and the other bins get 1-3 samples and reach
 * fidelities as low as 0.33 (README, "Measured limits"). A Fixed block
 * priced at zero would take the analytic pulse too. Records every
 * synthesized (block, pulse) for the oracle.
 */
struct RecordingSynth
{
    struct Entry
    {
        Circuit block;
        PulseSchedule pulse;
        bool grape = false;
    };
    std::mutex mu;
    std::vector<Entry> entries;
    std::atomic<bool> gridPhase{false};

    BlockSynthesizer
    synthesizer()
    {
        return [this, grape = grapeBlockSynthesizer(),
                analytic = analyticBlockSynthesizer()](const Circuit& b) {
            const bool useGrape =
                !gridPhase.load() && PulseTimeModel().blockTimeNs(b) > 0.0;
            PulseSchedule pulse = useGrape ? grape(b) : analytic(b);
            std::lock_guard<std::mutex> lock(mu);
            entries.push_back({b, pulse, useGrape});
            return pulse;
        };
    }
};

void
checkBatch(Report& report, const BatchCompileReport& r, const char* what)
{
    report.check(r.cacheHits + r.synthRuns + r.coalesced ==
                     static_cast<std::uint64_t>(r.uniqueBlocks),
                 std::string(what) +
                     ": cacheHits + synthRuns + coalesced != "
                     "uniqueBlocks");
}

/** The LiH cold compile's grid: 32 bins per 2 pi. */
constexpr int kColdGridBins = 32;

/** A cold compile's set-up: the template, a fresh service and cache
 * (GRAPE, width cap 3), and the serving plan. */
struct ColdRig
{
    Circuit templ;
    std::unique_ptr<RecordingSynth> rec; // outlives the service
    std::unique_ptr<CompileService> service;
    ServingPlan plan;
};

ColdRig
setUpCold(int workers)
{
    ColdRig rig;
    rig.templ = moleculeTemplate("LiH");
    rig.rec = std::make_unique<RecordingSynth>();
    CompileServiceOptions o;
    o.numWorkers = workers;
    o.maxBlockWidth = 3;
    o.synthesizer = rig.rec->synthesizer();
    o.quantization.enabled = true;
    o.quantization.bins = kColdGridBins;
    o.cache.capacity = 1 << 16;
    rig.service = std::make_unique<CompileService>(o);
    rig.plan = rig.service->prepareServing(strictPartition(rig.templ));
    return rig;
}

/** One cold compile on a fresh rig: the plan's Fixed blocks, then its
 * grid, both checked. Returns the wall time in seconds. */
double
coldCompile(ColdRig& rig, Report& report)
{
    const auto t0 = Clock::now();
    const BatchCompileReport fixed = rig.service->precompilePlan(rig.plan);
    rig.rec->gridPhase = true;
    const BatchCompileReport grid =
        rig.service->prewarmQuantizedBins(rig.plan);
    const double seconds = secondsSince(t0);
    checkBatch(report, fixed, "LiH precompile");
    checkBatch(report, grid, "LiH grid prewarm");
    report.check(fixed.synthRuns ==
                         static_cast<std::uint64_t>(fixed.uniqueBlocks) &&
                     grid.synthRuns ==
                         static_cast<std::uint64_t>(grid.uniqueBlocks),
                 "a cold compile found something already cached");
    report.attempted(1);
    return seconds;
}

/**
 * setup_s of the cold workload. A set-up is well under a millisecond
 * of mostly single-threaded work, and the cores of a shared host
 * differ in speed by up to a third (a busy hyperthread sibling or
 * not), so a median taken on whichever core the thread happens to sit
 * on jumps between runs. The set-ups rotate over every core the
 * process may use; the result is the mean over cores of each core's
 * median. The original affinity is restored before returning.
 */
double
coldSetupSeconds(const RunOptions& options)
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        throw std::runtime_error("sched_getaffinity failed");
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed))
            cpus.push_back(c);
    std::vector<std::vector<double>> perCpu(cpus.size());
    const int repeats = setupRepeats(options, 51);
    for (int i = 0; i < repeats; ++i)
        for (std::size_t k = 0; k < cpus.size(); ++k) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpus[k], &one);
            if (::sched_setaffinity(0, sizeof one, &one) != 0)
                throw std::runtime_error("sched_setaffinity failed");
            const auto t0 = Clock::now();
            const ColdRig rig = setUpCold(options.clients);
            perCpu[k].push_back(secondsSince(t0));
        }
    if (::sched_setaffinity(0, sizeof allowed, &allowed) != 0)
        throw std::runtime_error("cannot restore the CPU affinity");
    double sum = 0.0;
    for (const std::vector<double>& v : perCpu)
        sum += median(v);
    return sum / static_cast<double>(cpus.size());
}

void
runLihCold(const RunOptions& options, Report& report)
{
    const double setup = coldSetupSeconds(options);

    // Cold compiles, each on a fresh service and cache, while the next
    // one should still end in time: at least two, or one at the smoke
    // length.
    std::vector<double> compiles;
    ColdRig rig;
    const auto start = Clock::now();
    const std::size_t least = smokeLength(options) ? 1 : 2;
    while (compiles.size() < least ||
           secondsSince(start) + compiles.back() <= options.seconds) {
        rig.service.reset(); // joins its workers before their recorder
        rig = setUpCold(options.clients);
        compiles.push_back(coldCompile(rig, report));
    }

    // Physics oracle over every pulse of the last compile: GRAPE pulses
    // against the fidelity floor, grid bins against the analytic
    // tolerance, each on the block it was synthesized for.
    double grapeMin = 1.0, analyticWorst = 0.0;
    int grapePulses = 0;
    for (const RecordingSynth::Entry& e : rig.rec->entries) {
        const double d =
            unitaryDistance(circuitUnitary(e.block),
                            realizedUnitary(e.pulse, e.block.numQubits()));
        if (e.grape) {
            grapeMin = std::min(grapeMin, 1.0 - d * d);
            ++grapePulses;
        } else {
            analyticWorst = std::max(analyticWorst, d);
        }
    }
    report.check(grapePulses > 0 && grapeMin >= kGrapeFidelityFloor,
                 "GRAPE pulse below the fidelity floor (fidelity " +
                     std::to_string(grapeMin) + ")");
    report.check(analyticWorst <= kAnalyticTolerance,
                 "grid-bin pulse outside its physics tolerance "
                 "(distance " +
                     std::to_string(analyticWorst) + ")");
    report.note(std::to_string(grapePulses) +
                " GRAPE pulses, fidelity min " + std::to_string(grapeMin) +
                "; grid-bin distance max " + std::to_string(analyticWorst));
    for (double c : compiles)
        report.note("cold compile " + std::to_string(c) + " s");

    // Latency is per cold compile.
    double total = 0.0;
    for (double c : compiles)
        total += c;
    report.set("latency_p50_ms", median(compiles) * 1e3);
    report.set("throughput_per_s", compiles.size() / total);
    report.set("setup_s", setup);
    report.set("peak_rss_mb", peakRssMb("/proc/self/status"));
    if (!options.trace)
        return;

    report.set("bench.samples", static_cast<double>(compiles.size()));
    // With a handful of compiles a run, the p90 sits near the slowest.
    report.set("bench.latency_p90_ms", percentile(compiles, 90) * 1e3);
    ColdReplay in;
    in.raw = buildUccsdAnsatz(moleculeByName("LiH"));
    in.templ = rig.templ;
    in.service = rig.service.get();
    in.compile = [&] {
        ColdRig fresh = setUpCold(options.clients);
        coldCompile(fresh, report);
    };
    in.grapeFidelityMin = grapeMin;
    replayCold(options, in, report);
}

/** A converge run on the shared service: adaptive quantization and
 * `threads` evaluation workers, started from `seed`. */
VqeRunOptions
convergeVqeOptions(CompileService& service, int threads, std::uint64_t seed)
{
    VqeRunOptions v;
    v.compileService = &service;
    v.quantization = convergeQuantization();
    v.optimizerThreads = threads;
    v.seed = seed;
    return v;
}

QaoaRunOptions
convergeQaoaOptions(CompileService& service, int threads,
                    std::uint64_t seed)
{
    QaoaRunOptions q;
    q.p = kQaoaConvergeP;
    q.compileService = &service;
    q.quantization = convergeQuantization();
    q.optimizerThreads = threads;
    q.seed = seed;
    return q;
}

void
runConverge(const RunOptions& options, Report& report)
{
    const MoleculeSpec& spec = moleculeByName("BeH2");
    std::vector<double> setups;
    Circuit ansatz;
    PauliHamiltonian hamiltonian;
    std::unique_ptr<CompileService> service;
    for (int i = 0; i < setupRepeats(options, 15); ++i) {
        service.reset();
        const auto t0 = Clock::now();
        ansatz = buildOptimizedUccsd(spec);
        hamiltonian = moleculeHamiltonian(spec);
        CompileServiceOptions o;
        o.numWorkers = options.clients;
        o.cache.capacity = 1 << 16;
        service = std::make_unique<CompileService>(o);
        // The shared service starts with both templates' Fixed blocks
        // compiled, as a long-lived optimizer host would.
        checkBatch(report, service->precompileCircuit(ansatz),
                   "BeH2 precompile");
        checkBatch(report,
                   service->precompileCircuit(buildQaoaCircuit(
                       qaoaConvergeGraph(), kQaoaConvergeP)),
                   "QAOA precompile");
        setups.push_back(secondsSince(t0));
    }

    // A fixed suite of starting points (eight at the full length, one
    // at the smoke length), so every seed converges the same runs; the
    // seed only rotates their order.
    const int suite = std::clamp(
        static_cast<int>(std::lround(options.seconds * 0.8)), 1, 8);
    std::vector<double> pairs, vqeTimes, qaoaTimes, iterationMs;
    // The hybrid loop's step: wall time between consecutive optimizer
    // iterations (serve + simulate of every evaluation in the step).
    const auto timeIterations = [&iterationMs](NelderMeadOptions& nm) {
        nm.onIteration = [&iterationMs, last = std::uint64_t{0}](
                             const NelderMeadIterationInfo&) mutable {
            const std::uint64_t now = monoNs();
            if (last)
                iterationMs.push_back((now - last) / 1e6);
            last = now;
        };
    };
    ConvergeReplay in;
    const auto start = Clock::now();
    double suiteSeconds = 0.0;
    do {
        const auto suiteStart = Clock::now();
        for (int i = 0; i < suite; ++i) {
            const std::uint64_t startSeed =
                (options.seed + static_cast<std::uint64_t>(i)) % suite;
            VqeRunOptions v =
                convergeVqeOptions(*service, options.clients, startSeed);
            timeIterations(v.optimizer);
            const auto t0 = Clock::now();
            const VqeResult vqe = runVqe(ansatz, hamiltonian, v);
            const double tv = secondsSince(t0);

            QaoaRunOptions q =
                convergeQaoaOptions(*service, options.clients, startSeed);
            timeIterations(q.optimizer);
            const auto t1 = Clock::now();
            const QaoaResult qaoa = runQaoa(qaoaConvergeGraph(), q);
            const double tq = secondsSince(t1);

            pairs.push_back(tv + tq);
            vqeTimes.push_back(tv);
            qaoaTimes.push_back(tq);
            char line[160];
            std::snprintf(line, sizeof line,
                          "start %llu: vqe %.3fs %d evals, qaoa %.3fs "
                          "%d evals",
                          static_cast<unsigned long long>(startSeed), tv,
                          vqe.iterations, tq, qaoa.iterations);
            report.note(line);
            report.attempted(2);
            // Variational principle: no honest simulation of the
            // served (snapped) circuit can undercut the ground state.
            report.check(vqe.energy >=
                             vqe.exactGroundEnergy - kEnergySlackHa,
                         "VQE energy below the exact ground state");
            report.check(qaoa.approxRatio > 0.0 &&
                             qaoa.approxRatio <= 1.0 + 1e-9,
                         "QAOA approximation ratio outside (0, 1]");
            report.check(vqe.servedCacheMisses == 0 &&
                             qaoa.servedCacheMisses == 0,
                         "a converge run missed a precompiled block");
            in.vqeEnergyErrorHa += vqe.energy - vqe.exactGroundEnergy;
            in.qaoaApproxRatio += qaoa.approxRatio;
            in.evalsVqe += vqe.iterations;
            in.evalsQaoa += qaoa.iterations;
            in.refineRounds += vqe.quantRefineRounds +
                               qaoa.quantRefineRounds;
        }
        suiteSeconds = secondsSince(suiteStart);
    } while (secondsSince(start) + suiteSeconds <= options.seconds);

    // Latency is per optimizer iteration; throughput is whole
    // converge runs (VQE and QAOA each count) per second.
    const double runs = static_cast<double>(pairs.size());
    double total = 0.0;
    for (double p : pairs)
        total += p;
    report.set("latency_p50_ms", median(iterationMs));
    report.set("throughput_per_s", 2.0 * runs / total);
    report.set("setup_s", median(setups));
    report.set("peak_rss_mb", peakRssMb("/proc/self/status"));
    if (!options.trace)
        return;

    report.set("bench.samples", static_cast<double>(iterationMs.size()));
    report.set("bench.latency_p90_ms", percentile(iterationMs, 90));
    report.set("bench.latency_p99_ms", percentile(iterationMs, 99));
    report.set("bench.latency_p999_ms", percentile(iterationMs, 99.9));
    in.ansatz = ansatz;
    in.hamiltonian = hamiltonian;
    in.service = service.get();
    in.evalsVqe /= runs;
    in.evalsQaoa /= runs;
    in.vqeSeconds = median(vqeTimes);
    in.qaoaSeconds = median(qaoaTimes);
    in.vqeEnergyErrorHa /= runs;
    in.qaoaApproxRatio /= runs;
    in.vqeRun = [&] {
        runVqe(ansatz, hamiltonian,
               convergeVqeOptions(*service, options.clients, 0));
    };
    replayConverge(options, in, report);
}

} // namespace

ParamQuantization
convergeQuantization()
{
    ParamQuantization q;
    q.enabled = true;
    q.bins = 64;
    q.adaptive = true;
    return q;
}

double
peakRssMb(const std::string& procStatus)
{
    std::ifstream status(procStatus);
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

void
runWorkload(const RunOptions& options, Report& report)
{
    if (options.workload == "qaoa_warm_lookup") {
        ServeWorkload w;
        w.nominalRate = 8000;
        w.ladderStart = 16000;
        w.sloUs = 500;
        w.stepShare = 0.04;
        runServe(options, w, report);
    } else if (options.workload == "qaoa_pulse_download") {
        ServeWorkload w;
        w.wantPulses = true;
        w.nominalRate = 100;
        w.ladderStart = 200;
        w.sloUs = 25000;
        w.stepShare = 0.1;
        w.cacheMb = 1; // below the ~1.7 MB warm set: evictions
        w.oracleReplies = 2;
        runServe(options, w, report);
    } else if (options.workload == "lih_grape_cold") {
        runLihCold(options, report);
    } else if (options.workload == "vqe_qaoa_converge") {
        runConverge(options, report);
    } else {
        throw std::invalid_argument("unknown workload " +
                                    options.workload);
    }
}

} // namespace qpc::e2e
