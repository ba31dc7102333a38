#include "runtime/service.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "common/logging.h"
#include "model/timemodel.h"
#include "pulse/device.h"
#include "pulse/library.h"
#include "sim/statevector.h"
#include "telemetry/trace.h"
#include "transpile/blocking.h"

namespace qpc {

namespace {

/** One strict segment's rotation, rebuilt at a representative angle. */
Circuit
rotationAt(const Circuit& gate, double angle)
{
    Circuit snapped(gate.numQubits());
    GateOp op = gate.ops().front();
    op.angle = ParamExpr::constant(angle);
    snapped.add(op);
    return snapped;
}

/** Records the enclosing call's latency on every exit. */
struct LatencyOnExit
{
    LatencyHistogram& hist;
    std::uint64_t start = traceNowNs();
    ~LatencyOnExit()
    {
        const std::uint64_t end = traceNowNs();
        hist.record(end > start ? end - start : 0);
    }
};

/** Analytic library pulse for one local block on a clique device. */
PulseSchedule
analyticPulse(const Circuit& block, double dt)
{
    const DeviceModel device =
        DeviceModel::gmonClique(std::max(1, block.numQubits()));
    const GatePulseLibrary library(device, dt);
    return library.compileCircuit(block);
}

/** One validation for every quantization config entry point: the
 * service-wide default (constructor) and per-plan overrides
 * (prepareServing) must accept exactly the same configs. */
void
validateQuantization(const ParamQuantization& quantization)
{
    fatalIf(quantization.enabled &&
                (quantization.bins <= 0 ||
                 quantization.bins >= AdaptiveAngleGrid::kMaxBaseBins ||
                 quantization.fidelityBudget < 0.0),
            "quantization needs a bin count in [1, 2^24) and a "
            "non-negative fidelity budget");
    fatalIf(quantization.enabled && quantization.adaptive &&
                (quantization.maxRefineDepth <= 0 ||
                 quantization.maxRefineDepth >
                     AdaptiveAngleGrid::kMaxDepth ||
                 quantization.splitVisitThreshold == 0),
            "adaptive quantization needs a refine depth in [1, 32] "
            "and a positive split-visit threshold");
    fatalIf(quantization.enabled && quantization.adaptive &&
                (quantization.visitDecay < 0.0 ||
                 quantization.visitDecay > 1.0),
            "adaptive visit decay must lie in [0, 1]");
}

/** Cache options with the service's starting epoch folded in, so the
 * disk tier adopts (and serves) only records of that calibration. */
PulseCacheOptions
cacheOptionsWithEpoch(PulseCacheOptions cache,
                      const CalibrationEpoch& epoch)
{
    cache.epoch = epoch;
    return cache;
}

} // namespace

BlockSynthesizer
analyticBlockSynthesizer(double dt)
{
    fatalIf(dt <= 0.0, "sample period must be positive");
    return [dt](const Circuit& block) {
        return analyticPulse(block, dt);
    };
}

BlockSynthesizer
grapeBlockSynthesizer(GrapeOptions options)
{
    return [options](const Circuit& block) {
        const double time_ns = PulseTimeModel().blockTimeNs(block);
        // The time model prices identity-like blocks (the Rz(0) grid
        // bin) at 0 ns, which GRAPE cannot run; the library's pulse
        // for them is exact.
        if (time_ns <= 0.0)
            return analyticPulse(block, options.dt);
        const DeviceModel device =
            DeviceModel::gmonClique(std::max(1, block.numQubits()));
        const CMatrix target = circuitUnitary(block);
        const GrapeResult result =
            runGrapeFixedTime(device, target, time_ns, options);
        return result.pulse;
    };
}

CompileService::CompileService(CompileServiceOptions options)
    : options_(std::move(options)),
      cache_(cacheOptionsWithEpoch(options_.cache, options_.epoch)),
      epoch_(options_.epoch),
      pool_(options_.numWorkers, options_.maxQueuedJobs)
{
    fatalIf(options_.maxBlockWidth <= 0,
            "block width cap must be positive");
    validateQuantization(options_.quantization);
    if (!options_.synthesizer)
        options_.synthesizer = analyticBlockSynthesizer(options_.lookupDt);
}

CompileService::~CompileService() = default;

CalibrationEpoch
CompileService::epoch() const
{
    std::lock_guard<std::mutex> lock(epochMu_);
    return epoch_;
}

CalibrationEpoch
CompileService::bumpEpoch(std::uint64_t model_hash)
{
    std::lock_guard<std::mutex> lock(epochMu_);
    epoch_.counter += 1;
    if (model_hash != 0)
        epoch_.modelHash = model_hash;
    return epoch_;
}

void
CompileService::setEpoch(const CalibrationEpoch& epoch)
{
    std::lock_guard<std::mutex> lock(epochMu_);
    epoch_ = epoch;
}

BlockFingerprint
CompileService::fingerprintStamped(const Circuit& block) const
{
    BlockFingerprint fp = fingerprintBlock(block);
    fp.epoch = epoch();
    return fp;
}

CompileService::PulseFuture
CompileService::requestBlock(const Circuit& block, AdmitOutcome* outcome)
{
    return admit(fingerprintStamped(block), block, outcome,
                 /*force_block=*/false);
}

namespace {

CompileService::PulseFuture
readyFuture(PulsePtr pulse)
{
    std::promise<PulsePtr> ready;
    ready.set_value(std::move(pulse));
    return ready.get_future().share();
}

} // namespace

CompileService::PulseFuture
CompileService::admit(const BlockFingerprint& fp, const Circuit& block,
                      AdmitOutcome* outcome, bool force_block)
{
    requests_.fetch_add(1, std::memory_order_relaxed);

    // Optimistic full lookup (memory, then disk) outside the
    // admission lock: disk I/O must never serialize every requester
    // behind inflightMu_.
    if (PulsePtr cached = cache_.get(fp)) {
        cacheHits_.fetch_add(1, std::memory_order_relaxed);
        if (outcome)
            *outcome = AdmitOutcome::CacheHit;
        return readyFuture(std::move(cached));
    }
    return admitAfterMiss(fp, block, outcome, force_block);
}

CompileService::PulseFuture
CompileService::admitAfterMiss(const BlockFingerprint& fp,
                               const Circuit& block,
                               AdmitOutcome* outcome, bool force_block)
{
    // Admission under one lock: join an in-flight synthesis, or
    // re-check the memory tier (the worker inserts there *before*
    // erasing its in-flight entry, so a requester that misses the
    // in-flight map finds the pulse), or start a flight. Together
    // these guarantee at most one synthesis per fingerprint while it
    // stays cached.
    std::unique_lock<std::mutex> lock(inflightMu_);
    auto it = inflight_.find(fp);
    if (it != inflight_.end()) {
        coalesced_.fetch_add(1, std::memory_order_relaxed);
        if (outcome)
            *outcome = AdmitOutcome::Coalesced;
        return it->second;
    }
    if (PulsePtr cached = cache_.peekMemory(fp)) {
        cacheHits_.fetch_add(1, std::memory_order_relaxed);
        if (outcome)
            *outcome = AdmitOutcome::CacheHit;
        return readyFuture(std::move(cached));
    }
    auto completion = std::make_shared<std::promise<PulsePtr>>();
    PulseFuture future = completion->get_future().share();

    // Worker-side ordering: cache.put, then in-flight erase, then
    // promise resolution. Pairs with the admission order above for the
    // at-most-once guarantee, and means a requester arriving after a
    // waiter's get() returns deterministically finds the cache entry
    // rather than a stale in-flight record.
    auto job = [this, fp, block, completion] {
        std::exception_ptr failure;
        PulsePtr pulse;
        try {
            {
                TraceSpan span("synthesis");
                const std::uint64_t t0 = traceNowNs();
                pulse = std::make_shared<const PulseSchedule>(
                    options_.synthesizer(block));
                const std::uint64_t t1 = traceNowNs();
                synthNs_.record(t1 > t0 ? t1 - t0 : 0);
            }
            synthRuns_.fetch_add(1, std::memory_order_relaxed);
            cache_.put(fp, pulse);
        } catch (...) {
            failure = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> guard(inflightMu_);
            inflight_.erase(fp);
        }
        if (failure)
            completion->set_exception(failure);
        else
            completion->set_value(std::move(pulse));
    };

    if (!force_block &&
        options_.queueFullPolicy == QueueFullPolicy::Reject &&
        options_.maxQueuedJobs > 0) {
        // Reserve-or-refuse while still holding inflightMu_: nobody
        // can have coalesced onto this flight yet, so refusing leaves
        // no dangling future behind, and the in-flight entry is
        // published before the job can possibly run and erase it.
        inflight_.emplace(fp, future);
        if (!pool_.trySubmit(std::move(job))) {
            inflight_.erase(fp);
            lock.unlock();
            rejected_.fetch_add(1, std::memory_order_relaxed);
            if (outcome)
                *outcome = AdmitOutcome::Rejected;
            return PulseFuture{};
        }
        lock.unlock();
    } else {
        // Publish the flight, release the lock, then submit: if the
        // bounded queue makes submit() block, concurrent requesters of
        // this fingerprint still coalesce instead of piling onto
        // inflightMu_.
        inflight_.emplace(fp, future);
        lock.unlock();
        if (!pool_.submit(std::move(job))) {
            // The pool stopped (service teardown under load) while
            // this producer awaited queue space. Withdraw the flight
            // and poison the future so callers that already coalesced
            // onto it unblock with an error instead of hanging on a
            // promise nobody will fulfill.
            {
                std::lock_guard<std::mutex> guard(inflightMu_);
                inflight_.erase(fp);
            }
            completion->set_exception(std::make_exception_ptr(
                std::runtime_error("CompileService stopped before the "
                                   "synthesis could be queued")));
            rejected_.fetch_add(1, std::memory_order_relaxed);
            if (outcome)
                *outcome = AdmitOutcome::Rejected;
            // Callers that must deliver get the poisoned-but-valid
            // future (their .get() surfaces the shutdown); shedding
            // callers get the same invalid future as a queue-full
            // rejection.
            return force_block ? future : PulseFuture{};
        }
    }
    if (outcome)
        *outcome = AdmitOutcome::Started;
    return future;
}

PulseSchedule
CompileService::compileBlock(const Circuit& block)
{
    return *admit(fingerprintStamped(block), block, nullptr,
                  /*force_block=*/true)
                .get();
}

void
CompileService::appendFixedEntries(
    const Circuit& segment_circuit,
    std::vector<ServingPlan::FixedEntry>& out) const
{
    const Blocking blocking =
        aggregateBlocks(segment_circuit, options_.maxBlockWidth);
    for (const CircuitBlock& block : blocking.blocks) {
        ServingPlan::FixedEntry entry;
        entry.local = block.asCircuit(segment_circuit);
        entry.fingerprint = fingerprintStamped(entry.local);
        out.push_back(std::move(entry));
    }
}

std::vector<ServingPlan::FixedEntry>
CompileService::collectFixedEntries(const Circuit& template_circuit) const
{
    std::vector<ServingPlan::FixedEntry> entries;
    const StrictPartition partition = strictPartition(template_circuit);
    for (const StrictSegment& segment : partition.segments)
        if (segment.fixed && !segment.circuit.empty())
            appendFixedEntries(segment.circuit, entries);
    return entries;
}

std::vector<Circuit>
CompileService::fixedBlocksOf(const Circuit& template_circuit) const
{
    std::vector<Circuit> blocks;
    for (ServingPlan::FixedEntry& entry :
         collectFixedEntries(template_circuit))
        blocks.push_back(std::move(entry.local));
    return blocks;
}

BatchCompileReport
CompileService::compileEntries(
    const std::vector<ServingPlan::FixedEntry>& entries, int circuits,
    std::chrono::steady_clock::time_point start)
{
    BatchCompileReport report;
    report.circuits = circuits;
    report.totalBlocks = static_cast<int>(entries.size());

    // Dedupe before a single job is enqueued: shared structure (QAOA
    // sweeps over one graph, repeated UCCSD entanglers) collapses
    // here.
    std::unordered_map<BlockFingerprint, const Circuit*,
                       BlockFingerprintHash>
        unique;
    for (const ServingPlan::FixedEntry& entry : entries)
        unique.emplace(entry.fingerprint, &entry.local);
    report.uniqueBlocks = static_cast<int>(unique.size());

    // Per-batch accounting comes from admission outcomes, not from
    // deltas of the service-wide counters: a shared service may be
    // compiling other callers' batches concurrently.
    std::vector<PulseFuture> pending;
    pending.reserve(unique.size());
    for (const auto& [fp, block] : unique) {
        AdmitOutcome outcome = AdmitOutcome::CacheHit;
        // Batch admissions always block for queue space: the report
        // promises every unique block resolves, so backpressure slows
        // the batch down rather than thinning it out.
        pending.push_back(
            admit(fp, *block, &outcome, /*force_block=*/true));
        switch (outcome) {
        case AdmitOutcome::CacheHit:
            ++report.cacheHits;
            break;
        case AdmitOutcome::Started:
            ++report.synthRuns;
            break;
        case AdmitOutcome::Coalesced:
            ++report.coalesced;
            break;
        case AdmitOutcome::Rejected:
            // Only possible when the pool stopped mid-batch (service
            // teardown racing a batch): the admission handed back a
            // poisoned future, so the wait below surfaces the
            // shutdown as an exception rather than a silent undercount.
            break;
        }
    }
    for (PulseFuture& future : pending)
        future.get();

    report.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return report;
}

BatchCompileReport
CompileService::compileBatch(const std::vector<Circuit>& templates)
{
    const auto start = std::chrono::steady_clock::now();
    std::vector<ServingPlan::FixedEntry> entries;
    for (const Circuit& template_circuit : templates)
        for (ServingPlan::FixedEntry& entry :
             collectFixedEntries(template_circuit))
            entries.push_back(std::move(entry));
    return compileEntries(entries, static_cast<int>(templates.size()),
                          start);
}

BatchCompileReport
CompileService::precompileCircuit(const Circuit& template_circuit)
{
    return compileBatch({template_circuit});
}

BatchCompileReport
CompileService::precompilePlan(const ServingPlan& plan)
{
    const auto start = std::chrono::steady_clock::now();
    std::vector<ServingPlan::FixedEntry> entries;
    for (const ServingPlan::PlanSegment& segment : plan.segments_)
        for (const ServingPlan::FixedEntry& entry : segment.blocks)
            entries.push_back(entry);
    return compileEntries(entries, 1, start);
}

BatchCompileReport
CompileService::prewarmQuantizedBins(const ServingPlan& plan)
{
    const auto start = std::chrono::steady_clock::now();
    if (!plan.quant_.enabled) {
        BatchCompileReport report;
        report.wallSeconds = 0.0;
        return report;
    }

    // Enumerate the grid once per distinct snapped circuit: segments
    // sharing a rotation axis (every QAOA mixer Rx, say) collapse in
    // compileEntries' fingerprint dedupe, so the worker pool sees each
    // (axis, bin) exactly once.
    std::vector<ServingPlan::FixedEntry> entries;
    for (const ServingPlan::PlanSegment& segment : plan.segments_) {
        if (!segment.axis)
            continue;
        // Coarse fingerprints are immutable after prepareServing(), so
        // they are read without the axis lock. A bin refinement split
        // still warms: the grid pre-warm is always the coarse grid.
        const ServingPlan::QuantizedAxis& axis = *segment.axis;
        const int bins = axis.grid.baseBins();
        for (int bin = 0; bin < bins; ++bin) {
            ServingPlan::FixedEntry entry;
            entry.fingerprint =
                axis.coarse[static_cast<std::size_t>(bin)].fingerprint;
            entry.local = rotationAt(segment.gate, binAngle(bin, bins));
            entries.push_back(std::move(entry));
        }
    }
    return compileEntries(entries, 1, start);
}

int
ServingPlan::numFixedBlocks() const
{
    int count = 0;
    for (const PlanSegment& segment : segments_)
        if (segment.fixed)
            count += static_cast<int>(segment.blocks.size());
    return count;
}

int
ServingPlan::numParamGates() const
{
    int count = 0;
    for (const PlanSegment& segment : segments_)
        if (!segment.fixed)
            ++count;
    return count;
}

ServingPlan
CompileService::prepareServing(const StrictPartition& partition) const
{
    return prepareServing(partition, options_.quantization);
}

ServingPlan
CompileService::prepareServing(const StrictPartition& partition,
                               const ParamQuantization& quantization)
    const
{
    TraceSpan span("prepare-serving");
    LatencyOnExit timer{prepareNs_};

    // Per-plan overrides (driver knobs) get the same validation the
    // constructor applies to the service-wide default, so an invalid
    // config fails here rather than deep inside the first serve().
    validateQuantization(quantization);
    ServingPlan plan;
    plan.quant_ = quantization;
    // One epoch snapshot for the whole plan: every fingerprint minted
    // below carries it (fingerprintStamped re-reads the live epoch,
    // but a bump mid-prepare only ever advances it, and the plan is
    // keyed by the epoch it records here for drift detection).
    plan.epoch_ = epoch();
    for (const StrictSegment& segment : partition.segments) {
        if (segment.fixed) {
            if (segment.circuit.empty())
                continue;
            ServingPlan::PlanSegment out;
            out.fixed = true;
            appendFixedEntries(segment.circuit, out.blocks);
            plan.segments_.push_back(std::move(out));
        } else {
            // Relabel the lone symbolic rotation to local qubits; its
            // blocking never depends on the binding, so none of this
            // repeats per iteration.
            panicIf(segment.circuit.size() != 1,
                    "non-fixed segment must hold exactly one gate");
            const GateOp& op = segment.circuit.ops().front();
            ServingPlan::PlanSegment out;
            out.fixed = false;
            const int width = op.arity();
            Circuit local(width);
            GateOp relabeled = op;
            relabeled.q0 = 0;
            if (width == 2)
                relabeled.q1 = 1;
            local.add(relabeled);
            out.gate = std::move(local);
            if (!plan.kits_.count(width))
                plan.kits_.emplace(
                    width, std::make_unique<ServingPlan::LookupKit>(
                               width, options_.lookupDt));
            // Fingerprint the whole grid for this axis once: serve()
            // then maps binding -> bin -> address by array index.
            // Segments of one rotation kind share the axis, so their
            // visits feed one refinement state.
            if (quantization.enabled) {
                std::shared_ptr<ServingPlan::QuantizedAxis>& axis =
                    plan.axes_[relabeled.kind];
                if (!axis) {
                    axis = std::make_shared<ServingPlan::QuantizedAxis>();
                    axis->grid = AdaptiveAngleGrid(quantization.bins);
                    axis->gate = out.gate;
                    axis->coarse.resize(
                        static_cast<std::size_t>(quantization.bins));
                    for (int bin = 0; bin < quantization.bins; ++bin)
                        axis->coarse[static_cast<std::size_t>(bin)]
                            .fingerprint = fingerprintStamped(rotationAt(
                            out.gate, binAngle(bin, quantization.bins)));
                }
                out.axis = axis;
            }
            plan.segments_.push_back(std::move(out));
        }
    }
    return plan;
}

ServedPulse
CompileService::serve(const ServingPlan& plan,
                      const std::vector<double>& theta)
{
    LatencyOnExit timer{serveNs_};
    // Tallies accumulate in `served` and reach the shared counters
    // once, on every exit: a serve that throws still counts exactly
    // the segments it processed.
    ServedPulse served;
    struct CountOnExit
    {
        CompileService& service;
        const ServedPulse& s;
        ~CountOnExit()
        {
            const auto add = [](std::atomic<std::uint64_t>& counter,
                                std::uint64_t n) {
                if (n)
                    counter.fetch_add(n, std::memory_order_relaxed);
            };
            // Each segment is one logical "give me this block": a
            // cache probe (hit or miss) or an exact synthesis.
            add(service.requests_, s.cacheHits + s.cacheMisses +
                                       s.quantHits + s.quantMisses +
                                       s.exactServes);
            add(service.cacheHits_, s.cacheHits + s.quantHits);
            add(service.quantHits_, s.quantHits);
            add(service.quantMisses_, s.quantMisses);
            add(service.quantFallbacks_, s.quantFallbacks);
            add(service.exactServes_, s.exactServes);
        }
    } counts{*this, served};

    for (const ServingPlan::PlanSegment& segment : plan.segments_) {
        if (segment.fixed) {
            for (const ServingPlan::FixedEntry& entry : segment.blocks) {
                // Warm path: probe the cache directly — no promise /
                // future machinery for a value that is already there.
                // One logical lookup, counted once: the probe is the
                // only CacheStats lookup (a miss hands the result to
                // admitAfterMiss rather than re-probing).
                PulsePtr pulse;
                {
                    TraceSpan probe("cache-probe");
                    pulse = cache_.get(entry.fingerprint);
                }
                if (pulse) {
                    ++served.cacheHits;
                } else {
                    ++served.cacheMisses;
                    TraceSpan wait("synthesis-wait");
                    pulse = admitAfterMiss(entry.fingerprint,
                                           entry.local, nullptr,
                                           /*force_block=*/true)
                                .get();
                }
                served.pulseNs += pulse->durationNs();
                served.segments.push_back(std::move(pulse));
            }
            continue;
        }
        // A parametrized rotation. Quantized serving snaps the binding
        // onto its axis's grid — the coarse bin, or the refined leaf
        // below it once refinement split that bin — and resolves the
        // representative through the content-addressed cache: one
        // synthesis per bin, ever. It falls back to the exact path
        // when the snap would overdraw the per-gate fidelity budget
        // (or quantization is off): an analytic lookup synthesized per
        // binding, never cached.
        if (segment.axis) {
            const double angle =
                segment.gate.ops().front().angle.bind(theta);
            ServingPlan::QuantizedAxis& axis = *segment.axis;
            const int bins = axis.grid.baseBins();
            const std::int64_t bin = angleBin(angle, bins);
            double representative = binAngle(bin, bins);
            BlockFingerprint fp;
            {
                // Short critical section: read the fingerprint and
                // feed the visit counter that drives refinement.
                // Synthesis and cache traffic stay outside the lock.
                std::lock_guard<std::mutex> lock(axis.mu);
                ServingPlan::QuantizedAxis::CoarseBin& coarse =
                    axis.coarse[static_cast<std::size_t>(bin)];
                if (!coarse.split) {
                    ++coarse.visits;
                    fp = coarse.fingerprint;
                } else {
                    const AdaptiveAngleGrid::Leaf leaf =
                        axis.grid.locate(angle);
                    const auto leaf_it = axis.refined.find(
                        AdaptiveAngleGrid::leafKey(leaf));
                    panicIf(leaf_it == axis.refined.end(),
                            "quantized axis lost a grid leaf");
                    ++leaf_it->second.visits;
                    representative = leaf.representative;
                    fp = leaf_it->second.fingerprint;
                }
            }
            const double bound = quantizationErrorBound(
                wrappedAngleDelta(angle, representative));
            if (bound <= plan.quant_.fidelityBudget) {
                served.quantErrorBound += bound;
                // Same single-probe discipline as the Fixed path.
                PulsePtr pulse;
                {
                    TraceSpan probe("cache-probe");
                    pulse = cache_.get(fp);
                }
                if (pulse) {
                    ++served.quantHits;
                } else {
                    ++served.quantMisses;
                    TraceSpan wait("synthesis-wait");
                    pulse = admitAfterMiss(
                                fp, rotationAt(segment.gate,
                                               representative),
                                nullptr, /*force_block=*/true)
                                .get();
                }
                served.pulseNs += pulse->durationNs();
                served.segments.push_back(std::move(pulse));
                continue;
            }
            ++served.quantFallbacks;
        }
        const auto kit = plan.kits_.find(segment.gate.numQubits());
        panicIf(kit == plan.kits_.end(),
                "serving plan is missing a lookup kit");
        // Per-binding exact synthesis is still one logical "give me
        // this block": counted in `requests`, so hit rates keep an
        // honest denominator under fallback-heavy workloads.
        ++served.exactServes;
        TraceSpan exact("exact-synth");
        PulsePtr pulse = std::make_shared<const PulseSchedule>(
            kit->second->library.compileCircuit(segment.gate.bind(theta)));
        served.pulseNs += pulse->durationNs();
        served.segments.push_back(std::move(pulse));
    }
    return served;
}

ServedPulse
CompileService::serveStrict(const StrictPartition& partition,
                            const std::vector<double>& theta)
{
    const ServingPlan plan = prepareServing(partition);
    return serve(plan, theta);
}

RefinementReport
CompileService::refineQuantizedGrid(const ServingPlan& plan)
{
    const auto start = std::chrono::steady_clock::now();
    RefinementReport report;
    if (!plan.quant_.enabled || !plan.quant_.adaptive)
        return report;
    const ParamQuantization& q = plan.quant_;
    const std::size_t max_leaves =
        q.maxLeavesPerAxis
            ? q.maxLeavesPerAxis
            : static_cast<std::size_t>(q.bins) * 4;

    // Phase 1, per axis: snapshot the hot leaves (enough serve
    // visits, below the depth cap) under the axis lock, then build
    // and fingerprint the candidate children *outside* it — circuit
    // construction and unitary hashing are the expensive part, and
    // serve() must never stall behind them — and finally re-lock to
    // commit the splits. A leaf a concurrent round already split is
    // simply skipped at commit; concurrent serves see either the
    // parent or both children, never a gap in the topology.
    std::vector<ServingPlan::FixedEntry> children;
    std::vector<BlockFingerprint> stale;
    for (const auto& [kind, axis_ptr] : plan.axes_) {
        ServingPlan::QuantizedAxis& axis = *axis_ptr;

        struct Candidate
        {
            Candidate(const AdaptiveAngleGrid::Leaf& leaf,
                      const BlockFingerprint& fingerprint,
                      std::uint64_t heat)
                : parent(leaf), parentFingerprint(fingerprint),
                  visits(heat)
            {
            }
            AdaptiveAngleGrid::Leaf parent;
            BlockFingerprint parentFingerprint;
            std::uint64_t visits = 0;
            ServingPlan::FixedEntry low, high;
            AdaptiveAngleGrid::Leaf lowLeaf, highLeaf;
        };
        std::vector<Candidate> hot;
        {
            std::lock_guard<std::mutex> lock(axis.mu);
            // An unsplit coarse bin is a depth-0 leaf, below any
            // validated refine depth.
            const int bins = axis.grid.baseBins();
            for (int bin = 0; bin < bins; ++bin) {
                const auto& coarse =
                    axis.coarse[static_cast<std::size_t>(bin)];
                if (!coarse.split &&
                    coarse.visits >= q.splitVisitThreshold)
                    hot.emplace_back(axis.grid.locate(binAngle(bin, bins)),
                                     coarse.fingerprint, coarse.visits);
            }
            for (const auto& [key, state] : axis.refined)
                if (state.visits >= q.splitVisitThreshold &&
                    state.leaf.depth < q.maxRefineDepth)
                    hot.emplace_back(state.leaf, state.fingerprint,
                                     state.visits);
            // Cool every leaf *after* the hot snapshot: a leaf that
            // just crossed the threshold still splits this round, but
            // heat the optimizer abandoned stops compounding toward a
            // split it no longer deserves. Runs even when nothing is
            // hot — cooling is about rounds elapsing, not splits.
            const auto cool = [&q](std::uint64_t& visits) {
                visits = static_cast<std::uint64_t>(
                    static_cast<double>(visits) * q.visitDecay);
            };
            for (auto& coarse : axis.coarse)
                cool(coarse.visits);
            for (auto& [key, state] : axis.refined)
                cool(state.visits);
        }
        if (hot.empty())
            continue;
        std::sort(hot.begin(), hot.end(),
                  [](const Candidate& a, const Candidate& b) {
                      if (a.visits != b.visits)
                          return a.visits > b.visits;
                      return AdaptiveAngleGrid::leafKey(a.parent) <
                             AdaptiveAngleGrid::leafKey(b.parent);
                  });
        // Unlocked: childrenOf is pure geometry, and the axis gate
        // circuit is immutable after prepareServing.
        for (Candidate& candidate : hot) {
            const auto [low, high] =
                axis.grid.childrenOf(candidate.parent);
            candidate.lowLeaf = low;
            candidate.highLeaf = high;
            candidate.low.local =
                rotationAt(axis.gate, low.representative);
            candidate.low.fingerprint =
                fingerprintStamped(candidate.low.local);
            candidate.high.local =
                rotationAt(axis.gate, high.representative);
            candidate.high.fingerprint =
                fingerprintStamped(candidate.high.local);
        }
        int split_here = 0;
        {
            std::lock_guard<std::mutex> lock(axis.mu);
            for (Candidate& candidate : hot) {
                if (axis.grid.numLeaves() >= max_leaves)
                    break;
                const AdaptiveAngleGrid::Leaf& parent = candidate.parent;
                auto& coarse =
                    axis.coarse[static_cast<std::size_t>(parent.coarseBin)];
                // Gone = a concurrent round split it first; its
                // children are already installed.
                const bool gone = parent.depth == 0
                                      ? coarse.split
                                      : axis.refined.erase(
                                            AdaptiveAngleGrid::leafKey(
                                                parent)) == 0;
                if (gone)
                    continue;
                coarse.split = true;
                axis.grid.split(parent);
                axis.refined.emplace(
                    AdaptiveAngleGrid::leafKey(candidate.lowLeaf),
                    ServingPlan::QuantizedAxis::LeafState{
                        candidate.lowLeaf, candidate.low.fingerprint});
                axis.refined.emplace(
                    AdaptiveAngleGrid::leafKey(candidate.highLeaf),
                    ServingPlan::QuantizedAxis::LeafState{
                        candidate.highLeaf, candidate.high.fingerprint});
                children.push_back(std::move(candidate.low));
                children.push_back(std::move(candidate.high));
                stale.push_back(candidate.parentFingerprint);
                ++split_here;
            }
        }
        if (split_here > 0) {
            ++report.axesRefined;
            report.leavesSplit += split_here;
        }
    }
    if (report.leavesSplit == 0)
        return report;

    // Phase 2: release the stale parents first — their bytes fund the
    // children under the cache's byte budget — then pre-warm the
    // children through the pool so the next serves hit warm. A parent
    // another axis still references (the shared identity bin) just
    // re-promotes from disk or re-synthesizes on its next touch.
    for (const BlockFingerprint& fp : stale) {
        const std::size_t bytes = cache_.erase(fp);
        if (bytes > 0) {
            ++report.staleReleased;
            report.bytesReleased += bytes;
        }
    }
    const BatchCompileReport prewarm =
        compileEntries(children, 1, start);
    report.binsPrewarmed = prewarm.uniqueBlocks;
    report.synthRuns = prewarm.synthRuns;
    report.cacheHits = prewarm.cacheHits;
    report.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    quantRefineRounds_.fetch_add(1, std::memory_order_relaxed);
    quantSplits_.fetch_add(
        static_cast<std::uint64_t>(report.leavesSplit),
        std::memory_order_relaxed);
    quantStaleReleased_.fetch_add(
        static_cast<std::uint64_t>(report.staleReleased),
        std::memory_order_relaxed);
    quantBytesReleased_.fetch_add(
        static_cast<std::uint64_t>(report.bytesReleased),
        std::memory_order_relaxed);
    return report;
}

AdaptiveGridStats
CompileService::quantizedGridStats(const ServingPlan& plan) const
{
    AdaptiveGridStats out;
    for (const auto& [kind, axis_ptr] : plan.axes_) {
        const ServingPlan::QuantizedAxis& axis = *axis_ptr;
        std::lock_guard<std::mutex> lock(axis.mu);
        ++out.axes;
        out.leaves += axis.grid.numLeaves();
        out.maxDepth = std::max(out.maxDepth, axis.grid.maxDepthInUse());
        out.splits += axis.grid.splits();
        // Any unsplit coarse bin still advertises the coarse worst
        // case: half its half-width, step / 4.
        if (axis.grid.numLeaves() > axis.refined.size())
            out.worstCaseBound = std::max(
                out.worstCaseBound, plan.quant_.stepRadians() / 4.0);
        for (const auto& [key, state] : axis.refined)
            out.worstCaseBound = std::max(out.worstCaseBound,
                                          state.leaf.halfWidth / 2.0);
    }
    return out;
}

Circuit
CompileService::snapServedRotations(const ServingPlan& plan,
                                    const Circuit& symbolic,
                                    const std::vector<double>& theta)
    const
{
    Circuit bound(symbolic.numQubits());
    for (const GateOp& op : symbolic.ops()) {
        GateOp next = op;
        if (gateIsRotation(op.kind)) {
            const double angle = op.angle.bind(theta);
            double value = angle;
            if (plan.quant_.enabled && op.angle.isSymbolic()) {
                const auto axis_it = plan.axes_.find(op.kind);
                panicIf(axis_it == plan.axes_.end(),
                        "serving plan is missing a quantized axis");
                const ServingPlan::QuantizedAxis& axis = *axis_it->second;
                double representative;
                {
                    // Locate only — simulation must not feed the
                    // visit counters serve() already fed for this
                    // binding. An unsplit bin's leaf represents it
                    // with binAngle(), exactly as serve() does.
                    std::lock_guard<std::mutex> lock(axis.mu);
                    representative =
                        axis.grid.locate(angle).representative;
                }
                if (quantizationErrorBound(wrappedAngleDelta(
                        angle, representative)) <=
                    plan.quant_.fidelityBudget)
                    value = representative;
            }
            next.angle = ParamExpr::constant(value);
        }
        bound.add(next);
    }
    return bound;
}

ServiceStats
CompileService::stats() const
{
    ServiceStats out;
    out.requests = requests_.load(std::memory_order_relaxed);
    out.cacheHits = cacheHits_.load(std::memory_order_relaxed);
    out.coalesced = coalesced_.load(std::memory_order_relaxed);
    out.synthRuns = synthRuns_.load(std::memory_order_relaxed);
    out.rejected = rejected_.load(std::memory_order_relaxed);
    out.quantHits = quantHits_.load(std::memory_order_relaxed);
    out.quantMisses = quantMisses_.load(std::memory_order_relaxed);
    out.quantFallbacks =
        quantFallbacks_.load(std::memory_order_relaxed);
    out.exactServes = exactServes_.load(std::memory_order_relaxed);
    out.quantRefineRounds =
        quantRefineRounds_.load(std::memory_order_relaxed);
    out.quantSplits = quantSplits_.load(std::memory_order_relaxed);
    out.quantStaleReleased =
        quantStaleReleased_.load(std::memory_order_relaxed);
    out.quantBytesReleased =
        quantBytesReleased_.load(std::memory_order_relaxed);
    return out;
}

ServiceTelemetry
CompileService::telemetry() const
{
    ServiceTelemetry out;
    out.serveNs = serveNs_.snapshot();
    out.prepareNs = prepareNs_.snapshot();
    out.synthNs = synthNs_.snapshot();
    out.queueWaitNs = pool_.queueWaitSnapshot();
    out.jobRunNs = pool_.jobRunSnapshot();
    const CacheTelemetry cache = cache_.telemetry();
    out.cacheGetNs = cache.getNs;
    out.cachePutNs = cache.putNs;
    out.diskReadNs = cache.diskReadNs;
    out.diskWriteNs = cache.diskWriteNs;
    return out;
}

} // namespace qpc
