/**
 * @file
 * Parallel, deduplicating, cache-backed pulse compilation service.
 *
 * The paper's economics are amortization: GRAPE-precompile the Fixed
 * blocks of a variational template once, then serve thousands of
 * VQE/QAOA iterations by lookup-and-concatenate. This service is the
 * machinery that makes the "once" cheap and the "thousands" instant:
 *
 *  - content addressing: every block is keyed by its BlockFingerprint,
 *    so identical subcircuits — within one circuit, across the
 *    circuits of a batch, or across process runs via the disk tier —
 *    resolve to one synthesis;
 *  - single flight: concurrent requests for the same fingerprint
 *    coalesce onto one in-flight future; exactly one synthesizer run
 *    happens no matter how many callers race;
 *  - batching: compileBatch() accepts many circuit templates (a QAOA
 *    sweep, a VQE iteration stream), dedupes their Fixed blocks
 *    *across* circuits, and fans the unique remainder out to a worker
 *    pool.
 *
 * The actual pulse synthesis is pluggable (BlockSynthesizer): real
 * GRAPE for production, or the analytic library for fast exact pulses.
 */

#ifndef QPC_RUNTIME_SERVICE_H
#define QPC_RUNTIME_SERVICE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <unordered_map>
#include <vector>

#include <map>
#include <memory>

#include "cache/pulsecache.h"
#include "cache/quantize.h"
#include "grape/grape.h"
#include "ir/circuit.h"
#include "model/calibration.h"
#include "partial/strict.h"
#include "pulse/device.h"
#include "pulse/library.h"
#include "pulse/schedule.h"
#include "runtime/threadpool.h"
#include "telemetry/histogram.h"

namespace qpc {

/** Pulse synthesis backend: local (relabeled) block in, pulse out. */
using BlockSynthesizer = std::function<PulseSchedule(const Circuit&)>;

/** Exact analytic pulses from the gate library (fast, deterministic). */
BlockSynthesizer analyticBlockSynthesizer(double dt = 0.05);

/** Real GRAPE against the block unitary on a clique device. A block the
 * time model prices at 0 ns (an identity, such as the Rz(0) grid bin)
 * gets the exact analytic library pulse instead. */
BlockSynthesizer grapeBlockSynthesizer(GrapeOptions options = {});

/** What happens to a fresh synthesis when the worker queue is full. */
enum class QueueFullPolicy
{
    /**
     * Block the admitting caller until a slot frees (default):
     * concurrent drivers degrade to the pool's throughput. Other
     * requesters of the same fingerprint still coalesce onto the
     * in-flight future without blocking.
     */
    Block,
    /**
     * Refuse immediately: requestBlock() returns an invalid future and
     * reports AdmitOutcome::Rejected, so a latency-sensitive caller
     * can shed load instead of waiting. Batch precompute and serve()
     * always block (they must deliver every pulse they promised).
     */
    Reject,
};

/** How one admission resolved (drives per-batch accounting). */
enum class AdmitOutcome
{
    CacheHit,  ///< Served straight from the cache.
    Coalesced, ///< Joined an already-in-flight synthesis.
    Started,   ///< Started a fresh synthesis.
    Rejected,  ///< Queue full under QueueFullPolicy::Reject.
};

/** Configuration of one CompileService. */
struct CompileServiceOptions
{
    /** Worker threads; 0 = hardware concurrency. */
    int numWorkers = 0;
    /**
     * Bound on queued (not yet executing) synthesis jobs; 0 =
     * unbounded. With a bound, the pool queue length never exceeds it:
     * admissions past the bound either block or are rejected per
     * queueFullPolicy.
     */
    std::size_t maxQueuedJobs = 0;
    /** Overflow behaviour when maxQueuedJobs is reached. */
    QueueFullPolicy queueFullPolicy = QueueFullPolicy::Block;
    /** GRAPE width cap applied when blocking Fixed segments. */
    int maxBlockWidth = 4;
    /** Block synthesis backend; defaults to the analytic library. */
    BlockSynthesizer synthesizer;
    /** Sample period for served parametrized-gate lookups, ns. */
    double lookupDt = 0.05;
    /** Cache sizing/placement (diskDir enables persistence). */
    PulseCacheOptions cache;
    /**
     * Angle-quantized caching of Parametrized blocks on the serve
     * path (see cache/quantize.h). Disabled by default: serve()
     * synthesizes every rotation binding exactly. Enabled, each
     * binding snaps to a fidelity-bounded grid bin and resolves
     * through the content-addressed cache, so a warm grid turns the
     * per-iteration hot path into pure lookups.
     */
    ParamQuantization quantization;
    /**
     * Calibration epoch the service starts in. Every fingerprint the
     * service mints is stamped with the *current* epoch (see
     * bumpEpoch()), so cached pulses are keyed to the device
     * calibration they were synthesized against. The zero epoch (the
     * default) keeps legacy keying. Also forwarded into the cache's
     * options so disk-tier adoption honours it.
     */
    CalibrationEpoch epoch;
};

/** Service-level counters, snapshotted by CompileService::stats(). */
struct ServiceStats
{
    /** Block lookups: requestBlock()/batch admissions, serve()'s
     * direct warm-path probes, *and* serve()'s per-binding exact
     * rotation syntheses (fallbacks / quantization off) — every
     * logical "give me this block", so hit rates keep an honest
     * denominator even under fallback-heavy workloads. */
    std::uint64_t requests = 0;
    std::uint64_t cacheHits = 0;  ///< Served straight from the cache.
    std::uint64_t coalesced = 0;  ///< Joined an in-flight synthesis.
    std::uint64_t synthRuns = 0;  ///< Synthesizer invocations.
    std::uint64_t rejected = 0;   ///< Admissions shed by backpressure.
    /** Parametrized rotations served by per-binding exact synthesis:
     * budget fallbacks plus quantization-off lookup serving. Counted
     * in `requests` too (they used to bypass it, skewing hit rates). */
    std::uint64_t exactServes = 0;

    /** @name Quantized parametric serving (zero when disabled)
     *  @{ */
    std::uint64_t quantHits = 0;      ///< Rotation bins served warm.
    std::uint64_t quantMisses = 0;    ///< First touches of a bin.
    std::uint64_t quantFallbacks = 0; ///< Budget-exceeded exact serves.
    /** @} */

    /** @name Adaptive grid refinement (zero unless adaptive)
     *  @{ */
    std::uint64_t quantRefineRounds = 0; ///< refineQuantizedGrid calls
                                         ///< that did work.
    std::uint64_t quantSplits = 0;       ///< Leaves split in two.
    std::uint64_t quantStaleReleased = 0; ///< Parent pulses erased.
    std::uint64_t quantBytesReleased = 0; ///< Their bytes, returned to
                                          ///< the cache byte budget.
    /** @} */
};

/**
 * Latency distributions for the serve path, one histogram per phase.
 * Snapshotted by CompileService::telemetry(); all values are
 * nanoseconds. The pool and cache sections are re-exported here so
 * one call sees the whole path.
 */
struct ServiceTelemetry
{
    HistogramSnapshot serveNs;     ///< Whole serve() calls.
    HistogramSnapshot prepareNs;   ///< Whole prepareServing() calls.
    HistogramSnapshot synthNs;     ///< Individual synthesizer runs.
    HistogramSnapshot queueWaitNs; ///< Pool FIFO time-in-queue.
    HistogramSnapshot jobRunNs;    ///< Pool job execution time.
    HistogramSnapshot cacheGetNs;  ///< PulseCache::get() calls.
    HistogramSnapshot cachePutNs;  ///< PulseCache::put() calls.
    HistogramSnapshot diskReadNs;  ///< Disk-tier load attempts.
    HistogramSnapshot diskWriteNs; ///< Disk-tier persists.
};

/** What one batch submission cost and deduplicated. */
struct BatchCompileReport
{
    int circuits = 0;      ///< Templates submitted.
    int totalBlocks = 0;   ///< Fixed blocks before deduplication.
    int uniqueBlocks = 0;  ///< Distinct fingerprints compiled/looked up.
    std::uint64_t synthRuns = 0;  ///< Fresh syntheses this batch.
    std::uint64_t cacheHits = 0;  ///< Admission-time cache hits.
    /** Admissions that joined a synthesis another caller already had
     * in flight (a concurrent batch or serve). Every unique block is
     * accounted exactly once:
     * cacheHits + synthRuns + coalesced == uniqueBlocks. */
    std::uint64_t coalesced = 0;
    double wallSeconds = 0.0;     ///< End-to-end batch wall clock.

    /** Fraction of unique blocks served from cache. */
    double
    hitRate() const
    {
        return uniqueBlocks
                   ? static_cast<double>(cacheHits) / uniqueBlocks
                   : 0.0;
    }
};

/** A warm-path compilation assembled by lookup-and-concatenate. */
struct ServedPulse
{
    /**
     * One pulse per Fixed block / parametrized gate, program order.
     * Cached blocks are shared with the cache (no sample copies);
     * lookup pulses are owned by this result.
     */
    std::vector<PulsePtr> segments;
    /** Serial (concatenated) duration, ns. */
    double pulseNs = 0.0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;

    /** @name Quantized rotation serving (zero when disabled)
     *  @{ */
    std::uint64_t quantHits = 0;      ///< Rotation bins served warm.
    std::uint64_t quantMisses = 0;    ///< Bins synthesized on touch.
    std::uint64_t quantFallbacks = 0; ///< Rotations served exactly
                                      ///< (budget exceeded).
    /** Rotations served by per-binding exact synthesis: the budget
     * fallbacks above plus every rotation when quantization is off. */
    std::uint64_t exactServes = 0;
    /** Summed advertised operator-norm error of every snap served. */
    double quantErrorBound = 0.0;
    /** @} */
};

/** What one adaptive-grid refinement round split, warmed, released. */
struct RefinementReport
{
    int axesRefined = 0;   ///< Axes with at least one split.
    int leavesSplit = 0;   ///< Parent leaves split in two.
    int binsPrewarmed = 0; ///< Unique child representatives admitted
                           ///< through the pool.
    std::uint64_t synthRuns = 0;  ///< Fresh child syntheses paid.
    std::uint64_t cacheHits = 0;  ///< Children already cached (shared
                                  ///< representatives).
    int staleReleased = 0;        ///< Parent pulses erased from memory.
    std::size_t bytesReleased = 0; ///< Their bytes, returned to the
                                   ///< byte budget.
    double wallSeconds = 0.0;     ///< End-to-end round wall clock.
};

/** Snapshot of one plan's quantized grids (all axes pooled). */
struct AdaptiveGridStats
{
    int axes = 0;             ///< Quantized rotation axes.
    std::size_t leaves = 0;   ///< Served leaves across all axes.
    int maxDepth = 0;         ///< Deepest refinement anywhere.
    std::uint64_t splits = 0; ///< Lifetime splits across all axes.
    /** Largest per-rotation snap bound any current leaf can realize
     * (max over leaves of halfWidth / 2). */
    double worstCaseBound = 0.0;
};

/**
 * The iteration-invariant half of serving one strict partition,
 * computed once by CompileService::prepareServing(): Fixed segments
 * are blocked and fingerprinted up front, parametrized rotations are
 * relabeled to local qubits with their device/library pair built, and
 * each quantized rotation axis gets one grid (a fixed grid is that grid
 * with refinement off), so serve() in the hybrid-loop hot path does
 * nothing but cache lookups, one angle binding per rotation, and
 * concatenation.
 */
class ServingPlan
{
  public:
    ServingPlan() = default;

    /** Pre-fingerprinted Fixed blocks, across all Fixed segments. */
    int numFixedBlocks() const;
    /** Parametrized rotations served by analytic lookup. */
    int numParamGates() const;
    /** Effective quantization config this plan serves under. */
    const ParamQuantization& quantization() const { return quant_; }
    /** Calibration epoch captured at prepareServing(): every
     * fingerprint in this plan is stamped with it, so the plan keeps
     * serving its own epoch's pulses even after the service bumps. */
    const CalibrationEpoch& epoch() const { return epoch_; }

  private:
    friend class CompileService;

    /** A device and its pulse library with stable addresses (the
     * library holds a reference to the device). */
    struct LookupKit
    {
        LookupKit(int width, double dt)
            : device(DeviceModel::gmonClique(width)), library(device, dt)
        {
        }
        DeviceModel device;
        GatePulseLibrary library;
    };

    struct FixedEntry
    {
        BlockFingerprint fingerprint;
        Circuit local;
    };

    /**
     * Mutable per-axis state of the quantized path, one per rotation
     * kind: the grid, each coarse bin's fingerprint and serve visits,
     * and the leaves below bins that refinement split. Guarded by
     * `mu`, so refineQuantizedGrid() splits leaves in place while
     * other threads serve. Held by shared_ptr so the state survives
     * plan moves and stays mutable behind serve()'s const plan.
     */
    struct QuantizedAxis
    {
        struct CoarseBin
        {
            BlockFingerprint fingerprint; ///< Immutable after prepare.
            std::uint64_t visits = 0;     ///< Serves while unsplit.
            bool split = false; ///< Serves descend into `refined`.
        };
        struct LeafState
        {
            AdaptiveAngleGrid::Leaf leaf;
            BlockFingerprint fingerprint;
            std::uint64_t visits = 0;
        };
        mutable std::mutex mu;
        AdaptiveAngleGrid grid;
        /** The axis's relabeled local rotation (angle rebound per
         * representative when synthesizing leaves). */
        Circuit gate;
        /** Indexed by angleBin(): an unsplit bin needs no hashing. */
        std::vector<CoarseBin> coarse;
        /** Leaves below split bins, by AdaptiveAngleGrid::leafKey. */
        std::unordered_map<std::uint64_t, LeafState> refined;
    };

    struct PlanSegment
    {
        bool fixed = true;
        /** Fixed path: pre-fingerprinted local blocks. */
        std::vector<FixedEntry> blocks;
        /** Lookup path: the symbolic rotation, relabeled local. */
        Circuit gate;
        std::shared_ptr<QuantizedAxis> axis; ///< Null unless quantized.
    };

    std::vector<PlanSegment> segments_;
    /** One kit per distinct rotation width (stable addresses). */
    std::map<int, std::unique_ptr<LookupKit>> kits_;
    /** Quantization config captured at prepareServing() time. */
    ParamQuantization quant_;
    /** Calibration epoch captured at prepareServing() time. */
    CalibrationEpoch epoch_;
    /** One axis per quantized rotation kind (empty when quantization
     * is off). Coarse fingerprints are minted once at prepare time:
     * hashing a snapped unitary per serve would cost more than the
     * exact lookup it replaces. */
    std::map<GateKind, std::shared_ptr<QuantizedAxis>> axes_;
};

/**
 * The compilation service. Thread-safe; one instance is meant to be
 * shared by every driver thread of a process.
 */
class CompileService
{
  public:
    /** Resolved compilation: a shared handle on the cached pulse. */
    using PulseFuture = std::shared_future<PulsePtr>;

    explicit CompileService(CompileServiceOptions options = {});
    /** Joins the worker pool after draining queued syntheses. */
    ~CompileService();

    CompileService(const CompileService&) = delete;
    CompileService& operator=(const CompileService&) = delete;

    /**
     * Request one bound block. Returns immediately with a future that
     * resolves from cache, an in-flight duplicate, or a fresh worker
     * synthesis — in that order of preference. Under
     * QueueFullPolicy::Reject with a full queue, returns an *invalid*
     * future (future.valid() == false) and reports
     * AdmitOutcome::Rejected through `outcome`; under the default
     * Block policy it may block for queue space instead.
     */
    PulseFuture requestBlock(const Circuit& block,
                             AdmitOutcome* outcome = nullptr);

    /** Blocking convenience wrapper around requestBlock(); always
     * waits for queue space regardless of the overflow policy. */
    PulseSchedule compileBlock(const Circuit& block);

    /**
     * Pre-compile the Fixed blocks of many circuit templates at once,
     * deduplicating across circuits before fanning out to workers.
     * Blocks until every unique block's pulse is available.
     */
    BatchCompileReport
    compileBatch(const std::vector<Circuit>& templates);

    /** compileBatch() of one template. */
    BatchCompileReport precompileCircuit(const Circuit& template_circuit);

    /**
     * Pre-compile the Fixed blocks of an already-prepared serving
     * plan, reusing its blocking and fingerprints — the recommended
     * driver sequence is prepareServing() once, precompilePlan() once,
     * then serve() per iteration, so the template is partitioned and
     * fingerprinted exactly once.
     */
    BatchCompileReport precompilePlan(const ServingPlan& plan);

    /**
     * Precompute the iteration-invariant serving work for one strict
     * partition (blocking, fingerprints, lookup libraries). Do this
     * once before a hybrid loop; the plan stays valid for the
     * service's lifetime. The plan captures the service's quantization
     * config; the second overload overrides it per plan (drivers use
     * this to flip quantization on or off for one run).
     */
    ServingPlan prepareServing(const StrictPartition& partition) const;
    ServingPlan prepareServing(const StrictPartition& partition,
                               const ParamQuantization& quantization)
        const;

    /**
     * Grid pre-warm: synthesize every bin of every rotation axis the
     * plan serves (deduplicated across segments sharing an axis)
     * through the worker pool, so the hybrid loop's very first
     * iterations already hit the quantized cache. A no-op report when
     * the plan's quantization is disabled. Sizing note: the cache must
     * hold bins x distinct-axes entries on top of the Fixed blocks to
     * keep the warmed grid resident.
     */
    BatchCompileReport prewarmQuantizedBins(const ServingPlan& plan);

    /**
     * Warm-path compilation of one parameter binding: cached pulses
     * for the plan's Fixed blocks, analytic lookups for its
     * parametrized rotations. A cold block (evicted or never
     * pre-compiled) is synthesized on the spot and counted as a miss.
     */
    ServedPulse serve(const ServingPlan& plan,
                      const std::vector<double>& theta);

    /**
     * One adaptive-refinement round over a plan prepared with
     * quantization.adaptive: every leaf whose serve visits reached
     * splitVisitThreshold (hottest first, bounded by maxRefineDepth
     * and maxLeavesPerAxis) is split in two, the children's
     * representatives are pre-warmed through the worker pool, and the
     * stale parent pulses are erased from the cache's memory tier —
     * finer resolution exactly where the optimizer is converging,
     * paid for by the coarse entries it no longer serves. Thread-safe
     * against concurrent serve() on the same plan; a no-op report
     * when the plan is not adaptive (or nothing is hot). The VQE/QAOA
     * drivers call this on optimizer-movement signals; services
     * embedded elsewhere can call it on any schedule.
     */
    RefinementReport refineQuantizedGrid(const ServingPlan& plan);

    /** Snapshot of a plan's quantized grids: a plan that never
     * refined reports bins x axes leaves and no splits; zeros when
     * quantization is off. */
    AdaptiveGridStats quantizedGridStats(const ServingPlan& plan) const;

    /**
     * The full-circuit binding the plan's served pulses actually
     * realize: each symbolic rotation snapped to its current grid
     * representative when the per-gate budget admits it (refined
     * leaves included), exact otherwise or when quantization is off —
     * what a driver must simulate so reported energies honestly carry
     * the grid error. Mirrors serve()'s per-gate decisions; on a plan
     * that never refined it equals snapSymbolicRotations()
     * bit-for-bit. Does not count grid visits (only serve() feeds
     * refinement).
     */
    Circuit snapServedRotations(const ServingPlan& plan,
                                const Circuit& symbolic,
                                const std::vector<double>& theta) const;

    /** prepareServing + serve in one shot, for one-off callers. */
    ServedPulse serveStrict(const StrictPartition& partition,
                            const std::vector<double>& theta);

    /** Fixed blocks of a template, relabeled to local qubits. */
    std::vector<Circuit>
    fixedBlocksOf(const Circuit& template_circuit) const;

    /** The calibration epoch fingerprints are currently minted in. */
    CalibrationEpoch epoch() const;

    /**
     * Advance to a new calibration epoch: increments the monotonic
     * counter and (when `model_hash` is nonzero) adopts the new device
     * model hash. Every fingerprint minted afterwards — prepareServing
     * bin tables, batch precompute, serve-path probes — carries the
     * new epoch, so no pre-bump pulse can ever be served through a
     * post-bump plan. Plans prepared before the bump keep serving
     * their captured epoch until their owner re-prepares them (the
     * compile server does this for every live plan on a BumpEpoch
     * frame). Returns the new epoch.
     */
    CalibrationEpoch bumpEpoch(std::uint64_t model_hash = 0);

    /**
     * Adopt an externally determined epoch wholesale — a replica
     * restoring a serving snapshot must mint fingerprints in the
     * snapshot's epoch or its warm disk tier would read as stale.
     * Intended for boot-time use, before plans are prepared.
     */
    void setEpoch(const CalibrationEpoch& epoch);

    ServiceStats stats() const;

    /**
     * Latency distributions across the whole serve path: the
     * service's own phases plus the pool's queueing and the cache's
     * disk tier, assembled into one snapshot so a caller (the server,
     * the bench) reads a consistent picture from a single place.
     */
    ServiceTelemetry telemetry() const;

    CacheStats cacheStats() const { return cache_.stats(); }
    PulseCache& cache() { return cache_; }
    int numWorkers() const { return pool_.numWorkers(); }
    /** Synthesis jobs currently queued (excludes executing ones). */
    std::size_t queueDepth() const { return pool_.queueDepth(); }
    /** High-water mark of the synthesis queue; with maxQueuedJobs set
     * this never exceeds it. */
    std::size_t peakQueueDepth() const
    {
        return pool_.peakQueueDepth();
    }
    const CompileServiceOptions& options() const { return options_; }

  private:
    /**
     * Single-flight admission for a pre-fingerprinted block: one
     * optimistic full cache lookup, then admitAfterMiss(). force_block
     * overrides a Reject overflow policy for callers that must
     * deliver (batch precompute, compileBlock, serve).
     */
    PulseFuture admit(const BlockFingerprint& fp, const Circuit& block,
                      AdmitOutcome* outcome, bool force_block);

    /**
     * Admission after the caller already probed the cache and missed
     * (the probe's CacheStats lookup/miss is the one and only one
     * recorded for this logical request — serve() relies on that).
     * Joins an in-flight synthesis, re-checks the memory tier under
     * the lock, or starts a flight, honoring backpressure.
     */
    PulseFuture admitAfterMiss(const BlockFingerprint& fp,
                               const Circuit& block,
                               AdmitOutcome* outcome, bool force_block);

    /**
     * Block one Fixed segment, relabel to local qubits, fingerprint,
     * and append — the one blocking recipe every path (batch
     * precompute, serving plan) shares, so their addresses always
     * line up.
     */
    void appendFixedEntries(const Circuit& segment_circuit,
                            std::vector<ServingPlan::FixedEntry>& out)
        const;

    /** Blocked, relabeled, fingerprinted Fixed blocks of a template. */
    std::vector<ServingPlan::FixedEntry>
    collectFixedEntries(const Circuit& template_circuit) const;

    /** fingerprintBlock() stamped with the current epoch — the only
     * way this service mints fingerprints. */
    BlockFingerprint fingerprintStamped(const Circuit& block) const;

    /** Dedupe entries by fingerprint, fan out, wait, and report.
     * wallSeconds is measured from `start`. */
    BatchCompileReport
    compileEntries(const std::vector<ServingPlan::FixedEntry>& entries,
                   int circuits,
                   std::chrono::steady_clock::time_point start);

    CompileServiceOptions options_;
    PulseCache cache_;

    /** Guards epoch_ (read on every fingerprint mint, written only by
     * bumpEpoch/setEpoch). */
    mutable std::mutex epochMu_;
    CalibrationEpoch epoch_;

    std::mutex inflightMu_;
    std::unordered_map<BlockFingerprint, PulseFuture,
                       BlockFingerprintHash>
        inflight_;

    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> cacheHits_{0};
    std::atomic<std::uint64_t> coalesced_{0};
    std::atomic<std::uint64_t> synthRuns_{0};
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> quantHits_{0};
    std::atomic<std::uint64_t> quantMisses_{0};
    std::atomic<std::uint64_t> quantFallbacks_{0};
    std::atomic<std::uint64_t> exactServes_{0};
    std::atomic<std::uint64_t> quantRefineRounds_{0};
    std::atomic<std::uint64_t> quantSplits_{0};
    std::atomic<std::uint64_t> quantStaleReleased_{0};
    std::atomic<std::uint64_t> quantBytesReleased_{0};

    /** Whole serve() calls, from plan lookup to ServedPulse. */
    LatencyHistogram serveNs_;
    /** Whole prepareServing() calls (blocking + fingerprinting). */
    mutable LatencyHistogram prepareNs_;
    /** Individual synthesizer runs, measured on the worker. */
    LatencyHistogram synthNs_;

    /** Last member: destroyed first, so draining workers may still
     * touch the cache and the single-flight map above. */
    ThreadPool pool_;
};

} // namespace qpc

#endif // QPC_RUNTIME_SERVICE_H
