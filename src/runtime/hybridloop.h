/**
 * @file
 * The hybrid variational loop both drivers run (Sections 4.1 and 6).
 *
 * Nelder-Mead proposes parameters; with a compile service attached,
 * strict partial compilation serves the pulse program for them by
 * lookup-and-concatenate; the state-vector simulator stands in for
 * the hardware and measures an observable's expectation; repeat.
 * runVqe and runQaoa differ only in their start point, their
 * observable and the answer fields they fill, so everything else —
 * service selection, the one-off pre-compute, the served objective
 * and its accounting, adaptive-grid refinement, the evaluation pool
 * and the final-grid re-serve — lives here once.
 */

#ifndef QPC_RUNTIME_HYBRIDLOOP_H
#define QPC_RUNTIME_HYBRIDLOOP_H

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/quantize.h"
#include "ir/circuit.h"
#include "opt/neldermead.h"
#include "runtime/service.h"
#include "sim/pauli.h"

namespace qpc {

/** Configuration every hybrid-loop run shares (the driver options
 * derive from this and add their own start-point knobs). */
struct HybridLoopOptions
{
    NelderMeadOptions optimizer;      ///< Classical-loop settings.
    /**
     * Workers for batched Nelder-Mead evaluation (the initial simplex
     * and shrinks, which the serial run evaluates too); 0 evaluates
     * serially on the calling thread. The batch layer reduces in slot
     * order and no point is evaluated that the serial run would not
     * evaluate, so the answer, iterations and refinement are
     * bit-identical at every count, 0 included. One exception: when
     * concurrent serves first touch the same cold bin, each counts a
     * quantMiss although one synthesis serves both, so the split
     * between quantHits and quantMisses (not their sum) can vary.
     * Overrides optimizer.evalPool with a run-owned pool.
     */
    int optimizerThreads = 0;
    uint64_t seed = 0;                ///< Start-point seed.
    /**
     * Optional compilation service. When set, the loop pre-compiles
     * the circuit's Fixed blocks through the service before the first
     * iteration, then serves every iteration's pulse program by
     * lookup-and-concatenate — the paper's strict-partial serving
     * path. Null keeps the simulator-only behaviour.
     */
    CompileService* compileService = nullptr;
    /**
     * Alternative to compileService for single-run callers: when set
     * (and compileService is null), the loop constructs a private
     * CompileService with these options for the run — the full knob
     * surface (worker count, cache capacity/capacityBytes, disk tier
     * + maxDiskBytes GC, maxQueuedJobs backpressure, quantization)
     * without managing a service object.
     */
    std::optional<CompileServiceOptions> serviceOptions;
    /**
     * Per-run override of the service's angle quantization (see
     * ParamQuantization): unset inherits the service default, set
     * forces it on or off for this run. When quantization is in
     * effect, the simulated "hardware" executes the *snapped* angles
     * — the circuit the cached pulses actually realize — so the
     * reported value reflects the quantization error honestly. No
     * effect without a service.
     */
    std::optional<ParamQuantization> quantization;
    /**
     * Pre-warm the whole rotation grid through the service's worker
     * pool before the loop, so even the first iterations serve warm
     * (only meaningful with quantization enabled).
     */
    bool prewarmQuantizedBins = false;
};

/** What every hybrid-loop run reports besides its answer (the driver
 * results derive from this and add their own answer fields). */
struct HybridLoopResult
{
    std::vector<double> bestParams;
    int iterations = 0;               ///< Objective evaluations.

    /** @name Compile-service accounting (zero without a service)
     *  @{ */
    double precomputeWallSeconds = 0.0; ///< One-off block synthesis.
    int precompiledBlocks = 0;      ///< Unique Fixed blocks compiled.
    uint64_t servedCacheHits = 0;   ///< Warm lookups across the loop.
    uint64_t servedCacheMisses = 0; ///< Cold blocks hit at runtime.
    /** @} */

    /** @name Quantized-serving accounting (zero when disabled)
     *  @{ */
    uint64_t quantHits = 0;       ///< Rotation bins served warm.
    uint64_t quantMisses = 0;     ///< First touches of a bin.
    uint64_t quantFallbacks = 0;  ///< Budget-exceeded exact serves.
    /** Largest per-iteration summed snap error bound observed. */
    double maxQuantErrorBound = 0.0;
    /** @} */

    /** @name Adaptive-grid refinement (zero unless
     *  quantization.adaptive; see CompileService::refineQuantizedGrid)
     *  @{ */
    int quantRefineRounds = 0;    ///< Refinement rounds triggered by
                                  ///< optimizer-movement signals.
    uint64_t quantSplits = 0;     ///< Leaves split across the run.
    uint64_t quantRefineSynths = 0; ///< Child-bin pulses the rounds
                                    ///< pre-warmed.
    uint64_t quantBytesReleased = 0; ///< Stale coarse bytes returned
                                     ///< to the cache byte budget.
    /**
     * Realized summed snap-error bound of serving bestParams on the
     * final grid — the answer's accuracy, which adaptive refinement
     * drives below the fixed grid's. Zero when quantization is off.
     */
    double finalQuantErrorBound = 0.0;
    /** @} */
};

/**
 * Minimize <observable> over `circuit`'s parameters from `start`,
 * filling `result`'s shared fields. Returns the best value: under
 * quantized serving it is re-measured on the final grid, so it and
 * result.finalQuantErrorBound describe the same served pulses.
 */
double runHybridLoop(const Circuit& circuit,
                     const PauliHamiltonian& observable,
                     const std::vector<double>& start,
                     const HybridLoopOptions& options,
                     HybridLoopResult& result);

} // namespace qpc

#endif // QPC_RUNTIME_HYBRIDLOOP_H
