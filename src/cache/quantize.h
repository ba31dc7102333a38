/**
 * @file
 * Angle quantization of parametrized rotation blocks.
 *
 * The content-addressed cache (fingerprint.h) amortizes Fixed blocks,
 * but a Parametrized block's angle changes every VQE/QAOA iteration,
 * so PR 2's exact keys never repeat: Rz(0.1001) and Rz(0.1002) are
 * distinct addresses and each pays a fresh synthesis. Parametrized
 * blocks are low-dimensional — in this IR, exactly one single-qubit
 * rotation per strict segment — so a fidelity-bounded angle grid turns
 * the per-iteration hot path into pure cache lookups:
 *
 *  - every bound rotation angle is snapped onto a uniform grid of
 *    `bins` points over one period (step 2*pi/bins), wrap-aware: theta
 *    and theta + 2*pi land in the same bin, and the snapped
 *    representative lives in (-pi, pi] so snapped pulses stay short;
 *  - the snapped block is fingerprinted like any Fixed block, so all
 *    angles of one bin share one cache entry and one synthesis;
 *  - the substitution error is *bounded before serving*: a rotation
 *    exp(-i theta P / 2) snapped by delta differs from the exact
 *    unitary by operator norm 2*sin(|delta|/4) <= |delta|/2 (up to
 *    global phase), and per-rotation bounds add across a block. A
 *    rotation whose own bound exceeds the caller's per-gate fidelity
 *    budget is served by exact synthesis instead.
 */

#ifndef QPC_CACHE_QUANTIZE_H
#define QPC_CACHE_QUANTIZE_H

#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ir/circuit.h"

namespace qpc {

/** Angle-grid configuration of the quantized parametric cache. */
struct ParamQuantization
{
    /** Master switch; disabled keeps the exact per-binding path. */
    bool enabled = false;
    /** Grid points per 2*pi period; step = 2*pi / bins. */
    int bins = 1024;
    /**
     * *Per-gate* budget on the advertised operator-norm error of
     * snapping one rotation (phase-invariant; see
     * quantizationErrorBound). A rotation whose snap would overdraw
     * this is served/simulated at its exact bound angle instead —
     * the same semantic in CompileService::serve() and
     * snapSymbolicRotations(). The default
     * comfortably admits the default grid: one rotation snaps by at
     * most step/4 ~ 1.5e-3.
     */
    double fidelityBudget = 1e-2;

    /** @name Adaptive multi-resolution refinement
     * A converging optimizer visits an ever-narrower neighborhood of
     * the optimum; the adaptive grid hierarchically splits exactly
     * the bins it visits, so late-iteration serves snap onto finer
     * representatives (lower error bound) while unvisited regions
     * never pay for resolution. See AdaptiveAngleGrid and
     * CompileService::refineQuantizedGrid().
     *  @{ */
    /** Let CompileService::refineQuantizedGrid() split leaves (needs
     * `enabled`); off, a plan's grid stays the uniform `bins` grid. */
    bool adaptive = false;
    /**
     * Cap on splits per coarse bin: a leaf at depth d has width
     * step / 2^d, so the finest effective grid is bins * 2^maxRefineDepth
     * points — worst-case snap bound step / 2^(maxRefineDepth + 2).
     */
    int maxRefineDepth = 6;
    /** Serve visits a leaf must accumulate before a refinement round
     * splits it (children restart at zero). */
    std::uint64_t splitVisitThreshold = 8;
    /** Bound on leaves per rotation axis; 0 = 4 * bins. Refinement
     * stops splitting (hottest leaves first) once reached. */
    std::size_t maxLeavesPerAxis = 0;
    /**
     * Optimizer-movement gate used by the VQE/QAOA drivers: a
     * refinement round is triggered only when the optimizer's
     * reported parameter step norm has fallen to or below this (the
     * converging regime where finer bins pay off). <= 0 refines
     * whenever the cooldown allows.
     */
    double refineStepNorm = 0.25;
    /** Minimum optimizer iterations between driver-triggered
     * refinement rounds. */
    int refineCooldown = 5;
    /**
     * Multiplicative decay applied to every leaf's serve-visit counter
     * at the end of each refinement round, in [0, 1]. 1 (default)
     * keeps the legacy accumulate-forever behaviour; below 1, a region
     * the optimizer has moved away from — or whose heat predates an
     * epoch bump — cools off instead of attracting splits forever on
     * stale history. Decay runs after the round's hot-leaf snapshot,
     * so a leaf that just crossed splitVisitThreshold still splits in
     * that round.
     */
    double visitDecay = 1.0;
    /** @} */

    /** Grid spacing in radians. */
    double stepRadians() const;
};

/**
 * One rotation axis's multi-resolution angle grid.
 *
 * Starts as the PR 3 uniform grid: `baseBins` intervals of width
 * step = 2*pi/baseBins, each centered on a grid point (the interval of
 * bin b is [(b-1/2)step, (b+1/2)step), representative b*step — the
 * same representative binAngle() produces, bit-for-bit, so an unsplit
 * leaf's snapped rotation fingerprints identically to the fixed grid
 * and dedupes against an already-warm coarse cache). split() replaces
 * a leaf by its two half-intervals, whose representatives are the
 * half-interval midpoints: a leaf at depth d has width step/2^d and
 * its realized snap is bounded by half that width, so every split
 * halves the worst-case error of the angles that land there.
 *
 * Purely geometric: visit counting, fingerprints, and thread safety
 * live with the owner (see CompileService's serving plans).
 */
class AdaptiveAngleGrid
{
  public:
    /** Hard cap on splits below a coarse bin (keeps the packed leaf
     * key unambiguous and interval arithmetic far from the double
     * mantissa); split() refuses beyond it, and owners must validate
     * their refine-depth knobs against it up front. */
    static constexpr int kMaxDepth = 32;
    /** Coarse bins must fit the 24-bit field of the packed leaf key;
     * owners validate their `bins` knob against this up front. */
    static constexpr int kMaxBaseBins = 1 << 24;

    AdaptiveAngleGrid() = default;
    explicit AdaptiveAngleGrid(int baseBins);

    /** One currently-served interval of the grid. */
    struct Leaf
    {
        std::int64_t coarseBin = 0; ///< Level-0 ancestor, [0, baseBins).
        int depth = 0;              ///< Splits below the coarse bin.
        std::uint64_t path = 0;     ///< Index among the coarse bin's
                                    ///< depth-d descendants, [0, 2^d).
        /** Snap target of the leaf (interval midpoint), wrapped into
         * (-pi, pi]; equals binAngle(coarseBin) at depth 0. */
        double representative = 0.0;
        /** Half the interval width: step / 2^(depth+1). The realized
         * |snap delta| of any angle in the leaf is at most this. */
        double halfWidth = 0.0;
    };

    int baseBins() const { return bins_; }
    /** Leaves currently served (baseBins before any split). */
    std::size_t numLeaves() const { return leaves_; }
    /** Deepest split performed so far (0 = still the uniform grid). */
    int maxDepthInUse() const { return maxDepth_; }
    /** Splits performed over the grid's lifetime. */
    std::uint64_t splits() const { return splits_; }

    /** Stable identity of a leaf (hash/map key for owners). */
    static std::uint64_t leafKey(const Leaf& leaf);

    /** The unique leaf containing theta (wrap-aware, like angleBin). */
    Leaf locate(double theta) const;

    /**
     * The two half-interval children a split of `leaf` would produce
     * ({low, high}), without mutating the grid. Pure geometry — safe
     * to call concurrently with locate()/split() on other threads —
     * so owners can precompute the children's representatives (and
     * their fingerprints) outside any lock before committing the
     * split.
     */
    std::pair<Leaf, Leaf> childrenOf(const Leaf& leaf) const;

    /**
     * Split a leaf into its two half-interval children (returned
     * {low, high}); the leaf stops being served. Panics when the leaf
     * is already split or stale — owners must pass leaves of the
     * current topology.
     */
    std::pair<Leaf, Leaf> split(const Leaf& leaf);

  private:
    Leaf makeLeaf(std::int64_t coarseBin, int depth,
                  std::uint64_t path) const;

    int bins_ = 0;
    std::size_t leaves_ = 0;
    int maxDepth_ = 0;
    std::uint64_t splits_ = 0;
    /** Internal (split) nodes, by leafKey of the node. */
    std::unordered_set<std::uint64_t> split_;
};

/**
 * Wrap-aware bin of an angle: round(theta / step) reduced mod bins,
 * always in [0, bins). theta and theta + 2*pi*k share a bin for every
 * integer k, and angles straddling the +/-pi seam round to the same
 * bin from both sides.
 */
std::int64_t angleBin(double theta, int bins);

/**
 * Representative angle of a bin, centered into (-pi, pi] so a snapped
 * rotation never unwinds the long way around (analytic pulse duration
 * grows with |angle|).
 */
double binAngle(std::int64_t bin, int bins);

/** binAngle(angleBin(theta)): idempotent, wrap-aware snapping. */
double snapAngle(double theta, int bins);

/**
 * Signed wrapped distance from the snapped representative to theta,
 * in [-step/2, step/2]: the delta whose rotation the cache substitutes
 * away.
 */
double snapDelta(double theta, int bins);

/**
 * Signed wrapped difference theta - representative, reduced by whole
 * periods into [-pi, pi]: the substitution delta of serving theta by
 * an arbitrary representative (adaptive leaves are not on any uniform
 * grid, so snapDelta's grid form does not apply).
 */
double wrappedAngleDelta(double theta, double representative);

/**
 * Advertised operator-norm error of substituting one rotation snapped
 * by delta, up to global phase: |delta| / 2, an upper bound on the
 * exact distance 2*sin(|delta|/4). Per-rotation bounds add across a
 * block (triangle inequality over the unitary product).
 */
double quantizationErrorBound(double delta);

/**
 * Bind a symbolic template, snapping each parametrized rotation that
 * fits the *per-gate* budget and keeping the exact bound angle
 * otherwise; constant angles (and non-rotation gates) pass through
 * exactly. This is the circuit the quantized serve path's pulses
 * realize, so drivers that simulate "hardware" evaluate the same
 * physics the cache serves. It is the reference for a never-refined
 * plan: CompileService::serve() and snapServedRotations() apply the
 * same bind -> bin -> per-gate budget sequence through the plan's
 * per-axis grids, and an unsplit leaf's representative is this
 * function's snapped angle bit-for-bit.
 */
Circuit snapSymbolicRotations(const Circuit& symbolic,
                              const std::vector<double>& theta,
                              const ParamQuantization& quantization);

} // namespace qpc

#endif // QPC_CACHE_QUANTIZE_H
