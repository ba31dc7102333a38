#include "cache/quantize.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace qpc {

namespace {

constexpr double kTau = 6.283185307179586476925286766559;

/** Euclidean remainder: v mod m in [0, m) for positive m. */
std::int64_t
positiveMod(std::int64_t v, std::int64_t m)
{
    const std::int64_t r = v % m;
    return r < 0 ? r + m : r;
}

} // namespace

double
ParamQuantization::stepRadians() const
{
    fatalIf(bins <= 0, "quantization grid needs a positive bin count");
    return kTau / bins;
}

std::int64_t
angleBin(double theta, int bins)
{
    fatalIf(bins <= 0, "quantization grid needs a positive bin count");
    fatalIf(!std::isfinite(theta), "cannot quantize a non-finite angle");
    const double step = kTau / bins;
    // Reduce into [-pi, pi] first (IEEE remainder is exact), so the
    // scaled value stays within +/- bins/2 and llround can never
    // overflow, no matter how many turns theta carries.
    const double wrapped = std::remainder(theta, kTau);
    return positiveMod(std::llround(wrapped / step), bins);
}

double
binAngle(std::int64_t bin, int bins)
{
    fatalIf(bins <= 0, "quantization grid needs a positive bin count");
    const std::int64_t wrapped = positiveMod(bin, bins);
    const double step = kTau / bins;
    // Center the representative into (-pi, pi]: bins past the halfway
    // point unwind backwards, so snapped pulses never take the long
    // way around the circle.
    return wrapped > bins / 2 ? (wrapped - bins) * step
                              : wrapped * step;
}

double
snapAngle(double theta, int bins)
{
    return binAngle(angleBin(theta, bins), bins);
}

double
snapDelta(double theta, int bins)
{
    return wrappedAngleDelta(theta, snapAngle(theta, bins));
}

double
wrappedAngleDelta(double theta, double representative)
{
    // Reduce the raw difference by whole periods: theta may sit many
    // turns away from its centered representative, but the rotations
    // only differ by the wrapped remainder (mod a global phase).
    const double raw = theta - representative;
    return raw - kTau * std::round(raw / kTau);
}

double
quantizationErrorBound(double delta)
{
    return std::abs(delta) / 2.0;
}

// ---------------------------------------------------------------------
// Adaptive multi-resolution grid
// ---------------------------------------------------------------------

namespace {

std::uint64_t
packLeafKey(std::int64_t coarseBin, int depth, std::uint64_t path)
{
    return (static_cast<std::uint64_t>(depth) << 58) |
           (static_cast<std::uint64_t>(coarseBin) << 34) | path;
}

} // namespace

AdaptiveAngleGrid::AdaptiveAngleGrid(int baseBins) : bins_(baseBins)
{
    fatalIf(baseBins <= 0,
            "adaptive grid needs a positive base bin count");
    fatalIf(baseBins >= kMaxBaseBins,
            "adaptive grid base bin count exceeds the key space");
    leaves_ = static_cast<std::size_t>(baseBins);
}

std::uint64_t
AdaptiveAngleGrid::leafKey(const Leaf& leaf)
{
    return packLeafKey(leaf.coarseBin, leaf.depth, leaf.path);
}

AdaptiveAngleGrid::Leaf
AdaptiveAngleGrid::makeLeaf(std::int64_t coarseBin, int depth,
                            std::uint64_t path) const
{
    const double step = kTau / bins_;
    const double width = step / static_cast<double>(1ull << depth);
    Leaf leaf;
    leaf.coarseBin = coarseBin;
    leaf.depth = depth;
    leaf.path = path;
    leaf.halfWidth = width / 2.0;
    if (depth == 0) {
        // Bit-for-bit the fixed grid's representative: an unsplit
        // leaf fingerprints identically to its PR 3 bin, so a warm
        // coarse grid keeps serving until the leaf actually splits.
        leaf.representative = binAngle(coarseBin, bins_);
    } else {
        const double center = -step / 2.0 +
                              static_cast<double>(path) * width +
                              width / 2.0;
        double rep = std::remainder(binAngle(coarseBin, bins_) + center,
                                    kTau);
        if (rep <= -kTau / 2.0)
            rep += kTau; // Keep the (-pi, pi] contract at the seam.
        leaf.representative = rep;
    }
    return leaf;
}

AdaptiveAngleGrid::Leaf
AdaptiveAngleGrid::locate(double theta) const
{
    fatalIf(bins_ <= 0, "adaptive grid is not initialized");
    const double step = kTau / bins_;
    const std::int64_t coarse = angleBin(theta, bins_);
    // Offset of theta inside the coarse interval [(b-1/2), (b+1/2))
    // step, wrap-aware so any spelling of the angle descends the same
    // path.
    const double u = wrappedAngleDelta(theta, binAngle(coarse, bins_));
    int depth = 0;
    std::uint64_t path = 0;
    double lo = -step / 2.0;
    double hi = step / 2.0;
    while (split_.count(packLeafKey(coarse, depth, path))) {
        const double mid = 0.5 * (lo + hi);
        if (u < mid) {
            hi = mid;
            path = path * 2;
        } else {
            lo = mid;
            path = path * 2 + 1;
        }
        ++depth;
    }
    return makeLeaf(coarse, depth, path);
}

std::pair<AdaptiveAngleGrid::Leaf, AdaptiveAngleGrid::Leaf>
AdaptiveAngleGrid::childrenOf(const Leaf& leaf) const
{
    fatalIf(bins_ <= 0, "adaptive grid is not initialized");
    panicIf(leaf.depth >= kMaxDepth,
            "adaptive leaf is already at the maximum depth");
    return {makeLeaf(leaf.coarseBin, leaf.depth + 1, leaf.path * 2),
            makeLeaf(leaf.coarseBin, leaf.depth + 1,
                     leaf.path * 2 + 1)};
}

std::pair<AdaptiveAngleGrid::Leaf, AdaptiveAngleGrid::Leaf>
AdaptiveAngleGrid::split(const Leaf& leaf)
{
    std::pair<Leaf, Leaf> children = childrenOf(leaf);
    const std::uint64_t key = leafKey(leaf);
    panicIf(split_.count(key) != 0,
            "adaptive leaf is already split (stale handle?)");
    split_.insert(key);
    ++splits_;
    ++leaves_; // One leaf becomes two.
    maxDepth_ = std::max(maxDepth_, leaf.depth + 1);
    return children;
}

Circuit
snapSymbolicRotations(const Circuit& symbolic,
                      const std::vector<double>& theta,
                      const ParamQuantization& quantization)
{
    Circuit bound(symbolic.numQubits());
    for (const GateOp& op : symbolic.ops()) {
        GateOp next = op;
        if (gateIsRotation(op.kind)) {
            const double angle = op.angle.bind(theta);
            double value = angle;
            if (op.angle.isSymbolic()) {
                // Per-gate budget check mirrors the serve path, which
                // quantizes one rotation per strict segment: a gate
                // whose snap would overdraw the budget stays exact.
                const double delta =
                    snapDelta(angle, quantization.bins);
                if (quantizationErrorBound(delta) <=
                    quantization.fidelityBudget)
                    value = snapAngle(angle, quantization.bins);
            }
            next.angle = ParamExpr::constant(value);
        }
        bound.add(next);
    }
    return bound;
}

} // namespace qpc
