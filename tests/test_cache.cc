#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <sys/file.h>
#include <thread>
#include <unistd.h>

#include "cache/fingerprint.h"
#include "cache/pulsecache.h"
#include "cache/quantize.h"
#include "linalg/eig.h"
#include "pulse/serialize.h"
#include "sim/statevector.h"
#include "testutil.h"

namespace {

using namespace qpc;
using namespace qpc::testutil;

const double kPi = 3.14159265358979323846;

/** Unique scratch directory under the test's working dir. */
class TempDir
{
  public:
    explicit TempDir(const std::string& stem)
    {
        path_ = (std::filesystem::temp_directory_path() /
                 (stem + "." + std::to_string(::getpid())))
                    .string();
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }
    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

PulseSchedule
samplePulse(uint64_t seed, int channels = 3, int samples = 17)
{
    Rng rng(seed);
    PulseSchedule pulse(channels, samples, 0.05);
    for (int c = 0; c < channels; ++c)
        for (double& v : pulse.channel(c))
            v = rng.normal();
    return pulse;
}

PulseCacheOptions
cacheOptions(std::size_t capacity, int shards,
             const std::string& disk_dir = "")
{
    PulseCacheOptions options;
    options.capacity = capacity;
    options.shards = shards;
    options.diskDir = disk_dir;
    return options;
}

// ---------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------

TEST(Fingerprint, DeterministicAcrossCopies)
{
    Rng rng(3);
    const Circuit a = randomCircuit(rng, 3, 12);
    const Circuit b = a;
    EXPECT_EQ(fingerprintBlock(a), fingerprintBlock(b));
    EXPECT_EQ(fingerprintBlock(a).hex(), fingerprintBlock(b).hex());
}

TEST(Fingerprint, SensitiveToStructure)
{
    Circuit a(2);
    a.h(0);
    a.cx(0, 1);
    Circuit b(2);
    b.cx(0, 1);
    b.h(0);
    EXPECT_NE(fingerprintBlock(a).structureHash,
              fingerprintBlock(b).structureHash);

    Circuit c(2);
    c.h(0);
    c.cx(1, 0); // Swapped control/target.
    EXPECT_NE(fingerprintBlock(a).structureHash,
              fingerprintBlock(c).structureHash);

    Circuit d(2);
    d.h(0);
    d.cx(0, 1);
    d.rz(1, 0.25);
    EXPECT_NE(fingerprintBlock(a), fingerprintBlock(d));
}

TEST(Fingerprint, SensitiveToAngles)
{
    Circuit a(1);
    a.rz(0, 0.5);
    Circuit b(1);
    b.rz(0, 0.5 + 1e-6);
    EXPECT_NE(fingerprintBlock(a).structureHash,
              fingerprintBlock(b).structureHash);
}

TEST(Fingerprint, UnitaryHashIsGlobalPhaseInvariant)
{
    // Z and Rz(pi) = -i Z differ exactly by a global phase: the
    // structural hashes differ, the unitary fingerprints agree.
    Circuit z(1);
    z.z(0);
    Circuit rz(1);
    rz.rz(0, kPi);
    const BlockFingerprint fz = fingerprintBlock(z);
    const BlockFingerprint frz = fingerprintBlock(rz);
    EXPECT_NE(fz.structureHash, frz.structureHash);
    EXPECT_EQ(fz.unitaryHash, frz.unitaryHash);
    // The unitary hash is the canonical address: the two spellings
    // are one cache entry (equality, container hash, and disk name).
    EXPECT_EQ(fz, frz);
    EXPECT_EQ(BlockFingerprintHash{}(fz), BlockFingerprintHash{}(frz));
    EXPECT_EQ(fz.hex(), frz.hex());

    // Direct check on matrices as well.
    const CMatrix u = gateMatrix(GateKind::H);
    EXPECT_EQ(phaseInvariantUnitaryHash(u),
              phaseInvariantUnitaryHash(u * Complex(0.0, 1.0)));
    EXPECT_EQ(phaseInvariantUnitaryHash(u),
              phaseInvariantUnitaryHash(u * std::exp(kImag * 0.7)));
}

TEST(Fingerprint, DistinctUnitariesDistinctHashes)
{
    EXPECT_NE(phaseInvariantUnitaryHash(gateMatrix(GateKind::X)),
              phaseInvariantUnitaryHash(gateMatrix(GateKind::Y)));
    EXPECT_NE(phaseInvariantUnitaryHash(gateMatrix(GateKind::H)),
              phaseInvariantUnitaryHash(gateMatrix(GateKind::Z)));
}

TEST(Fingerprint, WideBlocksFallBackToStructureAddressing)
{
    // 7 qubits is past the unitary-simulation cap: the address is the
    // structure hash and the hex stem is tagged accordingly.
    Circuit wide(7);
    for (int q = 0; q < 6; ++q)
        wide.cx(q, q + 1);
    const BlockFingerprint fw = fingerprintBlock(wide);
    EXPECT_EQ(fw.unitaryHash, 0u);
    EXPECT_EQ(fw.canonical(), fw.structureHash);
    EXPECT_EQ(fw.hex().front(), 's');
    EXPECT_EQ(fingerprintBlock(wide), fw);

    Circuit narrow(1);
    narrow.h(0);
    EXPECT_EQ(fingerprintBlock(narrow).hex().front(), 'u');
    EXPECT_NE(fingerprintBlock(narrow), fw);
}

TEST(Fingerprint, RelabeledBlocksShareAddresses)
{
    // The same local structure extracted from different global
    // positions must collide — that is the whole point of
    // content-addressing blocks after relabeling.
    Circuit a(2);
    a.h(0);
    a.cx(0, 1);
    Circuit wide(4);
    wide.h(2);
    wide.cx(2, 3);
    // Relabel {2,3} -> {0,1} by hand, mirroring CircuitBlock::asCircuit.
    Circuit relabeled(2);
    relabeled.h(0);
    relabeled.cx(0, 1);
    EXPECT_EQ(fingerprintBlock(a), fingerprintBlock(relabeled));
}

// ---------------------------------------------------------------------
// Angle quantization
// ---------------------------------------------------------------------

const double kTau = 2.0 * kPi;

/** Operator norm (largest singular value) of a small matrix. */
double
opNorm(const CMatrix& d)
{
    const EigResult eig = eigHermitian(d.dagger() * d);
    return std::sqrt(std::max(0.0, eig.values.back()));
}

/**
 * ||a - e^{i phi} b||_op at the trace-aligned phase: an upper bound
 * on the phase-invariant operator distance, and exactly the minimum
 * for a single snapped rotation (whose residual eigenphases are
 * symmetric about the trace phase).
 */
double
tracePhaseOpNorm(const CMatrix& a, const CMatrix& b)
{
    const Complex overlap = (a.dagger() * b).trace();
    if (std::abs(overlap) < 1e-12)
        return opNorm(a - b);
    return opNorm(a - b * std::conj(overlap / std::abs(overlap)));
}

/**
 * min over a phase grid of ||a - e^{i phi} b||_op: an upper bound on
 * the phase-invariant operator distance that overshoots the true
 * minimum by at most ~pi/kPhaseGrid (the grid granularity), which the
 * caller absorbs into its tolerance.
 */
constexpr int kPhaseGrid = 256;

double
minPhaseOpNorm(const CMatrix& a, const CMatrix& b)
{
    double best = opNorm(a - b);
    for (int k = 1; k < kPhaseGrid; ++k) {
        const double phi = kTau * k / kPhaseGrid;
        best = std::min(best, opNorm(a - b * std::exp(kImag * phi)));
    }
    return best;
}

/**
 * The advertised error of snapSymbolicRotations(symbolic, theta, q):
 * the summed per-gate bound of every symbolic rotation whose snap the
 * budget admits (the others stay exact and add nothing).
 */
double
advertisedSnapBound(const Circuit& symbolic,
                    const std::vector<double>& theta,
                    const ParamQuantization& quantization)
{
    double bound = 0.0;
    for (const GateOp& op : symbolic.ops()) {
        if (!gateIsRotation(op.kind) || !op.angle.isSymbolic())
            continue;
        const double gate = quantizationErrorBound(
            snapDelta(op.angle.bind(theta), quantization.bins));
        if (gate <= quantization.fidelityBudget)
            bound += gate;
    }
    return bound;
}

/** The bound angle of the i-th op of a snapped (all-constant) circuit. */
double
snappedAngle(const Circuit& snapped, std::size_t i)
{
    return snapped.ops().at(i).angle.bind({});
}

TEST(Quantize, SnapIsIdempotentAndWrapAware)
{
    Rng rng(29);
    const int grids[] = {16, 64, 256, 1024};
    for (int trial = 0; trial < 500; ++trial) {
        const int bins = grids[trial % 4];
        const double step = kTau / bins;
        // Several turns in both directions, not just (-pi, pi].
        const double theta = rng.uniform(-10.0, 10.0);

        const std::int64_t bin = angleBin(theta, bins);
        EXPECT_GE(bin, 0);
        EXPECT_LT(bin, bins);
        // theta and theta +/- 2 pi share the bin.
        EXPECT_EQ(bin, angleBin(theta + kTau, bins));
        EXPECT_EQ(bin, angleBin(theta - kTau, bins));

        // Snapping is idempotent, bit-for-bit: a snapped angle is on
        // the grid, so snapping it again is the identity.
        const double snapped = snapAngle(theta, bins);
        EXPECT_EQ(snapped, snapAngle(snapped, bins));
        EXPECT_EQ(bin, angleBin(snapped, bins));
        // The representative is centered and the residue is at most
        // half a step.
        EXPECT_GT(snapped, -kPi - 1e-12);
        EXPECT_LE(snapped, kPi + 1e-12);
        EXPECT_LE(std::abs(snapDelta(theta, bins)),
                  step / 2.0 + 1e-12);
    }
}

TEST(Quantize, BinEdgesNearPiDoNotSplit)
{
    Rng rng(31);
    for (int trial = 0; trial < 500; ++trial) {
        const int bins = 64 << (trial % 3);
        const double eps = rng.uniform(1e-9, 0.4 * kTau / bins);
        // The same angle spelled on either side of the +/- pi seam
        // must land in one bin: pi - eps and its alias -pi - eps,
        // pi + eps and its alias -pi + eps.
        EXPECT_EQ(angleBin(kPi - eps, bins),
                  angleBin(-kPi - eps, bins));
        EXPECT_EQ(angleBin(kPi + eps, bins),
                  angleBin(-kPi + eps, bins));
    }
    // Both spellings of the seam itself share the +pi representative.
    for (int bins : {16, 64, 256, 1024}) {
        EXPECT_EQ(snapAngle(kPi, bins), snapAngle(-kPi, bins));
        EXPECT_NEAR(snapDelta(-kPi, bins), 0.0, 1e-12);
    }
}

TEST(Quantize, ErrorBoundHoldsAcrossGateLibrary)
{
    // For every rotation axis the IR serves, the measured
    // phase-invariant operator error of the snapped unitary stays
    // within the advertised bound. Single rotations measure with the
    // (exact) trace-aligned phase via the grid minimum.
    Rng rng(37);
    const GateKind axes[] = {GateKind::Rx, GateKind::Ry, GateKind::Rz};
    const int grids[] = {64, 256, 1024};
    for (int trial = 0; trial < 500; ++trial) {
        const GateKind kind = axes[trial % 3];
        const int bins = grids[(trial / 3) % 3];
        ParamQuantization quantization;
        quantization.enabled = true;
        quantization.bins = bins;
        // Generous per-gate budget: the coarse grids here can snap by
        // more than the default budget, and this test is about the
        // advertised bound, not the fallback gate.
        quantization.fidelityBudget = 1.0;

        Circuit symbolic(1);
        GateOp op;
        op.kind = kind;
        op.q0 = 0;
        op.angle = ParamExpr::theta(0, rng.uniform(0.5, 2.0),
                                    rng.uniform(-1.0, 1.0));
        symbolic.add(op);
        const std::vector<double> theta = {rng.uniform(-8.0, 8.0)};

        const double bound =
            advertisedSnapBound(symbolic, theta, quantization);
        // Advertised bound never exceeds the worst case of the grid.
        EXPECT_LE(bound, kTau / bins / 4.0 + 1e-12);

        const double measured = tracePhaseOpNorm(
            circuitUnitary(symbolic.bind(theta)),
            circuitUnitary(
                snapSymbolicRotations(symbolic, theta, quantization)));
        EXPECT_LE(measured, bound + 1e-9)
            << gateName(kind) << " bins=" << bins
            << " theta=" << theta[0];
    }
}

TEST(Quantize, MultiRotationBlockBoundIsAdditive)
{
    // Blocks mixing fixed gates with several snapped rotations: the
    // per-rotation bounds add, and the measured error of the whole
    // block unitary respects the sum. The phase-grid measurement
    // overshoots the true minimum by at most ~pi/kPhaseGrid.
    const double kGridSlack = 4.0 * kPi / kPhaseGrid;
    Rng rng(41);
    for (int trial = 0; trial < 40; ++trial) {
        ParamQuantization quantization;
        quantization.enabled = true;
        quantization.bins = 32; // Coarse: real error, well above slack.
        // Admit every per-gate snap so all three rotations land on
        // the grid and the summed bound is exercised.
        quantization.fidelityBudget = 1.0;

        Circuit symbolic(2);
        symbolic.h(0);
        symbolic.cx(0, 1);
        symbolic.rx(0, ParamExpr::theta(0, rng.uniform(0.5, 2.0)));
        symbolic.cz(0, 1);
        symbolic.ry(1, ParamExpr::theta(1, rng.uniform(0.5, 2.0)));
        symbolic.rz(0, ParamExpr::theta(2, rng.uniform(0.5, 2.0)));
        const std::vector<double> theta = rng.angles(3);

        const double measured = minPhaseOpNorm(
            circuitUnitary(symbolic.bind(theta)),
            circuitUnitary(
                snapSymbolicRotations(symbolic, theta, quantization)));
        EXPECT_LE(measured,
                  advertisedSnapBound(symbolic, theta, quantization) +
                      kGridSlack);
    }
}

TEST(Quantize, BindingsInOneBinShareOneAddress)
{
    ParamQuantization quantization;
    quantization.enabled = true;
    quantization.bins = 1024;

    Circuit symbolic(1);
    symbolic.rz(0, ParamExpr::theta(0));
    const auto address = [&](double theta) {
        return fingerprintBlock(
            snapSymbolicRotations(symbolic, {theta}, quantization));
    };

    // The PR 2 pathology: adjacent iterations' angles are distinct
    // exact keys but the same grid bin — one pulse serves both.
    EXPECT_EQ(address(0.1001), address(0.1002));

    // A different bin is a different address.
    EXPECT_NE(address(0.1001), address(0.1001 + kTau / 1024 * 3));

    // Wrap-awareness carries through to the address.
    EXPECT_EQ(address(0.1001), address(0.1001 + kTau));

    // Snapping a binding that is already on the grid is free.
    const double on_grid = binAngle(17, quantization.bins);
    EXPECT_EQ(advertisedSnapBound(symbolic, {on_grid}, quantization),
              0.0);
    EXPECT_EQ(address(on_grid),
              fingerprintBlock(symbolic.bind({on_grid})));
}

TEST(Quantize, FidelityBudgetGatesTheSnap)
{
    Circuit symbolic(1);
    symbolic.rx(0, ParamExpr::theta(0));

    // A zero budget keeps any off-grid angle exact...
    ParamQuantization strict_budget;
    strict_budget.enabled = true;
    strict_budget.bins = 64;
    strict_budget.fidelityBudget = 0.0;
    const double off_grid = 0.3 + kTau / 64 / 3.0;
    EXPECT_EQ(snappedAngle(snapSymbolicRotations(symbolic, {off_grid},
                                                 strict_budget),
                           0),
              off_grid);
    EXPECT_EQ(advertisedSnapBound(symbolic, {off_grid}, strict_budget),
              0.0);
    // ... but still admits an exactly-on-grid one.
    EXPECT_EQ(snappedAngle(snapSymbolicRotations(
                               symbolic, {binAngle(5, 64)}, strict_budget),
                           0),
              binAngle(5, 64));

    // The default budget admits the default grid's worst case.
    ParamQuantization defaults;
    defaults.enabled = true;
    EXPECT_EQ(
        snappedAngle(snapSymbolicRotations(symbolic, {off_grid}, defaults),
                     0),
        snapAngle(off_grid, defaults.bins));

    // Constant-angle rotations pass through exactly: no error, same
    // fingerprint as plain fingerprinting.
    Circuit constant(1);
    constant.rz(0, 0.123456);
    EXPECT_EQ(advertisedSnapBound(constant, {}, strict_budget), 0.0);
    EXPECT_EQ(
        fingerprintBlock(snapSymbolicRotations(constant, {}, strict_budget)),
        fingerprintBlock(constant));
}

TEST(Quantize, PerGateBudgetMatchesServePathSemantics)
{
    // The budget is per gate, as in serve(): each rotation is checked
    // and falls back on its own, so a block whose gates all fit may
    // carry a summed bound above the budget.
    ParamQuantization quantization;
    quantization.enabled = true;
    quantization.bins = 32; // Worst per-gate bound: step/4 ~ 0.049.
    const double step = kTau / 32;
    // Each gate's snap (~step/4) fits the budget, but the sum of the
    // two does not.
    quantization.fidelityBudget = 0.3 * step;

    Circuit symbolic(2);
    symbolic.rx(0, ParamExpr::theta(0));
    symbolic.ry(1, ParamExpr::theta(1));
    // Mid-bin angles: per-gate bound just under step/4 each.
    const std::vector<double> theta = {5 * step + 0.45 * step,
                                       -9 * step + 0.45 * step};
    for (double t : theta)
        ASSERT_LE(quantizationErrorBound(snapDelta(t, 32)),
                  quantization.fidelityBudget);

    // Both gates snapped, no fallback — even though the summed bound
    // exceeds the (per-gate) budget.
    const Circuit snapped =
        snapSymbolicRotations(symbolic, theta, quantization);
    EXPECT_EQ(snappedAngle(snapped, 0), snapAngle(theta[0], 32));
    EXPECT_EQ(snappedAngle(snapped, 1), snapAngle(theta[1], 32));
    EXPECT_GT(advertisedSnapBound(symbolic, theta, quantization),
              quantization.fidelityBudget);

    // A gate past the per-gate budget stays exact.
    ParamQuantization tight = quantization;
    tight.fidelityBudget = 0.05 * step;
    const Circuit gated = snapSymbolicRotations(symbolic, theta, tight);
    EXPECT_EQ(snappedAngle(gated, 0), theta[0]);
    EXPECT_EQ(snappedAngle(gated, 1), theta[1]);
    EXPECT_EQ(advertisedSnapBound(symbolic, theta, tight), 0.0);
    EXPECT_EQ(fingerprintBlock(gated),
              fingerprintBlock(symbolic.bind(theta)));
}

// ---------------------------------------------------------------------
// Adaptive multi-resolution grid
// ---------------------------------------------------------------------

TEST(AdaptiveGrid, StartsAsTheFixedGridBitForBit)
{
    // Every unsplit leaf must carry the fixed grid's representative
    // *exactly*: that identity is what lets an adaptive plan's coarse
    // leaves fingerprint-dedupe against an already-warm PR 3 grid.
    Rng rng(51);
    for (int bins : {16, 64, 256, 1024}) {
        const AdaptiveAngleGrid grid(bins);
        EXPECT_EQ(grid.numLeaves(), static_cast<size_t>(bins));
        EXPECT_EQ(grid.maxDepthInUse(), 0);
        for (int trial = 0; trial < 200; ++trial) {
            const double theta = rng.uniform(-10.0, 10.0);
            const AdaptiveAngleGrid::Leaf leaf = grid.locate(theta);
            EXPECT_EQ(leaf.depth, 0);
            EXPECT_EQ(leaf.coarseBin, angleBin(theta, bins));
            EXPECT_EQ(leaf.representative, snapAngle(theta, bins));
            EXPECT_EQ(leaf.halfWidth, kTau / bins / 2.0);
        }
    }
}

TEST(AdaptiveGrid, RefinementHalvesWidthsAndPreservesTheBound)
{
    // Random refinement: split the leaf of a random angle, many
    // times. Invariants: locate() always returns a leaf containing
    // the angle (|wrapped delta| <= halfWidth), widths halve per
    // depth, and no leaf is ever wider than a coarse bin — so the
    // realized snap bound never exceeds the fixed grid's worst case.
    Rng rng(53);
    const int bins = 64;
    const double step = kTau / bins;
    AdaptiveAngleGrid grid(bins);
    uint64_t splits = 0;
    for (int round = 0; round < 400; ++round) {
        // Cluster the splits: a converging optimizer hammers a small
        // neighborhood, so drive most refinement into one region.
        const double theta = round % 4 == 0
                                 ? rng.uniform(-kPi, kPi)
                                 : 0.7 + 0.02 * rng.normal();
        const AdaptiveAngleGrid::Leaf leaf = grid.locate(theta);
        if (leaf.depth >= 12)
            continue;
        const auto [low, high] = grid.split(leaf);
        ++splits;
        // The children partition the parent: theta lands in exactly
        // one of them, and each has half the parent's width.
        EXPECT_EQ(low.depth, leaf.depth + 1);
        EXPECT_EQ(high.depth, leaf.depth + 1);
        EXPECT_EQ(low.halfWidth, leaf.halfWidth / 2.0);
        EXPECT_EQ(high.halfWidth, leaf.halfWidth / 2.0);
        const AdaptiveAngleGrid::Leaf relocated = grid.locate(theta);
        EXPECT_EQ(relocated.depth, leaf.depth + 1);
        const bool in_low = AdaptiveAngleGrid::leafKey(relocated) ==
                            AdaptiveAngleGrid::leafKey(low);
        const bool in_high = AdaptiveAngleGrid::leafKey(relocated) ==
                             AdaptiveAngleGrid::leafKey(high);
        EXPECT_TRUE(in_low || in_high);
    }
    EXPECT_EQ(grid.splits(), splits);
    EXPECT_EQ(grid.numLeaves(), static_cast<size_t>(bins) + splits);
    EXPECT_GT(grid.maxDepthInUse(), 2);

    Rng probe(57);
    for (int trial = 0; trial < 500; ++trial) {
        const double theta = probe.uniform(-10.0, 10.0);
        const AdaptiveAngleGrid::Leaf leaf = grid.locate(theta);
        const double delta =
            wrappedAngleDelta(theta, leaf.representative);
        EXPECT_LE(std::abs(delta), leaf.halfWidth + 1e-12);
        EXPECT_LE(leaf.halfWidth, step / 2.0 + 1e-15);
        // The advertised per-gate bound of serving this leaf never
        // exceeds the fixed grid's worst case.
        EXPECT_LE(quantizationErrorBound(delta), step / 4.0 + 1e-12);
    }
}

TEST(AdaptiveGrid, SnapIsIdempotentAcrossLevelsAndWrapAware)
{
    // A leaf's representative locates back to the same leaf (snapping
    // a snapped angle is the identity, at any depth), and any 2*pi
    // alias of an angle lands in the same leaf.
    Rng rng(59);
    const int bins = 32;
    AdaptiveAngleGrid grid(bins);
    for (int round = 0; round < 300; ++round) {
        const double theta = rng.uniform(-8.0, 8.0);
        const AdaptiveAngleGrid::Leaf leaf = grid.locate(theta);
        EXPECT_EQ(AdaptiveAngleGrid::leafKey(grid.locate(theta + kTau)),
                  AdaptiveAngleGrid::leafKey(leaf));
        EXPECT_EQ(AdaptiveAngleGrid::leafKey(grid.locate(theta - kTau)),
                  AdaptiveAngleGrid::leafKey(leaf));
        const AdaptiveAngleGrid::Leaf again =
            grid.locate(leaf.representative);
        EXPECT_EQ(AdaptiveAngleGrid::leafKey(again),
                  AdaptiveAngleGrid::leafKey(leaf));
        EXPECT_EQ(again.representative, leaf.representative);
        // The representative stays centered: (-pi, pi].
        EXPECT_GT(leaf.representative, -kPi - 1e-12);
        EXPECT_LE(leaf.representative, kPi + 1e-12);
        if (leaf.depth < 10 && rng.bernoulli(0.7))
            grid.split(leaf);
    }
}

TEST(AdaptiveGrid, RefinedFingerprintsDedupeAgainstTheCoarseGrid)
{
    // Where representatives coincide, fingerprints must too: an
    // unsplit leaf's snapped rotation is the coarse bin's rotation,
    // so its pulse address matches the fixed-grid (prewarmed) entry.
    // A split leaf's children have new representatives — distinct
    // addresses — and the two children never collide.
    const int bins = 64;
    AdaptiveAngleGrid grid(bins);
    Circuit symbolic(1);
    symbolic.rx(0, ParamExpr::theta(0));

    auto fingerprintAt = [&](double angle) {
        Circuit rotation(1);
        rotation.rx(0, angle);
        return fingerprintBlock(rotation);
    };

    Rng rng(61);
    for (int trial = 0; trial < 120; ++trial) {
        const double theta = rng.uniform(-kPi, kPi);
        const AdaptiveAngleGrid::Leaf leaf = grid.locate(theta);
        if (leaf.depth == 0) {
            // Coincides with the fixed grid: same address.
            EXPECT_EQ(fingerprintAt(leaf.representative),
                      fingerprintAt(snapAngle(theta, bins)));
        } else {
            // Refined: a genuinely finer representative.
            EXPECT_NE(leaf.representative, snapAngle(theta, bins));
        }
        if (leaf.depth < 6) {
            const auto [low, high] = grid.split(leaf);
            EXPECT_NE(fingerprintAt(low.representative),
                      fingerprintAt(high.representative));
            EXPECT_NE(fingerprintAt(low.representative),
                      fingerprintAt(leaf.representative));
        }
    }
}

TEST(AdaptiveGrid, SplitGuardsAgainstStaleHandlesAndDepthCaps)
{
    AdaptiveAngleGrid grid(16);
    const AdaptiveAngleGrid::Leaf leaf = grid.locate(0.5);
    grid.split(leaf);
    // Splitting the same (now internal) leaf again must fail loudly.
    EXPECT_DEATH(grid.split(leaf), "already split");
}

// ---------------------------------------------------------------------
// In-memory LRU tier
// ---------------------------------------------------------------------

BlockFingerprint
fp(uint64_t n)
{
    BlockFingerprint f;
    f.structureHash = n * 0x9e3779b97f4a7c15ull + 1;
    f.unitaryHash = n;
    return f;
}

TEST(PulseCache, HitMissAndStats)
{
    PulseCache cache(cacheOptions(16, 2));
    EXPECT_FALSE((cache.get(fp(1)) != nullptr));
    cache.put(fp(1), samplePulse(1));
    const auto hit = cache.get(fp(1));
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->numChannels(), 3);

    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.lookups, 2u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.insertions, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_NEAR(stats.hitRate(), 0.5, 1e-12);
}

TEST(PulseCache, EvictsLeastRecentlyUsed)
{
    // One shard of capacity 4 makes the LRU order fully observable.
    PulseCache cache(cacheOptions(4, 1));
    for (uint64_t i = 0; i < 4; ++i)
        cache.put(fp(i), samplePulse(i));
    // Touch 0 so 1 becomes the eviction victim.
    EXPECT_TRUE((cache.get(fp(0)) != nullptr));
    cache.put(fp(99), samplePulse(99));

    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_TRUE((cache.get(fp(0)) != nullptr));
    EXPECT_FALSE((cache.get(fp(1)) != nullptr));
    EXPECT_TRUE((cache.get(fp(99)) != nullptr));
    EXPECT_EQ(cache.stats().entries, 4u);
}

TEST(PulseCache, EraseReleasesBytesAndKeepsDiskTier)
{
    TempDir dir("qpc_cache_erase");
    PulseCache cache(cacheOptions(8, 1, dir.path()));
    cache.put(fp(1), samplePulse(1));
    cache.put(fp(2), samplePulse(2, /*channels=*/2, /*samples=*/9));
    const std::size_t before = cache.stats().bytesInUse;

    // Erase returns the entry's serialized bytes and updates the
    // byte accounting — what refinement releases against the budget.
    const std::size_t released = cache.erase(fp(1));
    EXPECT_GT(released, 0u);
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.bytesInUse, before - released);
    EXPECT_EQ(stats.released, 1u);
    EXPECT_EQ(stats.bytesReleased, released);
    // Erasing an absent key is a counted-free no-op.
    EXPECT_EQ(cache.erase(fp(1)), 0u);
    EXPECT_EQ(cache.stats().released, 1u);

    // The disk record survives: the erased pulse promotes back on
    // its next request instead of forcing a re-synthesis.
    const auto promoted = cache.get(fp(1));
    ASSERT_NE(promoted, nullptr);
    EXPECT_EQ(cache.stats().diskHits, 1u);
}

TEST(PulseCache, PutSameKeyRefreshesInPlace)
{
    PulseCache cache(cacheOptions(4, 1));
    cache.put(fp(7), samplePulse(1));
    cache.put(fp(7), samplePulse(2));
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(cache.stats().insertions, 1u);
    // The refreshed pulse is the one served.
    const auto got = cache.get(fp(7));
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->channel(0), samplePulse(2).channel(0));
}

// ---------------------------------------------------------------------
// Disk tier
// ---------------------------------------------------------------------

TEST(PulseCache, DiskRoundTripSurvivesMemoryLoss)
{
    TempDir dir("qpc_cache_disk");
    const PulseSchedule original = samplePulse(5);
    {
        PulseCache cache(cacheOptions(16, 2, dir.path()));
        cache.put(fp(42), original);
        EXPECT_EQ(cache.stats().diskWrites, 1u);
    }
    // A brand-new cache (fresh process, empty memory) finds the pulse
    // on disk and promotes it.
    PulseCache cold(cacheOptions(16, 2, dir.path()));
    const auto got = cold.get(fp(42));
    ASSERT_NE(got, nullptr);
    for (int c = 0; c < original.numChannels(); ++c)
        EXPECT_EQ(got->channel(c), original.channel(c));
    EXPECT_EQ(cold.stats().diskHits, 1u);

    // Promoted: the second lookup is a memory hit.
    EXPECT_TRUE((cold.get(fp(42)) != nullptr));
    EXPECT_EQ(cold.stats().hits, 1u);
}

TEST(PulseCache, ClearMemoryKeepsDiskTier)
{
    TempDir dir("qpc_cache_clear");
    PulseCache cache(cacheOptions(16, 2, dir.path()));
    cache.put(fp(8), samplePulse(8));
    cache.clearMemory();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_TRUE((cache.get(fp(8)) != nullptr));
    EXPECT_EQ(cache.stats().diskHits, 1u);
}

TEST(PulseCache, CorruptDiskRecordReadsAsMiss)
{
    TempDir dir("qpc_cache_corrupt");
    PulseCache cache(cacheOptions(16, 2, dir.path()));
    cache.put(fp(3), samplePulse(3));
    cache.clearMemory();

    // Truncate the record behind the cache's back.
    const std::string file = dir.path() + "/" + fp(3).hex() + ".qpulse";
    ASSERT_TRUE(std::filesystem::exists(file));
    std::filesystem::resize_file(file, 10);

    EXPECT_FALSE((cache.get(fp(3)) != nullptr));
    EXPECT_EQ(cache.stats().misses, 1u);
}

// ---------------------------------------------------------------------
// Capacity distribution across shards
// ---------------------------------------------------------------------

TEST(PulseCache, CapacityRemainderIsDistributedAcrossShards)
{
    // The PR 4 regression: capacity=12 over 8 shards used to truncate
    // to 1 entry/shard = 8 effective entries. The remainder now goes
    // to the low shards, so the effective capacity meets the request.
    PulseCache cache(cacheOptions(12, 8));
    EXPECT_EQ(cache.effectiveCapacity(), 12u);

    // Saturate every shard: with far more distinct keys than
    // capacity, the resident count must reach the full request, not
    // the truncated one.
    for (uint64_t i = 0; i < 400; ++i)
        cache.put(fp(i), samplePulse(i, 1, 4));
    EXPECT_EQ(cache.stats().entries, 12u);

    // Capacity below the shard count still guarantees one entry per
    // shard (a shard cannot hold half an entry).
    PulseCache tiny(cacheOptions(3, 8));
    EXPECT_EQ(tiny.effectiveCapacity(), 8u);

    // And an exact multiple is unchanged.
    PulseCache even(cacheOptions(16, 8));
    EXPECT_EQ(even.effectiveCapacity(), 16u);
}

// ---------------------------------------------------------------------
// Byte-budgeted eviction
// ---------------------------------------------------------------------

TEST(PulseCache, ByteBudgetEvictsOnBytesBeforeEntries)
{
    // One shard, entry cap far above the byte cap: eviction must run
    // on bytes. Each pulse is 44 + 1*10*8 = 124 serialized bytes.
    const PulseSchedule pulse = samplePulse(1, 1, 10);
    ASSERT_EQ(pulse.serializedBytes(), 124u);

    PulseCacheOptions options = cacheOptions(64, 1);
    options.capacityBytes = 3 * 124;
    PulseCache cache(options);

    for (uint64_t i = 0; i < 5; ++i)
        cache.put(fp(i), samplePulse(i, 1, 10));

    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 3u);
    EXPECT_EQ(stats.bytesInUse, 3u * 124u);
    EXPECT_LE(stats.bytesInUse, options.capacityBytes);
    EXPECT_EQ(stats.evictions, 2u);
    EXPECT_EQ(stats.bytesEvicted, 2u * 124u);
    // LRU order: the two oldest entries went.
    EXPECT_FALSE((cache.get(fp(0)) != nullptr));
    EXPECT_FALSE((cache.get(fp(1)) != nullptr));
    EXPECT_TRUE((cache.get(fp(2)) != nullptr));
    EXPECT_TRUE((cache.get(fp(4)) != nullptr));
}

TEST(PulseCache, OversizedPulseIsRefusedNotEvictedThrough)
{
    // A pulse bigger than the whole byte budget cannot be cached: the
    // budget is a hard bound, and the refusal happens up front so the
    // resident entries are not displaced for a hopeless insert.
    PulseCacheOptions options = cacheOptions(8, 1);
    options.capacityBytes = 200;
    PulseCache cache(options);

    cache.put(fp(1), samplePulse(1, 1, 10)); // 108 bytes: fits.
    cache.put(fp(2), samplePulse(2, 4, 64)); // 2076 bytes: cannot.

    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_LE(stats.bytesInUse, options.capacityBytes);
    EXPECT_EQ(stats.oversized, 1u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_TRUE((cache.get(fp(1)) != nullptr));
    EXPECT_FALSE((cache.get(fp(2)) != nullptr));
}

TEST(PulseCache, DegenerateByteBudgetStillHoldsTheBound)
{
    // capacityBytes smaller than the shard count: the remainder split
    // would hand trailing shards a 0 budget, which must not read as
    // "unbounded". Every shard gets a 1-byte floor instead, so the
    // degenerate budget under-admits (everything refused) rather than
    // over-committing.
    PulseCacheOptions options = cacheOptions(64, 8);
    options.capacityBytes = 5;
    PulseCache cache(options);

    for (uint64_t i = 0; i < 64; ++i)
        cache.put(fp(i), samplePulse(i, 1, 4));

    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.bytesInUse, 0u);
    EXPECT_LE(stats.bytesInUse, options.capacityBytes);
    EXPECT_EQ(stats.oversized, 64u);
}

TEST(PulseCache, RefreshInPlaceTracksByteDelta)
{
    PulseCacheOptions options = cacheOptions(8, 1);
    options.capacityBytes = 4096;
    PulseCache cache(options);

    cache.put(fp(7), samplePulse(1, 1, 10)); // 124 bytes.
    EXPECT_EQ(cache.stats().bytesInUse, 124u);
    cache.put(fp(7), samplePulse(2, 1, 50)); // Re-synthesized: 444.
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.bytesInUse, 444u);
}

TEST(PulseCache, ByteBudgetHoldsUnderConcurrentPuts)
{
    // 8 threads insert pulses of assorted sizes (some larger than a
    // single shard's slice of the budget) while a sampler thread
    // watches stats(): bytesInUse must never exceed capacityBytes at
    // any observable instant — the acceptance bound of the PR.
    PulseCacheOptions options = cacheOptions(256, 4);
    options.capacityBytes = 8 * 1024;
    PulseCache cache(options);

    std::atomic<bool> done{false};
    std::atomic<bool> violated{false};
    std::thread sampler([&cache, &options, &done, &violated] {
        while (!done.load()) {
            if (cache.stats().bytesInUse > options.capacityBytes)
                violated.store(true);
            std::this_thread::yield();
        }
    });

    constexpr int kThreads = 8;
    constexpr int kPutsPerThread = 120;
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        writers.emplace_back([&cache, t] {
            for (int i = 0; i < kPutsPerThread; ++i) {
                const uint64_t key =
                    static_cast<uint64_t>(t) * 1000 + i;
                // Sizes from 36 to ~3.2 KB: several exceed the
                // per-shard budget of 2 KB.
                cache.put(fp(key),
                          samplePulse(key, 1, 1 + (i % 16) * 25));
                if (i % 7 == 0)
                    cache.get(fp(key));
            }
        });
    for (std::thread& w : writers)
        w.join();
    done.store(true);
    sampler.join();

    EXPECT_FALSE(violated.load());
    const CacheStats stats = cache.stats();
    EXPECT_LE(stats.bytesInUse, options.capacityBytes);
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_GT(stats.bytesEvicted, 0u);
    EXPECT_GT(stats.oversized, 0u); // The > 2 KB pulses were refused.
}

// ---------------------------------------------------------------------
// Disk-tier garbage collection
// ---------------------------------------------------------------------

std::size_t
diskTierBytes(const std::string& dir)
{
    std::size_t total = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir))
        if (entry.is_regular_file())
            total += static_cast<std::size_t>(entry.file_size());
    return total;
}

TEST(PulseCache, DiskGcRemovesOldestKeepsNewest)
{
    TempDir dir("qpc_cache_gc");
    const std::size_t record = samplePulse(0, 1, 10).serializedBytes();

    PulseCacheOptions options = cacheOptions(64, 2, dir.path());
    options.maxDiskBytes = 3 * record;
    options.gcOnPut = false; // Sweep explicitly below.
    PulseCache cache(options);

    for (uint64_t i = 0; i < 6; ++i)
        cache.put(fp(i), samplePulse(i, 1, 10));
    ASSERT_EQ(diskTierBytes(dir.path()), 6 * record);

    // Pin mtimes so recency is unambiguous regardless of filesystem
    // timestamp granularity: record i is i minutes old.
    const auto now = std::filesystem::file_time_type::clock::now();
    for (uint64_t i = 0; i < 6; ++i)
        std::filesystem::last_write_time(
            dir.path() + "/" + fp(i).hex() + ".qpulse",
            now - std::chrono::minutes(5 - i));

    // The sweep stops at the low-water mark (cap minus cap/8 = 284
    // bytes here), one record below the 3-record cap: 4 removals, the
    // 2 newest survive.
    const DiskGcReport report = cache.gcDisk();
    EXPECT_EQ(report.scannedFiles, 6u);
    EXPECT_EQ(report.removedFiles, 4u);
    EXPECT_EQ(report.removedBytes, 4 * record);
    EXPECT_EQ(report.remainingBytes, 2 * record);
    EXPECT_EQ(diskTierBytes(dir.path()), 2 * record);
    EXPECT_LE(report.remainingBytes, options.maxDiskBytes);

    // The newest records (largest mtime = 4 and 5) survive.
    cache.clearMemory();
    for (uint64_t i = 0; i < 4; ++i)
        EXPECT_FALSE((cache.get(fp(i)) != nullptr)) << i;
    for (uint64_t i = 4; i < 6; ++i)
        EXPECT_TRUE((cache.get(fp(i)) != nullptr)) << i;

    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.diskGcRuns, 1u);
    EXPECT_EQ(stats.diskGcRemovals, 4u);
    EXPECT_EQ(stats.diskGcBytesRemoved, 4 * record);
    EXPECT_EQ(stats.diskBytesInUse, 2 * record);
}

TEST(PulseCache, DiskGcEqualMtimesEvictInFilenameOrder)
{
    // Regression: mtime-LRU is nondeterministic when records share a
    // coarse (same-second) timestamp — two processes sweeping the same
    // tier could pick different victims. With every mtime equal, the
    // sweep must fall back to filename order so the outcome is stable.
    TempDir dir("qpc_cache_gc_ties");
    const std::size_t record = samplePulse(0, 1, 10).serializedBytes();

    PulseCacheOptions options = cacheOptions(64, 2, dir.path());
    options.maxDiskBytes = 3 * record;
    options.gcOnPut = false;
    PulseCache cache(options);

    std::vector<std::string> names;
    for (uint64_t i = 0; i < 6; ++i) {
        cache.put(fp(i), samplePulse(i, 1, 10));
        names.push_back(fp(i).hex() + ".qpulse");
    }
    const auto stamp = std::filesystem::file_time_type::clock::now();
    for (const std::string& name : names)
        std::filesystem::last_write_time(dir.path() + "/" + name,
                                         stamp);

    const DiskGcReport report = cache.gcDisk();
    EXPECT_EQ(report.scannedFiles, 6u);
    EXPECT_EQ(report.removedFiles, 4u);

    // Victims are the filename-smallest records, so the two largest
    // names survive — the exact set any process would keep.
    std::sort(names.begin(), names.end());
    std::vector<std::string> kept;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir.path()))
        if (entry.path().extension() == ".qpulse")
            kept.push_back(entry.path().filename().string());
    std::sort(kept.begin(), kept.end());
    ASSERT_EQ(kept.size(), 2u);
    EXPECT_EQ(kept[0], names[4]);
    EXPECT_EQ(kept[1], names[5]);
}

TEST(PulseCache, GcOnPutKeepsDiskTierUnderCap)
{
    TempDir dir("qpc_cache_gconput");
    const std::size_t record = samplePulse(0, 1, 10).serializedBytes();

    PulseCacheOptions options = cacheOptions(64, 2, dir.path());
    options.maxDiskBytes = 4 * record;
    PulseCache cache(options); // gcOnPut defaults on.

    for (uint64_t i = 0; i < 12; ++i) {
        cache.put(fp(i), samplePulse(i, 1, 10));
        EXPECT_LE(diskTierBytes(dir.path()), options.maxDiskBytes)
            << "after put " << i;
    }
    EXPECT_GT(cache.stats().diskGcRuns, 0u);
    EXPECT_GT(cache.stats().diskGcRemovals, 0u);
}

TEST(PulseCache, DiskBytesAdoptedAcrossProcesses)
{
    TempDir dir("qpc_cache_adopt");
    {
        PulseCache writer(cacheOptions(64, 2, dir.path()));
        for (uint64_t i = 0; i < 5; ++i)
            writer.put(fp(i), samplePulse(i, 1, 10));
    }
    // A fresh cache over the same directory — a new process — knows
    // the tier's size immediately, so gcOnPut triggers at the right
    // point rather than only after maxDiskBytes of *new* writes.
    PulseCache reader(cacheOptions(64, 2, dir.path()));
    EXPECT_EQ(reader.stats().diskBytesInUse,
              diskTierBytes(dir.path()));
}

TEST(PulseCache, ConcurrentGetDuringGcNeverTearsARecord)
{
    TempDir dir("qpc_cache_gc_race");
    PulseCacheOptions options = cacheOptions(64, 2, dir.path());
    options.maxDiskBytes = 6 * samplePulse(0, 1, 10).serializedBytes();
    options.gcOnPut = false;
    PulseCache cache(options);

    constexpr uint64_t kKeys = 24;
    for (uint64_t i = 0; i < kKeys; ++i)
        cache.put(fp(i), samplePulse(i, 1, 10));

    // Readers hammer every key straight off disk (memory dropped each
    // round) while sweeps run: every get must return either the full,
    // intact pulse or a clean miss — never a corrupt record.
    std::atomic<bool> stop{false};
    std::atomic<bool> corrupt{false};
    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t)
        readers.emplace_back([&cache, &stop, &corrupt] {
            while (!stop.load()) {
                cache.clearMemory();
                for (uint64_t i = 0; i < kKeys; ++i) {
                    const PulsePtr pulse = cache.get(fp(i));
                    if (pulse && (pulse->numChannels() != 1 ||
                                  pulse->numSamples() != 10))
                        corrupt.store(true);
                }
            }
        });
    for (int round = 0; round < 30; ++round) {
        cache.gcDisk();
        // Refill some of what the sweep removed to keep it busy.
        for (uint64_t i = 0; i < 8; ++i)
            cache.put(fp(100 + (round * 8 + i) % kKeys),
                      samplePulse(i, 1, 10));
    }
    stop.store(true);
    for (std::thread& r : readers)
        r.join();

    EXPECT_FALSE(corrupt.load());
    EXPECT_LE(diskTierBytes(dir.path()),
              options.maxDiskBytes +
                  8 * samplePulse(0, 1, 10).serializedBytes());
}

// ---------------------------------------------------------------------
// Calibration-epoch keying
// ---------------------------------------------------------------------

/** Count of .qpulse records in a disk tier (ignores the lockfile). */
std::size_t
diskTierCount(const std::string& dir)
{
    std::size_t count = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir))
        if (entry.path().extension() == ".qpulse")
            ++count;
    return count;
}

/** fp(n) stamped with a calibration epoch. */
BlockFingerprint
fpe(uint64_t n, const CalibrationEpoch& epoch)
{
    BlockFingerprint f = fp(n);
    f.epoch = epoch;
    return f;
}

TEST(Fingerprint, EpochSeparatesOtherwiseIdenticalBlocks)
{
    const CalibrationEpoch e1{1, 7};
    const CalibrationEpoch e2{2, 7};
    const BlockFingerprint a = fpe(5, e1);
    const BlockFingerprint b = fpe(5, e2);
    const BlockFingerprint legacy = fp(5);

    EXPECT_NE(a, b);
    EXPECT_NE(a, legacy);
    EXPECT_EQ(a, fpe(5, CalibrationEpoch{1, 7}));

    const BlockFingerprintHash hash;
    EXPECT_NE(hash(a), hash(b));
    EXPECT_NE(hash(a), hash(legacy));

    // Distinct hex => distinct disk-tier filenames: epochs can never
    // collide on disk. The zero epoch keeps the legacy spelling, so
    // pre-epoch cache directories stay addressable.
    EXPECT_NE(a.hex(), b.hex());
    EXPECT_NE(a.hex(), legacy.hex());
    EXPECT_EQ(legacy.hex().find("-e"), std::string::npos);
    EXPECT_NE(a.hex().find("-e"), std::string::npos);
}

TEST(CalibrationEpoch, KeyNeverZeroForLiveEpochs)
{
    EXPECT_EQ(CalibrationEpoch{}.key(), 0u);
    EXPECT_NE((CalibrationEpoch{1, 0}).key(), 0u);
    EXPECT_NE((CalibrationEpoch{0, 1}).key(), 0u);
    EXPECT_NE((CalibrationEpoch{1, 0}).key(),
              (CalibrationEpoch{2, 0}).key());
}

TEST(PulseCache, AdoptionSkipsForeignEpochRecords)
{
    // Regression: construction used to adopt (and byte-track) every
    // .qpulse record in the directory, regardless of the epoch stamped
    // in its header — a recalibrated daemon would then GC-account and
    // serve pulses synthesized under a stale device model.
    TempDir dir("qpc_cache_epoch_adopt");
    const CalibrationEpoch live{3, 11};
    const CalibrationEpoch stale{2, 11};

    {
        PulseCache writer(cacheOptions(64, 2, dir.path()));
        // Two stale-epoch records and one live: put() stamps each
        // record with its fingerprint's epoch.
        writer.put(fpe(1, stale), samplePulse(1, 1, 10));
        writer.put(fpe(2, stale), samplePulse(2, 1, 10));
        writer.put(fpe(3, live), samplePulse(3, 1, 10));
    }

    PulseCacheOptions options = cacheOptions(64, 2, dir.path());
    options.epoch = live;
    PulseCache cache(options);

    const std::size_t record =
        samplePulse(0, 1, 10).serializedBytes();
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.adoptionSkipped, 2u);
    EXPECT_EQ(stats.adoptionSkippedBytes, 2u * record);
    EXPECT_EQ(stats.diskBytesInUse, record);

    // The live record serves from disk; the stale ones are not this
    // cache's to serve (their fingerprints carry the stale epoch and
    // resolve to different filenames anyway).
    EXPECT_TRUE(cache.get(fpe(3, live)) != nullptr);
    EXPECT_EQ(cache.stats().diskHits, 1u);
}

TEST(PulseCache, DiskEpochMismatchServesAsAMiss)
{
    // A record whose stamped epoch disagrees with the requested
    // fingerprint's (a torn rsync, a hand-copied cache dir) must read
    // as a miss, never as a wrong-calibration pulse.
    TempDir dir("qpc_cache_epoch_mismatch");
    const CalibrationEpoch live{4, 9};
    PulseCacheOptions options = cacheOptions(64, 2, dir.path());
    options.epoch = live;
    PulseCache cache(options);

    const BlockFingerprint f = fpe(1, live);
    const std::string path = dir.path() + "/" + f.hex() + ".qpulse";
    ASSERT_TRUE(savePulseSchedule(path, samplePulse(1, 1, 10),
                                  CalibrationEpoch{9, 9}));

    EXPECT_TRUE(cache.get(f) == nullptr);
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.diskEpochMismatches, 1u);
    EXPECT_EQ(stats.diskHits, 0u);
    EXPECT_EQ(stats.misses, 1u);
}

// ---------------------------------------------------------------------
// Fleet-shared disk tier
// ---------------------------------------------------------------------

TEST(PulseCache, GcSkipsWhileAnotherSweeperHoldsTheLock)
{
    TempDir dir("qpc_cache_gc_flock");
    PulseCacheOptions options = cacheOptions(64, 2, dir.path());
    // Low-water mark is cap - cap/8: a 2-record cap sweeps 4 records
    // down to 1.
    options.maxDiskBytes =
        2 * samplePulse(0, 1, 10).serializedBytes();
    options.gcOnPut = false;
    PulseCache cache(options);
    for (uint64_t i = 0; i < 4; ++i)
        cache.put(fp(i), samplePulse(i, 1, 10));

    // Impersonate a sibling daemon mid-sweep: hold the tier's flock
    // from a separate file description.
    const int lock_fd =
        ::open((dir.path() + "/.qpc-gc.lock").c_str(),
               O_CREAT | O_RDWR, 0644);
    ASSERT_GE(lock_fd, 0);
    ASSERT_EQ(::flock(lock_fd, LOCK_EX), 0);

    const DiskGcReport busy = cache.gcDisk();
    EXPECT_TRUE(busy.lockBusy);
    EXPECT_EQ(busy.removedFiles, 0u);
    EXPECT_EQ(cache.stats().diskGcLockBusy, 1u);
    EXPECT_EQ(diskTierCount(dir.path()), 4u);

    ASSERT_EQ(::flock(lock_fd, LOCK_UN), 0);
    ::close(lock_fd);

    const DiskGcReport swept = cache.gcDisk();
    EXPECT_FALSE(swept.lockBusy);
    EXPECT_EQ(swept.removedFiles, 3u);
    EXPECT_LE(diskTierBytes(dir.path()), options.maxDiskBytes);
}

TEST(PulseCache, TwoCachesShareOneDiskTierWithoutTornState)
{
    // Two PulseCache instances on one directory stand in for two
    // daemons sharing a fleet cache dir (flock is per open file
    // description, so the exclusion is identical in-process). Both
    // put, get, and sweep concurrently; afterwards no record may be
    // torn and the tier must respect the cap.
    TempDir dir("qpc_cache_shared_tier");
    const std::size_t record =
        samplePulse(0, 1, 10).serializedBytes();
    PulseCacheOptions options = cacheOptions(16, 2, dir.path());
    options.capacityBytes = 4 * record; // Evict: force disk reads.
    options.maxDiskBytes = 24 * record;
    options.gcOnPut = false;
    PulseCache a(options);
    PulseCache b(options);

    std::atomic<bool> corrupt{false};
    std::atomic<uint64_t> sweeps{0};
    const auto worker = [&](PulseCache& cache, uint64_t salt) {
        Rng rng(salt);
        for (int i = 0; i < 200; ++i) {
            const uint64_t n =
                static_cast<uint64_t>(rng.randint(0, 47));
            cache.put(fp(n), samplePulse(n, 1, 10));
            const PulsePtr got = cache.get(
                fp(static_cast<uint64_t>(rng.randint(0, 47))));
            if (got && got->serializedBytes() != record)
                corrupt.store(true);
            if (i % 16 == 0) {
                const DiskGcReport report = cache.gcDisk();
                if (!report.lockBusy)
                    sweeps.fetch_add(1);
            }
        }
    };
    std::thread ta(worker, std::ref(a), 101);
    std::thread tb(worker, std::ref(b), 202);
    ta.join();
    tb.join();

    EXPECT_FALSE(corrupt.load());
    EXPECT_GT(sweeps.load(), 0u);

    // Final sweep reconciles the byte tracker against a full rescan
    // (each cache only tracked its own writes while racing): the
    // reported remainder must equal what is actually on disk, under
    // the cap, and every surviving record must load cleanly.
    const DiskGcReport final_sweep = a.gcDisk();
    EXPECT_FALSE(final_sweep.lockBusy);
    EXPECT_EQ(final_sweep.remainingBytes, diskTierBytes(dir.path()));
    EXPECT_LE(final_sweep.remainingBytes, options.maxDiskBytes);
    for (const auto& entry :
         std::filesystem::directory_iterator(dir.path())) {
        if (entry.path().extension() != ".qpulse")
            continue;
        EXPECT_TRUE(
            loadPulseSchedule(entry.path().string()).has_value())
            << "torn record: " << entry.path();
    }
}

} // namespace
