#include <gtest/gtest.h>

#include <cmath>

#include "linalg/expm.h"
#include "sim/statevector.h"
#include "testutil.h"
#include "vqe/hamiltonian.h"
#include "vqe/uccsd.h"
#include "vqe/vqedriver.h"

namespace {

using namespace qpc;
using namespace qpc::testutil;

TEST(Molecule, Table2Registry)
{
    const auto& specs = vqeBenchmarks();
    ASSERT_EQ(specs.size(), 5u);
    EXPECT_EQ(specs[0].name, "H2");
    EXPECT_EQ(specs[0].numQubits, 2);
    EXPECT_EQ(specs[0].numParams, 3);
    EXPECT_EQ(specs[4].name, "H2O");
    EXPECT_EQ(specs[4].numQubits, 10);
    EXPECT_EQ(specs[4].numParams, 92);
    EXPECT_EQ(moleculeByName("NaH").numQubits, 8);
}

/** The ansatz generator must hit Table 2 exactly for every molecule. */
class UccsdSweep
    : public ::testing::TestWithParam<int>
{
};

TEST_P(UccsdSweep, WidthParamsAndStructure)
{
    const MoleculeSpec& spec = vqeBenchmarks()[GetParam()];
    const Circuit ansatz = buildUccsdAnsatz(spec);
    EXPECT_EQ(ansatz.numQubits(), spec.numQubits);
    EXPECT_EQ(ansatz.numParams(), spec.numParams);
    EXPECT_TRUE(isParamMonotone(ansatz));

    // Only Rz gates carry parameters (Section 6's structure).
    for (const GateOp& op : ansatz.ops()) {
        if (op.paramIndex() >= 0) {
            EXPECT_EQ(op.kind, GateKind::Rz) << op.str();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Molecules, UccsdSweep,
                         ::testing::Range(0, 5));

TEST(Uccsd, ParametrizedFractionMatchesPaper)
{
    // Section 6: Rz(theta_i) gates are 5-8% of UCCSD gate counts.
    for (const char* name : {"BeH2", "NaH", "H2O"}) {
        const Circuit ansatz =
            buildUccsdAnsatz(moleculeByName(name));
        const double fraction = ansatz.parametrizedFraction();
        EXPECT_GT(fraction, 0.02) << name;
        EXPECT_LT(fraction, 0.12) << name;
    }
}

TEST(Uccsd, OptimizationPreservesParamsAndMonotonicity)
{
    for (const char* name : {"H2", "LiH", "BeH2"}) {
        const MoleculeSpec& spec = moleculeByName(name);
        const Circuit opt = buildOptimizedUccsd(spec);
        EXPECT_EQ(opt.numParams(), spec.numParams) << name;
        EXPECT_TRUE(isParamMonotone(opt)) << name;
    }
}

TEST(PauliEvolution, MatchesMatrixExponentialSingleString)
{
    // exp(-i theta/2 P) circuits vs the dense exponential, across
    // representative strings including Y and Z chains.
    Rng rng(91);
    const struct
    {
        const char* paulis;
        double theta;
    } cases[] = {
        {"XY", 0.8},   {"YX", -1.2}, {"ZZ", 0.5},  {"XX", 2.1},
        {"XYZ", 0.7},  {"ZYX", 1.9}, {"YZZY", -0.9},
        {"XZII", 1.1}, {"IYIX", 0.4},
    };
    for (const auto& test : cases) {
        const std::string paulis = test.paulis;
        const int n = static_cast<int>(paulis.size());
        Circuit circuit(n);
        appendPauliEvolution(circuit, paulis,
                             ParamExpr::constant(test.theta));
        const CMatrix realized = circuitUnitary(circuit);

        PauliHamiltonian h(n);
        h.add(1.0, paulis);
        const CMatrix expected = expmGeneral(
            h.toMatrix() * Complex{0.0, -test.theta / 2.0});
        EXPECT_TRUE(sameUpToPhase(expected, realized, 1e-8))
            << paulis << " theta " << test.theta;
    }
}

TEST(PauliEvolution, IdentityStringIsNoOp)
{
    Circuit circuit(2);
    appendPauliEvolution(circuit, "II", ParamExpr::constant(0.7));
    EXPECT_TRUE(circuit.empty());
}

TEST(Hamiltonian, H2GroundEnergyMatchesLiterature)
{
    const PauliHamiltonian h2 = h2Hamiltonian();
    EXPECT_NEAR(h2.groundStateEnergy(), -1.8572750302023786, 1e-6);
}

TEST(Hamiltonian, SyntheticIsDeterministicAndHermitianStructured)
{
    const PauliHamiltonian a = syntheticMolecularHamiltonian(4, 7);
    const PauliHamiltonian b = syntheticMolecularHamiltonian(4, 7);
    ASSERT_EQ(a.terms().size(), b.terms().size());
    for (size_t i = 0; i < a.terms().size(); ++i) {
        EXPECT_EQ(a.terms()[i].paulis, b.terms()[i].paulis);
        EXPECT_NEAR(a.terms()[i].coeff, b.terms()[i].coeff, 1e-12);
    }
}

TEST(VqeDriver, H2ReachesGroundState)
{
    const MoleculeSpec& spec = moleculeByName("H2");
    const Circuit ansatz = buildOptimizedUccsd(spec);
    VqeRunOptions options;
    options.optimizer.maxIterations = 600;
    const VqeResult result =
        runVqe(ansatz, h2Hamiltonian(), options);
    EXPECT_NEAR(result.exactGroundEnergy, -1.857275, 1e-5);
    EXPECT_NEAR(result.energy, result.exactGroundEnergy, 2e-3);
    EXPECT_GT(result.iterations, 10);
}

TEST(VqeDriver, EnergyNeverBelowExactGround)
{
    const MoleculeSpec& spec = moleculeByName("H2");
    const Circuit ansatz = buildOptimizedUccsd(spec);
    const VqeResult result = runVqe(ansatz, h2Hamiltonian());
    EXPECT_GE(result.energy, result.exactGroundEnergy - 1e-9);
}

// Regression for the parallel-optimizer iteration semantics: the
// hybrid loop's refinement trigger keys its step-norm gate and
// cooldown off the onIteration stream, and every evaluation is a real
// serve that feeds the adaptive grid's visit counters. So a pooled run
// must make exactly the serial run's objective calls, refine at the
// same iterations, and land on the same grid, served angles and energy.
TEST(VqeDriver, AdaptiveRefinementIdenticalAcrossOptimizerThreads)
{
    const MoleculeSpec& spec = moleculeByName("H2");
    const Circuit ansatz = buildOptimizedUccsd(spec);
    const PauliHamiltonian hamiltonian = h2Hamiltonian();

    struct Run
    {
        VqeResult result;
        std::vector<std::pair<int, double>> stream; ///< (iter, step).
    };
    auto run = [&](int optimizer_threads) {
        Run out;
        CompileServiceOptions service;
        service.numWorkers = 2;
        service.quantization.enabled = true;
        service.quantization.adaptive = true;
        service.quantization.bins = 32;
        service.quantization.splitVisitThreshold = 4;

        VqeRunOptions options;
        options.optimizer.maxIterations = 150;
        options.optimizer.onIteration =
            [&](const NelderMeadIterationInfo& info) {
                out.stream.emplace_back(info.iteration, info.stepNorm);
            };
        options.optimizerThreads = optimizer_threads;
        options.serviceOptions = service;
        out.result = runVqe(ansatz, hamiltonian, options);
        return out;
    };

    const Run serial = run(0);
    // The coarse grid must actually have refined, or this proves
    // nothing about trigger timing.
    ASSERT_GT(serial.result.quantRefineRounds, 0);

    for (int workers : {1, 2, 8}) {
        const Run pooled = run(workers);
        // Same refinement activity...
        EXPECT_EQ(pooled.result.quantRefineRounds,
                  serial.result.quantRefineRounds)
            << workers << " workers";
        EXPECT_EQ(pooled.result.quantSplits, serial.result.quantSplits);
        // ...the same iteration stream feeding the trigger gate...
        EXPECT_EQ(pooled.stream, serial.stream) << workers << " workers";
        // ...and a bit-identical answer.
        EXPECT_EQ(pooled.result.energy, serial.result.energy);
        EXPECT_EQ(pooled.result.bestParams, serial.result.bestParams);
        EXPECT_EQ(pooled.result.iterations, serial.result.iterations);
        EXPECT_EQ(pooled.result.finalQuantErrorBound,
                  serial.result.finalQuantErrorBound);
    }
}

} // namespace
