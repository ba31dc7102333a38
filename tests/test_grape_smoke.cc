#include <gtest/gtest.h>

#include <cmath>

#include "grape/grape.h"
#include "grape/mintime.h"
#include "linalg/random_unitary.h"
#include "linalg/su2.h"
#include "pulse/evolve.h"
#include "pulse/library.h"

namespace {

using namespace qpc;

TEST(GrapeSmoke, GradientMatchesFiniteDifferences)
{
    DeviceModel device = DeviceModel::gmonLine(1);
    GrapeOptions options;
    options.dt = 0.1;
    const double err = grapeGradientCheck(device, hMatrix(), 2.0,
                                          options, 20);
    EXPECT_LT(err, 2e-3);
}

TEST(GrapeSmoke, GradientMatchesFiniteDifferencesTwoQubit)
{
    DeviceModel device = DeviceModel::gmonLine(2);
    GrapeOptions options;
    options.dt = 0.1;
    const double err = grapeGradientCheck(
        device, gateMatrix(GateKind::CX), 5.0, options, 20);
    EXPECT_LT(err, 2e-3);
}

TEST(GrapeSmoke, GradientMatchesFiniteDifferencesWidthThree)
{
    // Width-3 block (d = 8) with every regularizer on: the backward
    // pass's eigenbasis products and the regularizer gradients both
    // face central differences.
    const DeviceModel device = DeviceModel::gmonClique(3);
    Rng rng(43);
    const CMatrix target = haarUnitary(8, rng);
    GrapeOptions options;
    options.dt = 0.1;
    options.amplitudeWeight = 0.3;
    options.slopeWeight = 0.2;
    options.envelopeWeight = 0.5;
    const double err =
        grapeGradientCheck(device, target, 4.0, options, 20);
    EXPECT_LT(err, 2e-3);
}

TEST(GrapeSmoke, FindsHadamardPulse)
{
    DeviceModel device = DeviceModel::gmonLine(1);
    GrapeOptions options;
    options.dt = 0.1;
    options.maxIterations = 400;
    options.hyper = AdamHyperParams{0.1, 0.999};
    GrapeResult run = runGrapeFixedTime(device, hMatrix(), 3.0, options);
    EXPECT_TRUE(run.converged) << "final fidelity " << run.fidelity;

    // Re-simulate the pulse independently and confirm the fidelity.
    const CMatrix realized = evolveUnitary(device, run.pulse);
    EXPECT_GT(traceFidelity(hMatrix(), realized), 0.999);
}

TEST(GrapeSmoke, WidthThreeTrajectoryIsPinned)
{
    // The only tier-1 GRAPE run on a width-3 block (d = 8): its
    // fidelity history must not drift with the eigensolver, the
    // Daleckii-Krein gradient or the compiler's rounding.
    const DeviceModel device = DeviceModel::gmonClique(3);
    Rng rng(42);
    const CMatrix target = haarUnitary(8, rng);
    GrapeOptions options;
    options.dt = 0.1;
    options.maxIterations = 20;
    const GrapeResult run =
        runGrapeFixedTime(device, target, 8.0, options);
    ASSERT_EQ(run.history.size(), 21u);

    const struct
    {
        int iteration;
        double fidelity;
    } pins[] = {{0, 0.033526258776},
                {5, 0.025147682409},
                {10, 0.045820705299},
                {15, 0.163871436093},
                {20, 0.286929517216}};
    for (const auto& pin : pins)
        EXPECT_NEAR(run.history[pin.iteration], pin.fidelity, 1e-8)
            << "iteration " << pin.iteration;
}

TEST(GrapeSmoke, FinalFidelityMatchesEvolveUnitary)
{
    // A run capped short of convergence reports the fidelity of its
    // final fidelity-only pass; the independent Taylor integrator must
    // agree with it.
    const DeviceModel device = DeviceModel::gmonClique(2);
    Rng rng(44);
    const CMatrix target = haarUnitary(4, rng);
    GrapeOptions options;
    options.dt = 0.1;
    options.maxIterations = 5;
    const GrapeResult run =
        runGrapeFixedTime(device, target, 4.0, options);
    ASSERT_FALSE(run.converged);
    ASSERT_EQ(run.history.size(), 6u);
    const double independent =
        traceFidelity(target, evolveUnitary(device, run.pulse));
    EXPECT_NEAR(run.fidelity, independent, 1e-10);
    EXPECT_EQ(run.history.back(), run.fidelity);
}

TEST(GrapeSmoke, PulseLibraryHadamardIsExact)
{
    DeviceModel device = DeviceModel::gmonLine(1);
    GatePulseLibrary library(device, 0.01);
    const CMatrix realized = evolveUnitary(device, library.h(0));
    EXPECT_GT(traceFidelity(hMatrix(), realized), 0.9999);
}

TEST(GrapeSmoke, PulseLibraryCxIsExact)
{
    DeviceModel device = DeviceModel::gmonLine(2);
    GatePulseLibrary library(device, 0.01);
    const CMatrix realized = evolveUnitary(device, library.cx(0, 1));
    EXPECT_GT(traceFidelity(gateMatrix(GateKind::CX), realized), 0.999);
}

} // namespace
