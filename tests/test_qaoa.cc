#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "linalg/expm.h"
#include "linalg/su2.h"
#include "qaoa/qaoadriver.h"
#include "sim/statevector.h"
#include "testutil.h"

namespace {

using namespace qpc;
using namespace qpc::testutil;

TEST(Graph, CliqueAndCycle)
{
    const Graph k4 = cliqueGraph(4);
    EXPECT_EQ(k4.numEdges(), 6);
    EXPECT_TRUE(k4.isConnected());
    const Graph c5 = cycleGraph(5);
    EXPECT_EQ(c5.numEdges(), 5);
    for (int d : c5.degrees())
        EXPECT_EQ(d, 2);
}

TEST(Graph, ThreeRegularDegrees)
{
    Rng rng(101);
    for (int n : {6, 8}) {
        const Graph g = random3Regular(n, rng);
        EXPECT_TRUE(g.isConnected());
        for (int d : g.degrees())
            EXPECT_EQ(d, 3) << "n " << n;
        EXPECT_EQ(g.numEdges(), 3 * n / 2);
    }
}

TEST(Graph, ErdosRenyiConnectedAndSeeded)
{
    Rng a(5), b(5);
    const Graph ga = erdosRenyi(8, 0.5, a);
    const Graph gb = erdosRenyi(8, 0.5, b);
    EXPECT_TRUE(ga.isConnected());
    EXPECT_EQ(ga.numEdges(), gb.numEdges());
}

TEST(MaxCut, TriangleAndClique)
{
    // Triangle: best cut 2. K4: best cut 4.
    EXPECT_EQ(bruteForceMaxCut(cliqueGraph(3)), 2);
    EXPECT_EQ(bruteForceMaxCut(cliqueGraph(4)), 4);
    // Even cycle is bipartite: all edges cut.
    EXPECT_EQ(bruteForceMaxCut(cycleGraph(6)), 6);
    // Odd cycle: one edge uncut.
    EXPECT_EQ(bruteForceMaxCut(cycleGraph(5)), 4);
}

TEST(MaxCut, CutValueCountsProperly)
{
    const Graph k3 = cliqueGraph(3);
    EXPECT_EQ(cutValue(k3, 0b000), 0);
    EXPECT_EQ(cutValue(k3, 0b001), 2);
    EXPECT_EQ(cutValue(k3, 0b011), 2);
}

TEST(MaxCut, HamiltonianExpectationOnBasisStates)
{
    const Graph k3 = cliqueGraph(3);
    const PauliHamiltonian h = maxcutCostHamiltonian(k3);
    // Basis |q0 q1 q2> = |001>: node 2 separated => cut 2 =>
    // <H_C> = -2. State index: qubit 0 is the MSB.
    StateVector sv(3);
    Circuit c(3);
    c.x(2);
    sv.applyCircuit(c);
    EXPECT_NEAR(h.expectation(sv), -2.0, 1e-10);
    EXPECT_NEAR(expectedCut(h.expectation(sv)), 2.0, 1e-10);
}

TEST(QaoaCircuit, ShapeAndParameterTags)
{
    const Graph g = cliqueGraph(4);
    for (int p = 1; p <= 3; ++p) {
        const Circuit c = buildQaoaCircuit(g, p);
        EXPECT_EQ(c.numParams(), 2 * p);
        EXPECT_TRUE(isParamMonotone(c));
        // Ops: n Hadamards + p * (3 per edge + n mixers).
        EXPECT_EQ(c.size(), 4 + p * (3 * g.numEdges() + 4));
    }
}

TEST(QaoaCircuit, CostLayerImplementsZzEvolution)
{
    // One edge at p=1, binding beta = 0: circuit is H x H followed by
    // exp(-i gamma ZZ).
    Graph g;
    g.numNodes = 2;
    g.edges = {{0, 1}};
    const Circuit c = buildQaoaCircuit(g, 1);
    const double gamma = 0.65;
    const Circuit bound = c.bind({gamma, 0.0});
    const CMatrix realized = circuitUnitary(bound);

    PauliHamiltonian zz(2);
    zz.add(1.0, "ZZ");
    CMatrix expected =
        expmGeneral(zz.toMatrix() * Complex{0.0, -gamma});
    expected = expected * kron(hMatrix(), hMatrix());
    EXPECT_TRUE(sameUpToPhase(expected, realized, 1e-8));
}

TEST(QaoaDriver, TriangleApproachesMaxCut)
{
    QaoaRunOptions options;
    options.p = 2;
    options.optimizer.maxIterations = 800;
    const QaoaResult result = runQaoa(cliqueGraph(3), options);
    EXPECT_EQ(result.maxCut, 2);
    EXPECT_GT(result.approxRatio, 0.85);
    EXPECT_LE(result.approxRatio, 1.0 + 1e-9);
}

TEST(QaoaDriver, DeeperPImproves)
{
    QaoaRunOptions shallow;
    shallow.p = 1;
    shallow.optimizer.maxIterations = 500;
    QaoaRunOptions deep = shallow;
    deep.p = 3;
    Rng rng(103);
    const Graph g = cycleGraph(5);
    const QaoaResult r1 = runQaoa(g, shallow);
    const QaoaResult r3 = runQaoa(g, deep);
    EXPECT_GE(r3.approxRatio, r1.approxRatio - 0.02);
}

// The QAOA half of VqeDriver.AdaptiveRefinementIdenticalAcrossOptimizerThreads:
// both drivers run one hybrid loop, so a pooled QAOA run must make the
// serial run's objective calls (each a real serve feeding the adaptive
// grid's visit counters) and refine and answer bit-identically.
TEST(QaoaDriver, AdaptiveRefinementIdenticalAcrossOptimizerThreads)
{
    Rng rng(17);
    const Graph graph = random3Regular(6, rng);

    struct Run
    {
        QaoaResult result;
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

        QaoaRunOptions options;
        options.p = 2;
        options.optimizer.maxIterations = 150;
        options.optimizer.onIteration =
            [&](const NelderMeadIterationInfo& info) {
                out.stream.emplace_back(info.iteration, info.stepNorm);
            };
        options.optimizerThreads = optimizer_threads;
        options.serviceOptions = service;
        out.result = runQaoa(graph, options);
        return out;
    };

    const Run serial = run(0);
    ASSERT_GT(serial.result.quantRefineRounds, 0);

    for (int workers : {1, 2, 8}) {
        const Run pooled = run(workers);
        EXPECT_EQ(pooled.result.quantRefineRounds,
                  serial.result.quantRefineRounds)
            << workers << " workers";
        EXPECT_EQ(pooled.result.quantSplits, serial.result.quantSplits);
        EXPECT_EQ(pooled.stream, serial.stream) << workers << " workers";
        EXPECT_EQ(pooled.result.bestCost, serial.result.bestCost);
        EXPECT_EQ(pooled.result.bestParams, serial.result.bestParams);
        EXPECT_EQ(pooled.result.iterations, serial.result.iterations);
        EXPECT_EQ(pooled.result.finalQuantErrorBound,
                  serial.result.finalQuantErrorBound);
    }
}

TEST(QaoaDriver, AggregateLatencyScalesWithIterations)
{
    const Graph g = cliqueGraph(4);
    const Circuit circuit = buildQaoaCircuit(g, 2);
    PartialCompiler compiler(circuit);
    Rng rng(104);
    const std::vector<double> theta = rng.angles(4);
    const auto once = aggregateLatencies(compiler, theta, 1);
    const auto many = aggregateLatencies(compiler, theta, 1000);
    ASSERT_EQ(once.size(), 4u);
    for (size_t i = 0; i < once.size(); ++i) {
        EXPECT_NEAR(many[i].totalRuntimeSeconds,
                    1000.0 * once[i].totalRuntimeSeconds, 1e-6);
        EXPECT_NEAR(many[i].precomputeSeconds,
                    once[i].precomputeSeconds, 1e-12);
    }
}

} // namespace
