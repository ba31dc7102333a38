#include "qaoa/qaoadriver.h"

#include "common/logging.h"
#include "common/rng.h"

namespace qpc {

QaoaResult
runQaoa(const Graph& graph, const QaoaRunOptions& options)
{
    const Circuit circuit = buildQaoaCircuit(graph, options.p);
    Rng rng(options.seed);
    const std::vector<double> start = rng.angles(2 * options.p);

    QaoaResult result;
    result.maxCut = bruteForceMaxCut(graph);
    result.bestCost = runHybridLoop(
        circuit, maxcutCostHamiltonian(graph), start, options, result);
    result.expectedCutValue = expectedCut(result.bestCost);
    result.approxRatio =
        result.maxCut > 0 ? result.expectedCutValue / result.maxCut
                          : 0.0;
    return result;
}

std::vector<AggregateLatency>
aggregateLatencies(const PartialCompiler& compiler,
                   const std::vector<double>& theta, int iterations)
{
    fatalIf(iterations <= 0, "need a positive iteration count");
    std::vector<AggregateLatency> out;
    for (Strategy strategy : allStrategies()) {
        const CompileReport report = compiler.compile(strategy, theta);
        AggregateLatency agg;
        agg.strategy = strategy;
        agg.precomputeSeconds = report.precomputeSeconds;
        agg.totalRuntimeSeconds = report.runtimeSeconds * iterations;
        out.push_back(agg);
    }
    return out;
}

} // namespace qpc
