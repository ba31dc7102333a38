/**
 * @file
 * End-to-end QAOA driver.
 *
 * The full hybrid loop of Figure 1 (runtime/hybridloop.h) with the
 * state-vector simulator standing in for quantum hardware: bind
 * parameters, prepare the QAOA state, measure the MAXCUT cost
 * expectation, and let Nelder-Mead propose the next parameters. Also
 * tallies the compilation latency each strategy would have paid across
 * the loop, which quantifies the paper's aggregate-impact argument
 * (Section 8.4).
 */

#ifndef QPC_QAOA_QAOADRIVER_H
#define QPC_QAOA_QAOADRIVER_H

#include "partial/compiler.h"
#include "qaoa/graph.h"
#include "qaoa/maxcut.h"
#include "qaoa/qaoacircuit.h"
#include "runtime/hybridloop.h"

namespace qpc {

/** Configuration of one QAOA optimization run (the shared loop
 * knobs, including the seed, live in HybridLoopOptions). */
struct QaoaRunOptions : HybridLoopOptions
{
    int p = 1;                        ///< QAOA depth.
};

/** Outcome of one QAOA optimization run (bestParams, iterations and
 * the serving accounting live in HybridLoopResult). */
struct QaoaResult : HybridLoopResult
{
    double bestCost = 0.0;            ///< min <H_C> found.
    double expectedCutValue = 0.0;    ///< -bestCost.
    int maxCut = 0;                   ///< Brute-force optimum.
    double approxRatio = 0.0;         ///< expectedCut / maxCut.
};

/** Run the hybrid QAOA loop on a graph. */
QaoaResult runQaoa(const Graph& graph, const QaoaRunOptions& options);

/**
 * Total compilation latency each strategy pays across a variational
 * run of `iterations` steps (runtime latency accumulates per
 * iteration; pre-compute is paid once).
 */
struct AggregateLatency
{
    Strategy strategy;
    double precomputeSeconds;
    double totalRuntimeSeconds;
};

std::vector<AggregateLatency>
aggregateLatencies(const PartialCompiler& compiler,
                   const std::vector<double>& theta, int iterations);

} // namespace qpc

#endif // QPC_QAOA_QAOADRIVER_H
