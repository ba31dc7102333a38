#include "runtime/hybridloop.h"

#include <algorithm>
#include <memory>
#include <mutex>

#include "partial/strict.h"
#include "runtime/threadpool.h"
#include "sim/statevector.h"

namespace qpc {

namespace {

/**
 * Wrap `optimizer` with the convergence-gated refinement trigger:
 * once the per-iteration step norm falls to
 * ParamQuantization::refineStepNorm (the optimizer has stopped
 * leaping and started homing in), refine the plan's grid at most
 * every refineCooldown iterations, chaining any callback already
 * installed. Rounds accumulate into `result`.
 */
NelderMeadOptions
withRefinementTrigger(NelderMeadOptions optimizer,
                      CompileService& service, const ServingPlan& plan,
                      HybridLoopResult& result)
{
    const ParamQuantization quant = plan.quantization();
    auto chained = optimizer.onIteration;
    int last_round = -quant.refineCooldown;
    optimizer.onIteration =
        [&service, &plan, &result, quant, chained,
         last_round](const NelderMeadIterationInfo& info) mutable {
            if (chained)
                chained(info);
            // Big steps mean the optimizer is still leaping across
            // the landscape, where finer bins would be wasted on
            // regions it never revisits.
            if (quant.refineStepNorm > 0.0 &&
                info.stepNorm > quant.refineStepNorm)
                return;
            if (info.iteration - last_round < quant.refineCooldown)
                return;
            last_round = info.iteration;
            const RefinementReport round =
                service.refineQuantizedGrid(plan);
            if (round.leavesSplit == 0)
                return;
            ++result.quantRefineRounds;
            result.quantSplits +=
                static_cast<std::uint64_t>(round.leavesSplit);
            result.quantRefineSynths += round.synthRuns;
            result.quantBytesReleased += round.bytesReleased;
        };
    return optimizer;
}

} // namespace

double
runHybridLoop(const Circuit& circuit, const PauliHamiltonian& observable,
              const std::vector<double>& start,
              const HybridLoopOptions& options, HybridLoopResult& result)
{
    // A shared service takes precedence; otherwise serviceOptions
    // spins up a run-owned one, so single-run callers get the full
    // resource-bounded serve path without managing a service object.
    std::unique_ptr<CompileService> owned;
    CompileService* service = options.compileService;
    if (!service && options.serviceOptions) {
        owned = std::make_unique<CompileService>(*options.serviceOptions);
        service = owned.get();
    }

    // Pay the strict-partial pre-compute once up front (block
    // synthesis and the serving plan's blocking/fingerprints); the
    // loop then serves each binding from the warm cache.
    ServingPlan plan;
    if (service) {
        plan = options.quantization
                   ? service->prepareServing(strictPartition(circuit),
                                             *options.quantization)
                   : service->prepareServing(strictPartition(circuit));
        const BatchCompileReport precompute =
            service->precompilePlan(plan);
        result.precomputeWallSeconds = precompute.wallSeconds;
        result.precompiledBlocks = precompute.uniqueBlocks;
        if (options.prewarmQuantizedBins)
            result.precomputeWallSeconds +=
                service->prewarmQuantizedBins(plan).wallSeconds;
    }
    const bool quantized = service && plan.quantization().enabled;

    // Quantized serving delivers pulses for the *snapped* angles (the
    // current adaptive leaf representatives when the plan refines),
    // so that is what the simulated hardware must execute — the value
    // honestly carries the grid's substitution error.
    auto measure = [&](const std::vector<double>& theta) {
        StateVector state(circuit.numQubits());
        state.applyCircuit(
            quantized
                ? service->snapServedRotations(plan, circuit, theta)
                : circuit.bind(theta));
        return observable.expectation(state);
    };

    // With optimizerThreads the objective runs concurrently on pool
    // workers; the accounting is the only shared state, so one mutex
    // keeps it exact without serializing the evaluations.
    std::mutex stats_mu;
    auto objective = [&](const std::vector<double>& theta) {
        if (service) {
            const ServedPulse served = service->serve(plan, theta);
            std::lock_guard<std::mutex> lock(stats_mu);
            result.servedCacheHits += served.cacheHits;
            result.servedCacheMisses += served.cacheMisses;
            result.quantHits += served.quantHits;
            result.quantMisses += served.quantMisses;
            result.quantFallbacks += served.quantFallbacks;
            result.maxQuantErrorBound = std::max(
                result.maxQuantErrorBound, served.quantErrorBound);
        }
        return measure(theta);
    };

    NelderMeadOptions optimizer = options.optimizer;
    if (quantized && plan.quantization().adaptive)
        optimizer = withRefinementTrigger(std::move(optimizer),
                                          *service, plan, result);
    std::unique_ptr<ThreadPool> eval_pool;
    if (options.optimizerThreads > 0) {
        eval_pool =
            std::make_unique<ThreadPool>(options.optimizerThreads);
        optimizer.evalPool = eval_pool.get();
    }

    const NelderMeadResult opt = nelderMead(objective, start, optimizer);
    result.bestParams = opt.best;
    result.iterations = opt.evaluations;
    if (!quantized)
        return opt.bestValue;
    // Refinement may have split bestParams' leaves after their last
    // evaluation, so re-serve and re-measure on the final topology:
    // the reported value and bound must describe the same pulses.
    result.finalQuantErrorBound =
        service->serve(plan, opt.best).quantErrorBound;
    return measure(opt.best);
}

} // namespace qpc
