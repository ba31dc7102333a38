#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <tuple>
#include <vector>

#include "opt/adam.h"
#include "opt/neldermead.h"
#include "runtime/threadpool.h"

namespace {

using namespace qpc;

TEST(NelderMead, QuadraticBowl)
{
    auto f = [](const std::vector<double>& x) {
        double s = 0.0;
        for (size_t i = 0; i < x.size(); ++i)
            s += (x[i] - 1.0 * (i + 1)) * (x[i] - 1.0 * (i + 1));
        return s;
    };
    const NelderMeadResult r = nelderMead(f, {0.0, 0.0, 0.0});
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.best[0], 1.0, 1e-3);
    EXPECT_NEAR(r.best[1], 2.0, 1e-3);
    EXPECT_NEAR(r.best[2], 3.0, 1e-3);
    EXPECT_LT(r.bestValue, 1e-6);
}

TEST(NelderMead, Rosenbrock2d)
{
    auto f = [](const std::vector<double>& x) {
        const double a = 1.0 - x[0];
        const double b = x[1] - x[0] * x[0];
        return a * a + 100.0 * b * b;
    };
    NelderMeadOptions options;
    options.maxIterations = 5000;
    const NelderMeadResult r = nelderMead(f, {-1.2, 1.0}, options);
    EXPECT_NEAR(r.best[0], 1.0, 1e-2);
    EXPECT_NEAR(r.best[1], 1.0, 1e-2);
}

TEST(NelderMead, IterationCallbackReportsShrinkingMovement)
{
    // The optimizer-movement signal the adaptive quantization drivers
    // key refinement on: per-iteration step norms and simplex
    // diameters, both shrinking to ~zero as the optimizer converges.
    auto f = [](const std::vector<double>& x) {
        return (x[0] - 1.0) * (x[0] - 1.0) +
               (x[1] + 2.0) * (x[1] + 2.0);
    };
    std::vector<double> step_norms;
    std::vector<double> diameters;
    std::vector<double> best_values;
    NelderMeadOptions options;
    options.onIteration = [&](const NelderMeadIterationInfo& info) {
        EXPECT_EQ(info.iteration,
                  static_cast<int>(step_norms.size()) + 1);
        step_norms.push_back(info.stepNorm);
        diameters.push_back(info.simplexDiameter);
        best_values.push_back(info.bestValue);
    };
    const NelderMeadResult r = nelderMead(f, {4.0, 4.0}, options);
    EXPECT_TRUE(r.converged);
    // One report per completed simplex update.
    ASSERT_EQ(static_cast<int>(step_norms.size()), r.iterations);

    // Every update moved something, and the reported best never got
    // worse.
    for (double s : step_norms)
        EXPECT_GT(s, 0.0);
    for (size_t i = 1; i < best_values.size(); ++i)
        EXPECT_LE(best_values[i], best_values[i - 1] + 1e-12);
    // Convergence is visible in the movement signals: the tail is
    // orders of magnitude below the head.
    EXPECT_LT(step_norms.back(), 1e-3);
    EXPECT_LT(diameters.back(), 1e-3);
    EXPECT_GT(step_norms.front(), 0.1);
    EXPECT_GT(diameters.front(), 0.1);
    // The final best matches the result the caller gets.
    EXPECT_NEAR(best_values.back(), r.bestValue, 1e-12);
}

TEST(NelderMead, RespectsIterationCap)
{
    auto f = [](const std::vector<double>& x) {
        return x[0] * x[0];
    };
    NelderMeadOptions options;
    options.maxIterations = 3;
    const NelderMeadResult r = nelderMead(f, {5.0}, options);
    EXPECT_LE(r.iterations, 3);
}

TEST(NelderMead, NoisyObjectiveStillImproves)
{
    // A small deterministic "noise" ripple on a bowl; Nelder-Mead is
    // chosen in variational algorithms for exactly this robustness.
    auto f = [](const std::vector<double>& x) {
        double s = 0.0;
        for (double v : x)
            s += v * v;
        return s + 0.01 * std::sin(37.0 * x[0]) *
                       std::cos(23.0 * (x.size() > 1 ? x[1] : 0.0));
    };
    const NelderMeadResult r = nelderMead(f, {3.0, -2.0});
    EXPECT_LT(r.bestValue, 0.05);
}

TEST(Adam, ConvergesOnQuadratic)
{
    AdamOptimizer adam(2, AdamHyperParams{0.1, 1.0});
    std::vector<double> x{4.0, -3.0};
    for (int i = 0; i < 500; ++i) {
        const std::vector<double> grad{2.0 * (x[0] - 1.0),
                                       2.0 * (x[1] + 2.0)};
        adam.step(x, grad);
    }
    EXPECT_NEAR(x[0], 1.0, 1e-2);
    EXPECT_NEAR(x[1], -2.0, 1e-2);
    EXPECT_EQ(adam.stepsTaken(), 500);
}

TEST(Adam, DecayShrinksEffectiveRate)
{
    const AdamHyperParams h{0.1, 0.99};
    EXPECT_NEAR(h.rateAt(0), 0.1, 1e-12);
    EXPECT_LT(h.rateAt(100), 0.1 * 0.4);

    // With aggressive decay the optimizer moves less overall.
    auto run = [](double decay) {
        AdamOptimizer adam(1, AdamHyperParams{0.05, decay});
        std::vector<double> x{10.0};
        for (int i = 0; i < 200; ++i) {
            const std::vector<double> grad{2.0 * x[0]};
            adam.step(x, grad);
        }
        return x[0];
    };
    EXPECT_GT(run(0.9), run(1.0));
}

TEST(Adam, HandlesSparseGradients)
{
    AdamOptimizer adam(3, AdamHyperParams{0.05, 1.0});
    std::vector<double> x{1.0, 1.0, 1.0};
    std::vector<double> grad{0.0, 1.0, 0.0};
    for (int i = 0; i < 100; ++i)
        adam.step(x, grad);
    EXPECT_NEAR(x[0], 1.0, 1e-12);   // untouched coordinate
    EXPECT_LT(x[1], 1.0);
}

// ---------------------------------------------------------------------
// Parallel batch evaluation: bit-determinism across worker counts
// ---------------------------------------------------------------------

/** A deterministic, thread-safe, moderately nasty objective. */
double
ripplyBowl(const std::vector<double>& x)
{
    double s = 0.0;
    for (size_t i = 0; i < x.size(); ++i) {
        const double d = x[i] - 0.7 * static_cast<double>(i + 1);
        s += d * d + 0.05 * std::sin(13.0 * x[i]);
    }
    return s;
}

/** Everything observable about one Nelder-Mead run, including the
 * full onIteration stream the refinement triggers key off and the
 * objective calls that actually happened. */
struct NmTrace
{
    NelderMeadResult result;
    std::vector<std::tuple<int, double, double, double>> stream;
    int objectiveCalls = 0;
};

NmTrace
runNmTrace(ThreadPool* pool)
{
    NmTrace trace;
    std::atomic<int> calls{0};
    NelderMeadOptions options;
    options.maxIterations = 400;
    options.evalPool = pool;
    options.onIteration = [&](const NelderMeadIterationInfo& info) {
        trace.stream.emplace_back(info.iteration, info.bestValue,
                                  info.stepNorm, info.simplexDiameter);
    };
    trace.result = nelderMead(
        [&](const std::vector<double>& x) {
            calls.fetch_add(1, std::memory_order_relaxed);
            return ripplyBowl(x);
        },
        {2.0, -1.5, 3.0, 0.5}, options);
    trace.objectiveCalls = calls.load();
    return trace;
}

TEST(NelderMead, ParallelEvaluationBitIdenticalAcrossWorkerCounts)
{
    const NmTrace serial = runNmTrace(nullptr);
    // No evaluation goes unreported: a side-effecting objective (an
    // adaptive grid's visit counters) sees exactly `evaluations` calls.
    EXPECT_EQ(serial.objectiveCalls, serial.result.evaluations);

    for (int workers : {1, 2, 8}) {
        ThreadPool pool(workers);
        const NmTrace pooled = runNmTrace(&pool);
        EXPECT_EQ(pooled.objectiveCalls, pooled.result.evaluations)
            << workers << " workers";

        // Identical trajectory, bit for bit: best point, value,
        // iteration and evaluation counts.
        ASSERT_EQ(pooled.result.best.size(),
                  serial.result.best.size());
        for (size_t i = 0; i < serial.result.best.size(); ++i)
            EXPECT_EQ(pooled.result.best[i], serial.result.best[i])
                << workers << " workers, coord " << i;
        EXPECT_EQ(pooled.result.bestValue, serial.result.bestValue);
        EXPECT_EQ(pooled.result.iterations, serial.result.iterations);
        EXPECT_EQ(pooled.result.evaluations,
                  serial.result.evaluations);
        EXPECT_EQ(pooled.result.converged, serial.result.converged);

        // The onIteration stream — what the hybrid loop's refinement
        // trigger gates on — is identical too, so adaptive-grid
        // refinement fires at the same iterations at any worker
        // count.
        ASSERT_EQ(pooled.stream.size(), serial.stream.size())
            << workers << " workers";
        for (size_t i = 0; i < serial.stream.size(); ++i)
            EXPECT_EQ(pooled.stream[i], serial.stream[i])
                << workers << " workers, report " << i;
    }
}

TEST(AdamFd, ConvergesOnQuadratic)
{
    AdamFdOptions options;
    options.maxIterations = 400;
    options.hyper.learningRate = 0.1;
    const AdamFdResult r =
        adamMinimizeFd(ripplyBowl, {3.0, 3.0, 3.0, 3.0}, options);
    EXPECT_LT(r.bestValue, ripplyBowl({3.0, 3.0, 3.0, 3.0}));
    EXPECT_EQ(r.iterations, 400);
    // 2N probes per iteration plus the final evaluation.
    EXPECT_EQ(r.evaluations, 400 * 8 + 1);
}

TEST(AdamFd, ParallelProbesBitIdenticalAcrossWorkerCounts)
{
    AdamFdOptions options;
    options.maxIterations = 150;
    options.hyper.learningRate = 0.05;
    const AdamFdResult serial =
        adamMinimizeFd(ripplyBowl, {1.0, -2.0, 0.5}, options);

    for (int workers : {1, 2, 8}) {
        ThreadPool pool(workers);
        AdamFdOptions pooled_options = options;
        pooled_options.evalPool = &pool;
        const AdamFdResult pooled =
            adamMinimizeFd(ripplyBowl, {1.0, -2.0, 0.5},
                           pooled_options);
        ASSERT_EQ(pooled.best.size(), serial.best.size());
        for (size_t i = 0; i < serial.best.size(); ++i)
            EXPECT_EQ(pooled.best[i], serial.best[i])
                << workers << " workers, coord " << i;
        EXPECT_EQ(pooled.bestValue, serial.bestValue);
        EXPECT_EQ(pooled.evaluations, serial.evaluations);
        EXPECT_EQ(pooled.iterations, serial.iterations);
    }
}

TEST(AdamFd, GradToleranceStopsEarly)
{
    AdamFdOptions options;
    options.maxIterations = 5000;
    options.gradTolerance = 1e-4;
    options.hyper.learningRate = 0.1;
    auto bowl = [](const std::vector<double>& x) {
        return (x[0] - 2.0) * (x[0] - 2.0);
    };
    const AdamFdResult r = adamMinimizeFd(bowl, {5.0}, options);
    EXPECT_TRUE(r.converged);
    EXPECT_LT(r.iterations, 5000);
    EXPECT_NEAR(r.best[0], 2.0, 1e-3);
}

} // namespace
