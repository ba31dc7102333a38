#include "opt/neldermead.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "opt/batcheval.h"

namespace qpc {

namespace {

double
distance(const std::vector<double>& a, const std::vector<double>& b)
{
    double sum = 0.0;
    for (std::size_t d = 0; d < a.size(); ++d)
        sum += (a[d] - b[d]) * (a[d] - b[d]);
    return std::sqrt(sum);
}

} // namespace

NelderMeadResult
nelderMead(const std::function<double(const std::vector<double>&)>&
               objective,
           const std::vector<double>& start,
           const NelderMeadOptions& options)
{
    const int n = static_cast<int>(start.size());
    fatalIf(n == 0, "nelderMead needs at least one dimension");

    NelderMeadResult result;

    // Simplex of n + 1 vertices: start plus one offset per axis.
    std::vector<std::vector<double>> simplex(n + 1, start);
    for (int i = 0; i < n; ++i)
        simplex[i + 1][i] += options.initialStep;

    // The n + 1 initial vertices are independent: evaluate as one
    // batch (serial in index order without a pool).
    std::vector<double> values(n + 1);
    {
        std::vector<const std::vector<double>*> points(n + 1);
        for (int i = 0; i <= n; ++i)
            points[i] = &simplex[i];
        evaluateBatch(objective, points, values.data(),
                      options.evalPool);
        result.evaluations += n + 1;
    }

    std::vector<int> order(n + 1);
    for (int iter = 0; iter < options.maxIterations; ++iter) {
        // Sort vertex indices by objective value.
        for (int i = 0; i <= n; ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&](int a, int b) { return values[a] < values[b]; });
        const int best = order[0];
        const int worst = order[n];
        const int second_worst = order[n - 1];

        if (std::abs(values[worst] - values[best]) <
            options.fTolerance) {
            result.converged = true;
            break;
        }
        // Counted after the convergence check so `iterations` is
        // exactly the simplex updates performed — and exactly the
        // number of onIteration reports.
        ++result.iterations;

        // Centroid of all vertices except the worst.
        std::vector<double> centroid(n, 0.0);
        for (int i = 0; i <= n; ++i) {
            if (i == worst)
                continue;
            for (int d = 0; d < n; ++d)
                centroid[d] += simplex[i][d];
        }
        for (int d = 0; d < n; ++d)
            centroid[d] /= n;

        auto blend = [&](double factor) {
            std::vector<double> point(n);
            for (int d = 0; d < n; ++d)
                point[d] = centroid[d] +
                           factor * (simplex[worst][d] - centroid[d]);
            return point;
        };

        // Movement metrics are only worth their copies when someone
        // is listening.
        std::vector<double> displaced;
        if (options.onIteration)
            displaced = simplex[worst];
        auto finishIteration = [&](double step_norm) {
            if (!options.onIteration)
                return;
            int b = 0;
            for (int i = 1; i <= n; ++i)
                if (values[i] < values[b])
                    b = i;
            NelderMeadIterationInfo info;
            info.iteration = result.iterations;
            info.bestValue = values[b];
            info.stepNorm = step_norm;
            for (int i = 0; i <= n; ++i)
                info.simplexDiameter = std::max(
                    info.simplexDiameter,
                    distance(simplex[i], simplex[b]));
            options.onIteration(info);
        };

        std::vector<double> reflected = blend(-options.reflection);
        const double f_reflected = objective(reflected);
        ++result.evaluations;

        if (f_reflected < values[best]) {
            std::vector<double> expanded =
                blend(-options.reflection * options.expansion);
            const double f_expanded = objective(expanded);
            ++result.evaluations;
            if (f_expanded < f_reflected) {
                simplex[worst] = std::move(expanded);
                values[worst] = f_expanded;
            } else {
                simplex[worst] = std::move(reflected);
                values[worst] = f_reflected;
            }
            finishIteration(options.onIteration
                                ? distance(displaced, simplex[worst])
                                : 0.0);
            continue;
        }
        if (f_reflected < values[second_worst]) {
            simplex[worst] = std::move(reflected);
            values[worst] = f_reflected;
            finishIteration(options.onIteration
                                ? distance(displaced, simplex[worst])
                                : 0.0);
            continue;
        }

        // Contraction (outside if the reflected point improved on the
        // worst, inside otherwise).
        const bool outside = f_reflected < values[worst];
        std::vector<double> contracted =
            blend(outside ? -options.contraction : options.contraction);
        const double f_contracted = objective(contracted);
        ++result.evaluations;
        const double f_gate = outside ? f_reflected : values[worst];
        if (f_contracted < f_gate) {
            simplex[worst] = std::move(contracted);
            values[worst] = f_contracted;
            finishIteration(options.onIteration
                                ? distance(displaced, simplex[worst])
                                : 0.0);
            continue;
        }

        // Shrink toward the best vertex: move every non-best vertex
        // first, then evaluate the n new vertices as one batch (slot
        // order keeps the values identical to the serial loop).
        std::vector<std::vector<double>> pre_shrink;
        if (options.onIteration)
            pre_shrink = simplex;
        std::vector<const std::vector<double>*> shrunk;
        std::vector<int> shrunk_idx;
        shrunk.reserve(n);
        shrunk_idx.reserve(n);
        for (int i = 0; i <= n; ++i) {
            if (i == best)
                continue;
            for (int d = 0; d < n; ++d)
                simplex[i][d] =
                    simplex[best][d] +
                    options.shrink * (simplex[i][d] - simplex[best][d]);
            shrunk.push_back(&simplex[i]);
            shrunk_idx.push_back(i);
        }
        std::vector<double> shrunk_values(shrunk.size());
        evaluateBatch(objective, shrunk, shrunk_values.data(),
                      options.evalPool);
        for (std::size_t s = 0; s < shrunk_idx.size(); ++s) {
            values[shrunk_idx[s]] = shrunk_values[s];
            ++result.evaluations;
        }
        if (options.onIteration) {
            double moved = 0.0;
            for (int i = 0; i <= n; ++i)
                moved = std::max(moved,
                                 distance(pre_shrink[i], simplex[i]));
            finishIteration(moved);
        }
    }

    const auto best_it = std::min_element(values.begin(), values.end());
    result.bestValue = *best_it;
    result.best = simplex[best_it - values.begin()];
    return result;
}

} // namespace qpc
