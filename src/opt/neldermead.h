/**
 * @file
 * Nelder-Mead derivative-free minimizer.
 *
 * The classical half of a variational algorithm: the paper (following
 * standard practice) drives VQE / QAOA with an optimizer robust to
 * small amounts of noise, typically Nelder-Mead. This implementation
 * follows the standard reflect / expand / contract / shrink scheme
 * with adaptive simplex initialization.
 */

#ifndef QPC_OPT_NELDERMEAD_H
#define QPC_OPT_NELDERMEAD_H

#include <functional>
#include <vector>

namespace qpc {

class ThreadPool;

/**
 * Progress of one completed simplex update, reported through
 * NelderMeadOptions::onIteration. The step norm and simplex diameter
 * are the optimizer-movement signals consumers use to detect
 * convergence-in-progress — the adaptive quantization drivers trigger
 * grid-refinement rounds once the step norm falls below their
 * threshold (the optimizer has stopped leaping and started homing).
 */
struct NelderMeadIterationInfo
{
    int iteration = 0;        ///< Simplex updates completed so far.
    double bestValue = 0.0;   ///< Objective at the current best vertex.
    /**
     * Euclidean distance the simplex update moved a vertex: the
     * replaced worst vertex to its replacement on reflect / expand /
     * contract, the largest vertex displacement on a shrink. Shrinks
     * toward zero as the optimizer converges.
     */
    double stepNorm = 0.0;
    /** Largest distance from the best vertex to any other vertex. */
    double simplexDiameter = 0.0;
};

/** Termination and shape knobs for Nelder-Mead. */
struct NelderMeadOptions
{
    int maxIterations = 2000;     ///< Hard cap on simplex updates.
    double fTolerance = 1e-9;     ///< Stop when simplex f-spread < tol.
    double initialStep = 0.5;     ///< Per-coordinate simplex offset.
    double reflection = 1.0;
    double expansion = 2.0;
    double contraction = 0.5;
    double shrink = 0.5;
    /** Called after every completed simplex update (movement metrics
     * are only computed when set — the bare loop stays free). Always
     * fired from the calling thread, after the update commits, with
     * the same iteration numbers whether evaluation is serial or
     * pooled — refinement triggers hanging off this callback see one
     * iteration stream regardless of worker count. */
    std::function<void(const NelderMeadIterationInfo&)> onIteration;
    /**
     * Optional worker pool for batched objective evaluation: the
     * initial simplex and shrink vertices evaluate concurrently;
     * reflections, expansions and contractions stay on the calling
     * thread. The pool evaluates exactly the points the serial run
     * does and results are reduced in slot order, so the optimizer
     * trajectory — every vertex, value, evaluation and iteration
     * count, and onIteration report — is bit-identical to the serial
     * run at any worker count. The objective must be thread-safe.
     * Null keeps evaluation on the calling thread.
     */
    ThreadPool* evalPool = nullptr;
};

/** Outcome of a Nelder-Mead run. */
struct NelderMeadResult
{
    std::vector<double> best;     ///< Minimizing point found.
    double bestValue = 0.0;       ///< Objective at best.
    int iterations = 0;           ///< Simplex updates performed.
    int evaluations = 0;          ///< Objective calls made.
    bool converged = false;       ///< Stopped on fTolerance.
};

/**
 * Minimize an objective from an initial point.
 *
 * @param objective Function of a parameter vector.
 * @param start Initial point (defines the dimension).
 */
NelderMeadResult
nelderMead(const std::function<double(const std::vector<double>&)>&
               objective,
           const std::vector<double>& start,
           const NelderMeadOptions& options = {});

} // namespace qpc

#endif // QPC_OPT_NELDERMEAD_H
