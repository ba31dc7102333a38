/**
 * @file
 * Deterministic batch evaluation of objective points.
 *
 * The classical optimizers (Nelder-Mead's initial and shrunk simplex
 * vertices, Adam's finite-difference probes) produce batches of
 * independent objective evaluations. This helper runs such a batch
 * through an optional ThreadPool with each result written to its
 * caller-assigned slot, so the output — and
 * therefore the optimizer trajectory — is bit-identical whether the
 * batch ran serially or on any number of workers.
 *
 * The objective must be thread-safe and must return the same value
 * for the same point regardless of which thread evaluates it (the
 * kernels layer's bit-compatibility contract gives the numeric stack
 * this property; driver objectives guard their stats with a mutex).
 */

#ifndef QPC_OPT_BATCHEVAL_H
#define QPC_OPT_BATCHEVAL_H

#include <functional>
#include <vector>

namespace qpc {

class ThreadPool;

/**
 * Evaluate `objective` at every point, writing objective(*points[i])
 * to results[i]. Null pool (or a single point) evaluates serially on
 * the calling thread in index order; otherwise the tail of the batch
 * is submitted to the pool while the calling thread takes the head.
 * Either way each slot i holds the same value.
 */
void evaluateBatch(
    const std::function<double(const std::vector<double>&)>& objective,
    const std::vector<const std::vector<double>*>& points,
    double* results, ThreadPool* pool);

} // namespace qpc

#endif // QPC_OPT_BATCHEVAL_H
