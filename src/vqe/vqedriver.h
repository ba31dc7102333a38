/**
 * @file
 * End-to-end VQE driver (guess-check-repeat of Section 4.1).
 *
 * Runs the hybrid loop (runtime/hybridloop.h) with the state-vector
 * simulator as hardware: bind the UCCSD parameters, prepare the
 * ansatz state, measure the molecular Hamiltonian's energy, and let
 * Nelder-Mead propose the next amplitudes.
 */

#ifndef QPC_VQE_VQEDRIVER_H
#define QPC_VQE_VQEDRIVER_H

#include "ir/circuit.h"
#include "runtime/hybridloop.h"
#include "sim/pauli.h"

namespace qpc {

/** Configuration of one VQE run (the shared loop knobs, including
 * the seed, live in HybridLoopOptions). */
struct VqeRunOptions : HybridLoopOptions
{
    double initialSpread = 0.1; ///< Scale of the random start point.
};

/** Outcome of one VQE run (bestParams, iterations and the serving
 * accounting live in HybridLoopResult). */
struct VqeResult : HybridLoopResult
{
    double energy = 0.0;         ///< Lowest energy found.
    double exactGroundEnergy = 0.0;  ///< From diagonalization.
};

/**
 * Run VQE for an ansatz against a Hamiltonian. The exact ground
 * energy is computed by dense diagonalization when the system is
 * small enough (<= 10 qubits), for reporting the gap.
 */
VqeResult runVqe(const Circuit& ansatz,
                 const PauliHamiltonian& hamiltonian,
                 const VqeRunOptions& options = {});

} // namespace qpc

#endif // QPC_VQE_VQEDRIVER_H
