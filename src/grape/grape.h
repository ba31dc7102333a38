/**
 * @file
 * GRAPE: GRadient Ascent Pulse Engineering (Sections 2.4 / 5).
 *
 * Numerically searches for the time-discretized control fields that
 * realize a target unitary on a device. The forward pass integrates
 * piecewise-constant evolution by diagonalizing each time slice's
 * Hamiltonian, which must be real symmetric; gradients of the
 * phase-invariant trace fidelity are computed analytically by the
 * adjoint method and fed to ADAM, mirroring the TensorFlow
 * implementation of Leung et al. that the paper builds on.
 *
 * Control fields are parametrized as u = maxAmp * tanh(x) so the
 * hardware amplitude bounds of Appendix A hold by construction, and
 * optional cost terms regularize amplitude, slope (smooth first
 * differences), and a Gaussian envelope — the "more realistic pulses"
 * configuration of Section 8.3.
 */

#ifndef QPC_GRAPE_GRAPE_H
#define QPC_GRAPE_GRAPE_H

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "opt/adam.h"
#include "pulse/device.h"
#include "pulse/schedule.h"

namespace qpc {

/** Cost weights and optimizer configuration for one GRAPE run. */
struct GrapeOptions
{
    double dt = 0.05;                ///< Sample period, ns (20 GSa/s).
    double targetFidelity = 0.999;   ///< Paper's convergence target.
    int maxIterations = 300;         ///< ADAM iteration cap.
    AdamHyperParams hyper{0.05, 0.999};  ///< Untuned defaults.
    double amplitudeWeight = 0.0;    ///< L2 penalty on drive power.
    double slopeWeight = 0.0;        ///< Penalty on first differences.
    double envelopeWeight = 0.0;     ///< Gaussian-envelope penalty.
    uint64_t seed = 7;               ///< Pulse initialization seed.
};

/** Outcome of one fixed-duration GRAPE run. */
struct GrapeResult
{
    bool converged = false;       ///< Reached targetFidelity.
    double fidelity = 0.0;        ///< Final trace fidelity.
    int iterations = 0;           ///< ADAM steps performed.
    PulseSchedule pulse;          ///< Optimized control fields.
    double wallSeconds = 0.0;     ///< Compilation latency.
    std::vector<double> history;  ///< Fidelity per iteration.
};

/**
 * Optimize control pulses of a fixed total duration toward a target
 * unitary given in the qubit space (2^n dimensional); when the device
 * models qutrit levels, fidelity is evaluated on the computational
 * subspace so leakage is penalized.
 *
 * The device's drift and every control operator must be real
 * symmetric (every DeviceModel is), so that each slice Hamiltonian is
 * diagonalized by the real eigensolver; the run panics otherwise.
 */
GrapeResult runGrapeFixedTime(const DeviceModel& device,
                              const CMatrix& target, double total_time_ns,
                              const GrapeOptions& options = {});

/**
 * Numerical-vs-analytic gradient agreement check used by tests:
 * returns the max relative error of the adjoint gradient against
 * central finite differences at a random point.
 */
double grapeGradientCheck(const DeviceModel& device, const CMatrix& target,
                          double total_time_ns,
                          const GrapeOptions& options, int probes);

} // namespace qpc

#endif // QPC_GRAPE_GRAPE_H
