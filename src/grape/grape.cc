#include "grape/grape.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "linalg/eig.h"
#include "linalg/kernels.h"
#include "pulse/evolve.h"

namespace qpc {

namespace {

/**
 * Shared state for one cost/gradient evaluation over the flat
 * parameter vector x, laid out as x[c * nSteps + k].
 */
struct GrapeWorkspace
{
    const DeviceModel& device;
    CMatrix effTarget;     ///< Target embedded in device space (E).
    double qdim;           ///< Normalization dimension of the overlap.
    int nSteps;
    double dt;
    const GrapeOptions& options;
    std::vector<double> envelope;   ///< Gaussian window g_k.

    GrapeWorkspace(const DeviceModel& dev, const CMatrix& target,
                   int steps, const GrapeOptions& opts)
        : device(dev), qdim(static_cast<double>(1 << dev.numQubits())),
          nSteps(steps), dt(opts.dt), options(opts)
    {
        effTarget = CMatrix(dev.dim(), dev.dim());
        const std::vector<int> comp = dev.computationalIndices();
        const int q = static_cast<int>(comp.size());
        panicIf(target.rows() != q,
                "GRAPE target must act on the qubit space");
        for (int r = 0; r < q; ++r)
            for (int c = 0; c < q; ++c)
                effTarget(comp[r], comp[c]) = target(r, c);

        envelope.resize(steps);
        const double mid = 0.5 * (steps - 1);
        const double sigma = std::max(1.0, steps / 4.0);
        for (int k = 0; k < steps; ++k) {
            const double z = (k - mid) / sigma;
            envelope[k] = std::exp(-0.5 * z * z);
        }
    }

    int numControls() const { return device.numControls(); }
    int numParams() const { return numControls() * nSteps; }

    /** Bounded amplitude from the unconstrained parameter. */
    double
    amplitude(const std::vector<double>& x, int c, int k) const
    {
        const double bound = device.controls()[c].maxAmp;
        return bound * std::tanh(x[c * nSteps + k]);
    }

    /** d amplitude / d x at the same point. */
    double
    amplitudeGrad(const std::vector<double>& x, int c, int k) const
    {
        const double bound = device.controls()[c].maxAmp;
        const double t = std::tanh(x[c * nSteps + k]);
        return bound * (1.0 - t * t);
    }
};

/**
 * Cost and (optionally) gradient at x. Returns the cost; fidelity is
 * written to *fidelity_out.
 */
double
evaluate(const GrapeWorkspace& ws, const std::vector<double>& x,
         std::vector<double>* grad, double* fidelity_out)
{
    const int n_steps = ws.nSteps;
    const int n_ctrl = ws.numControls();
    const int d = ws.device.dim();
    const double dt = ws.dt;

    // Amplitudes for every (control, step).
    std::vector<std::vector<double>> u(
        n_ctrl, std::vector<double>(n_steps, 0.0));
    for (int c = 0; c < n_ctrl; ++c)
        for (int k = 0; k < n_steps; ++k)
            u[c][k] = ws.amplitude(x, c, k);

    // Forward pass: store the cumulative products
    // P_k = U_{k-1} ... U_0 (partials[k]). When gradients are needed,
    // the slice Hamiltonians are eigendecomposed so both the
    // propagator and its exact derivative come from the same
    // factorization.
    std::vector<CMatrix> props(n_steps);
    std::vector<CMatrix> partials(n_steps + 1);
    std::vector<EigResult> eigs;
    if (grad)
        eigs.resize(n_steps);
    partials[0] = CMatrix::identity(d);
    std::vector<double> amps(n_ctrl);
    // One step's e^{-i dt lambda_i}, reused by every step of both passes.
    std::vector<Complex> phases(d);
    for (int k = 0; k < n_steps; ++k) {
        for (int c = 0; c < n_ctrl; ++c)
            amps[c] = u[c][k];
        const CMatrix h = sliceHamiltonian(ws.device, amps);
        if (grad) {
            eigs[k] = eigHermitian(h);
            for (int i = 0; i < d; ++i)
                phases[i] = std::polar(1.0, -dt * eigs[k].values[i]);
            props[k] = kernels::scaledDaggerSandwich(eigs[k].vectors,
                                                     phases);
        } else {
            props[k] = slicePropagator(h, dt);
        }
        partials[k + 1] = props[k] * partials[k];
    }

    // tr(E^dag P) is the elementwise conjugated dot of E with P.
    const Complex overlap = kernels::dotcInterleaved(
        ws.effTarget.data(), partials[n_steps].data(),
        static_cast<size_t>(d) * static_cast<size_t>(d));
    const double fidelity = std::norm(overlap) / (ws.qdim * ws.qdim);
    if (fidelity_out)
        *fidelity_out = fidelity;

    // Regularizer costs (all mean-normalized so weights are scale
    // free in the number of samples).
    const double denom = static_cast<double>(n_ctrl * n_steps);
    double amp_cost = 0.0, slope_cost = 0.0, env_cost = 0.0;
    for (int c = 0; c < n_ctrl; ++c) {
        for (int k = 0; k < n_steps; ++k) {
            amp_cost += u[c][k] * u[c][k];
            const double masked = u[c][k] * (1.0 - ws.envelope[k]);
            env_cost += masked * masked;
            if (k + 1 < n_steps) {
                const double diff = u[c][k + 1] - u[c][k];
                slope_cost += diff * diff;
            }
        }
    }
    const double cost = (1.0 - fidelity) +
                        ws.options.amplitudeWeight * amp_cost / denom +
                        ws.options.slopeWeight * slope_cost / denom +
                        ws.options.envelopeWeight * env_cost / denom;
    if (!grad)
        return cost;

    grad->assign(ws.numParams(), 0.0);

    // Backward pass with the exact propagator derivative. By the
    // Daleckii-Krein theorem, for H = V diag(lambda) V^dag,
    //   dU/du = V (Phi o (V^dag H_c V)) V^dag,
    // Phi_ij = (e^{-i dt li} - e^{-i dt lj}) / (li - lj). Substituting
    // into dO/du = tr(B_k dU P_k) and collecting the V factors yields
    //   dO/du_c = tr(H_c S_k),  S_k = V (Phi^T o Mt) V^dag,
    // with Mt = V^dag P_k B_k V shared across all controls.
    CMatrix b = ws.effTarget.dagger();
    const Complex o_conj = std::conj(overlap);
    for (int k = n_steps - 1; k >= 0; --k) {
        const CMatrix& v = eigs[k].vectors;
        const CMatrix vd = v.dagger();
        const std::vector<double>& lam = eigs[k].values;
        const CMatrix mt = vd * (partials[k] * b) * v;
        for (int i = 0; i < d; ++i)
            phases[i] = std::polar(1.0, -dt * lam[i]);

        // N = Phi^T o Mt, then S = V N V^dag.
        CMatrix nmat(d, d);
        for (int j = 0; j < d; ++j) {
            for (int i = 0; i < d; ++i) {
                const double dl = lam[i] - lam[j];
                const Complex phi = std::abs(dl) < 1e-9
                                        ? Complex{0.0, -dt} * phases[i]
                                        : (phases[i] - phases[j]) / dl;
                // N_ji = Phi_ij * Mt_ji.
                nmat(j, i) = phi * mt(j, i);
            }
        }
        const CMatrix s = v * nmat * vd;
        // tr(H_c S) = sum_ij H_c(i,j) S(j,i); transposing S once lets
        // every control's trace run as a contiguous dot product.
        const CMatrix st = s.transpose();

        for (int c = 0; c < n_ctrl; ++c) {
            const CMatrix& hc = ws.device.controls()[c].op;
            const Complex d_overlap = kernels::dotuInterleaved(
                hc.data(), st.data(),
                static_cast<size_t>(d) * static_cast<size_t>(d));
            const double d_fid =
                2.0 * (o_conj * d_overlap).real() / (ws.qdim * ws.qdim);

            // Regularizer gradients w.r.t. u[c][k].
            double d_reg = ws.options.amplitudeWeight * 2.0 * u[c][k];
            const double mask = 1.0 - ws.envelope[k];
            d_reg += ws.options.envelopeWeight * 2.0 * u[c][k] * mask *
                     mask;
            if (k + 1 < n_steps)
                d_reg -= ws.options.slopeWeight * 2.0 *
                         (u[c][k + 1] - u[c][k]);
            if (k > 0)
                d_reg += ws.options.slopeWeight * 2.0 *
                         (u[c][k] - u[c][k - 1]);
            d_reg /= denom;

            (*grad)[c * n_steps + k] =
                (-d_fid + d_reg) * ws.amplitudeGrad(x, c, k);
        }

        // Fold step k's propagator into B for the next iteration.
        if (k > 0)
            b = b * props[k];
    }
    return cost;
}

} // namespace

GrapeResult
runGrapeFixedTime(const DeviceModel& device, const CMatrix& target,
                  double total_time_ns, const GrapeOptions& options)
{
    fatalIf(total_time_ns <= 0.0, "GRAPE needs a positive duration");
    const int n_steps = std::max(
        2, static_cast<int>(std::round(total_time_ns / options.dt)));
    GrapeWorkspace ws(device, target, n_steps, options);

    const auto start = std::chrono::steady_clock::now();

    // Small random initialization breaks the symmetry of the all-zero
    // pulse. The per-channel scale keeps the *accumulated* random
    // rotation (std x maxAmp x dt x sqrt(steps)) of order one —
    // otherwise long or strongly-driven pulses start from a
    // deep-random unitary whose fidelity landscape is flat and
    // gradient descent stalls.
    Rng rng(options.seed);
    std::vector<double> x(ws.numParams());
    const double sqrt_steps = std::sqrt(static_cast<double>(n_steps));
    for (int c = 0; c < device.numControls(); ++c) {
        const double amp = device.controls()[c].maxAmp;
        const double scale =
            std::min(0.2, 0.5 / (amp * options.dt * sqrt_steps));
        for (int k = 0; k < n_steps; ++k)
            x[c * n_steps + k] = scale * rng.normal();
    }

    AdamOptimizer adam(ws.numParams(), options.hyper);
    GrapeResult result;
    std::vector<double> grad;
    double fidelity = 0.0;

    for (int iter = 0; iter < options.maxIterations; ++iter) {
        evaluate(ws, x, &grad, &fidelity);
        result.history.push_back(fidelity);
        result.iterations = iter + 1;
        if (fidelity >= options.targetFidelity) {
            result.converged = true;
            break;
        }
        adam.step(x, grad);
    }

    // Final evaluation after the last update (unless we broke early).
    if (!result.converged) {
        evaluate(ws, x, nullptr, &fidelity);
        result.history.push_back(fidelity);
        result.converged = fidelity >= options.targetFidelity;
    }
    result.fidelity = fidelity;

    result.pulse = PulseSchedule(device.numControls(), n_steps,
                                 options.dt);
    for (int c = 0; c < device.numControls(); ++c)
        for (int k = 0; k < n_steps; ++k)
            result.pulse.channel(c)[k] = ws.amplitude(x, c, k);

    const auto end = std::chrono::steady_clock::now();
    result.wallSeconds =
        std::chrono::duration<double>(end - start).count();
    return result;
}

double
grapeGradientCheck(const DeviceModel& device, const CMatrix& target,
                   double total_time_ns, const GrapeOptions& options,
                   int probes)
{
    const int n_steps = std::max(
        2, static_cast<int>(std::round(total_time_ns / options.dt)));
    GrapeWorkspace ws(device, target, n_steps, options);

    Rng rng(options.seed + 1);
    std::vector<double> x(ws.numParams());
    for (double& v : x)
        v = 0.4 * rng.normal();

    std::vector<double> grad;
    evaluate(ws, x, &grad, nullptr);

    double worst = 0.0;
    const double eps = 1e-5;
    for (int p = 0; p < probes; ++p) {
        const int i = rng.randint(0, ws.numParams() - 1);
        std::vector<double> xp = x;
        xp[i] += eps;
        const double up = evaluate(ws, xp, nullptr, nullptr);
        xp[i] -= 2.0 * eps;
        const double dn = evaluate(ws, xp, nullptr, nullptr);
        const double numeric = (up - dn) / (2.0 * eps);
        const double scale =
            std::max({std::abs(numeric), std::abs(grad[i]), 1e-8});
        worst = std::max(worst, std::abs(numeric - grad[i]) / scale);
    }
    return worst;
}

} // namespace qpc
