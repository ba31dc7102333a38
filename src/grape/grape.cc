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

/** m = I (m presized square). */
void
setIdentity(kernels::SoaMatrix& m)
{
    const int n = m.rows();
    std::fill(m.re(), m.re() + n * n, 0.0);
    std::fill(m.im(), m.im() + n * n, 0.0);
    for (int i = 0; i < n; ++i)
        m.re()[i * n + i] = 1.0;
}

/**
 * Shared state for one GRAPE run's cost/gradient evaluations over the
 * flat parameter vector x, laid out as x[c * nSteps + k]. Every
 * per-evaluation buffer is sized here, once per run, and reused by
 * each evaluation; the d x d ones are planar so the products run
 * straight through the SoA kernels without a pack per multiply.
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
    kernels::SoaMatrix planarTarget;  ///< E, planar.
    std::vector<kernels::SoaMatrix> planarControls;  ///< H_c, planar.

    std::vector<double> u;          ///< Amplitudes, u[c * nSteps + k].
    std::vector<double> amps;       ///< One step's amplitudes.
    std::vector<Complex> phases;    ///< One step's e^{-i dt lambda_i}.
    std::vector<EigResult> eigs;    ///< H_k = V_k diag(lambda_k) V_k^dag.
    std::vector<kernels::SoaMatrix> ys;  ///< Y_k = V_k^dag P_k.
    kernels::SoaMatrix p, v, vd, z, mt, nmat, vn, s, b;

    GrapeWorkspace(const DeviceModel& dev, const CMatrix& target,
                   int steps, const GrapeOptions& opts)
        : device(dev), qdim(static_cast<double>(1 << dev.numQubits())),
          nSteps(steps), dt(opts.dt), options(opts)
    {
        const int d = dev.dim();
        effTarget = CMatrix(d, d);
        const std::vector<int> comp = dev.computationalIndices();
        const int q = static_cast<int>(comp.size());
        panicIf(target.rows() != q,
                "GRAPE target must act on the qubit space");
        for (int r = 0; r < q; ++r)
            for (int c = 0; c < q; ++c)
                effTarget(comp[r], comp[c]) = target(r, c);
        planarTarget.pack(effTarget);

        // The gradient takes tr(H_c S) as the conjugated dot of H_c
        // with S, which holds only for Hermitian controls.
        planarControls.resize(dev.numControls());
        for (int c = 0; c < dev.numControls(); ++c) {
            const CMatrix& op = dev.controls()[c].op;
            panicIf(!op.isHermitian(), "GRAPE control ", c,
                    " is not Hermitian");
            planarControls[c].pack(op);
        }

        envelope.resize(steps);
        const double mid = 0.5 * (steps - 1);
        const double sigma = std::max(1.0, steps / 4.0);
        for (int k = 0; k < steps; ++k) {
            const double zk = (k - mid) / sigma;
            envelope[k] = std::exp(-0.5 * zk * zk);
        }

        u.resize(static_cast<size_t>(numParams()));
        amps.resize(dev.numControls());
        phases.resize(d);
        eigs.resize(steps);
        ys.resize(steps);
        for (kernels::SoaMatrix* m :
             {&p, &v, &vd, &z, &mt, &nmat, &vn, &s, &b})
            m->resize(d, d);
        for (kernels::SoaMatrix& y : ys)
            y.resize(d, d);
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

    /** Step k's eigenbasis into v and vd = v^dag, and its phases. */
    void
    loadStep(int k)
    {
        v.pack(eigs[k].vectors);
        vd.packDagger(eigs[k].vectors);
        for (int i = 0; i < device.dim(); ++i)
            phases[i] = std::polar(1.0, -dt * eigs[k].values[i]);
    }
};

/**
 * Cost and (optionally) gradient at x. Returns the cost; fidelity is
 * written to *fidelity_out.
 */
double
evaluate(GrapeWorkspace& ws, const std::vector<double>& x,
         std::vector<double>* grad, double* fidelity_out)
{
    const int n_steps = ws.nSteps;
    const int n_ctrl = ws.numControls();
    const int d = ws.device.dim();
    const size_t dd = static_cast<size_t>(d) * static_cast<size_t>(d);
    const double dt = ws.dt;
    std::vector<double>& u = ws.u;

    for (int c = 0; c < n_ctrl; ++c)
        for (int k = 0; k < n_steps; ++k)
            u[c * n_steps + k] = ws.amplitude(x, c, k);

    // Forward pass: P_{k+1} = U_k P_k from P_0 = I. When gradients are
    // needed, each slice Hamiltonian is eigendecomposed so the
    // propagator and its exact derivative share one factorization:
    // with Y_k = V_k^dag P_k (kept for the backward pass),
    // P_{k+1} = (V_k Lambda_k) Y_k, Lambda_k = diag(e^{-i dt lambda}).
    setIdentity(ws.p);
    for (int k = 0; k < n_steps; ++k) {
        for (int c = 0; c < n_ctrl; ++c)
            ws.amps[c] = u[c * n_steps + k];
        const CMatrix h = sliceHamiltonian(ws.device, ws.amps);
        if (grad) {
            ws.eigs[k] = eigHermitian(h);
            ws.loadStep(k);
            kernels::gemm(ws.ys[k], ws.vd, ws.p);
            kernels::scaleColumns(ws.v, ws.phases.data());
            kernels::gemm(ws.p, ws.v, ws.ys[k]);
        } else {
            ws.v.pack(slicePropagator(h, dt));
            kernels::gemm(ws.z, ws.v, ws.p);
            ws.p.swap(ws.z);
        }
    }

    // tr(E^dag P) is the elementwise conjugated dot of E with P.
    const Complex overlap = kernels::dotc(
        ws.planarTarget.re(), ws.planarTarget.im(), ws.p.re(), ws.p.im(), dd);
    const double fidelity = std::norm(overlap) / (ws.qdim * ws.qdim);
    if (fidelity_out)
        *fidelity_out = fidelity;

    // Regularizer costs (all mean-normalized so weights are scale
    // free in the number of samples).
    const double denom = static_cast<double>(n_ctrl * n_steps);
    double amp_cost = 0.0, slope_cost = 0.0, env_cost = 0.0;
    for (int c = 0; c < n_ctrl; ++c) {
        const double* uc = u.data() + c * n_steps;
        for (int k = 0; k < n_steps; ++k) {
            amp_cost += uc[k] * uc[k];
            const double masked = uc[k] * (1.0 - ws.envelope[k]);
            env_cost += masked * masked;
            if (k + 1 < n_steps) {
                const double diff = uc[k + 1] - uc[k];
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
    // with Mt = V^dag P_k B_k V = Y_k Z, Z = B_k V, shared across all
    // controls. B starts at E^dag and folds in one propagator per
    // step: B_{k-1} = B_k U_k = (Z Lambda_k) V^dag.
    ws.b.packDagger(ws.effTarget);
    const Complex o_conj = std::conj(overlap);
    for (int k = n_steps - 1; k >= 0; --k) {
        ws.loadStep(k);
        const std::vector<double>& lam = ws.eigs[k].values;
        kernels::gemm(ws.z, ws.b, ws.v);
        kernels::gemm(ws.mt, ws.ys[k], ws.z);

        // N = Phi^T o Mt, then S = (V N) V^dag.
        for (int j = 0; j < d; ++j) {
            for (int i = 0; i < d; ++i) {
                const double dl = lam[i] - lam[j];
                const Complex phi = std::abs(dl) < 1e-9
                                        ? Complex{0.0, -dt} * ws.phases[i]
                                        : (ws.phases[i] - ws.phases[j]) / dl;
                // N_ji = Phi_ij * Mt_ji.
                const int ji = j * d + i;
                const Complex n_ji =
                    phi * Complex{ws.mt.re()[ji], ws.mt.im()[ji]};
                ws.nmat.re()[ji] = n_ji.real();
                ws.nmat.im()[ji] = n_ji.imag();
            }
        }
        kernels::gemm(ws.vn, ws.v, ws.nmat);
        kernels::gemm(ws.s, ws.vn, ws.vd);

        for (int c = 0; c < n_ctrl; ++c) {
            // tr(H_c S) = sum_ij H_c(i,j) S(j,i) = sum_ij conj(H_c(j,i))
            // S(j,i) for Hermitian H_c: a conjugated dot, no transpose.
            const kernels::SoaMatrix& hc = ws.planarControls[c];
            const Complex d_overlap = kernels::dotc(
                hc.re(), hc.im(), ws.s.re(), ws.s.im(), dd);
            const double d_fid =
                2.0 * (o_conj * d_overlap).real() / (ws.qdim * ws.qdim);

            // Regularizer gradients w.r.t. u[c][k].
            const double* uc = u.data() + c * n_steps;
            double d_reg = ws.options.amplitudeWeight * 2.0 * uc[k];
            const double mask = 1.0 - ws.envelope[k];
            d_reg += ws.options.envelopeWeight * 2.0 * uc[k] * mask *
                     mask;
            if (k + 1 < n_steps)
                d_reg -= ws.options.slopeWeight * 2.0 * (uc[k + 1] - uc[k]);
            if (k > 0)
                d_reg += ws.options.slopeWeight * 2.0 * (uc[k] - uc[k - 1]);
            d_reg /= denom;

            (*grad)[c * n_steps + k] =
                (-d_fid + d_reg) * ws.amplitudeGrad(x, c, k);
        }

        // Fold step k's propagator into B for the next iteration.
        if (k > 0) {
            kernels::scaleColumns(ws.z, ws.phases.data());
            kernels::gemm(ws.b, ws.z, ws.vd);
        }
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
