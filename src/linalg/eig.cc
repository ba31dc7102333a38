#include "linalg/eig.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/logging.h"

namespace qpc {

namespace {

/** Matrices up to this dimension keep the solver's scratch on the stack. */
constexpr int kStackDim = 64;

/** QL sweeps allowed per eigenvalue before the solver gives up. */
constexpr int kMaxQlIterations = 60;

/**
 * n elements of solver scratch: on the stack up to kStackDim (every
 * size the library diagonalizes in a hot loop), on the heap beyond.
 */
template <typename T>
class Scratch
{
  public:
    explicit Scratch(int n)
    {
        if (n > kStackDim) {
            heap_ = std::make_unique<T[]>(static_cast<size_t>(n));
            ptr_ = heap_.get();
        }
    }

    Scratch(const Scratch&) = delete;
    Scratch& operator=(const Scratch&) = delete;

    T& operator[](int i) { return ptr_[i]; }
    T* data() { return ptr_; }

  private:
    T local_[kStackDim] = {};
    std::unique_ptr<T[]> heap_;
    T* ptr_ = local_;
};

/**
 * Householder reduction of the Hermitian matrix held in q (row-major,
 * n x n) to a real symmetric tridiagonal T with diagonal d and
 * subdiagonal e, overwriting q with the unitary Q of A = Q T Q^dag.
 *
 * Step k reflects column k below the subdiagonal onto its first entry
 * with H_k = I - tau_k v v^dag (v kept in row k, right of the
 * diagonal), so T's subdiagonal comes out complex. A diagonal phase
 * matrix D then makes it real: D^dag T D has |T_{k+1,k}| below the
 * diagonal, and D is folded into Q's columns. Real input keeps every
 * reflector and phase real, so Q comes back real.
 */
void
tridiagonalize(Complex* q, int n, double* d, double* e)
{
    Scratch<double> tau(n);
    Scratch<Complex> phase(n);
    Scratch<Complex> w(n);

    phase[0] = 1.0;
    for (int k = 0; k + 1 < n; ++k) {
        d[k] = q[k * n + k].real();
        // x = A[k+1:, k] = conj(A[k, k+1:]); v overwrites that row.
        Complex* v = q + k * n + k + 1;
        const int m = n - k - 1;
        const Complex x0 = std::conj(v[0]);
        double tail = 0.0;
        for (int j = 1; j < m; ++j)
            tail += std::norm(v[j]);

        Complex alpha = x0;   // T_{k+1,k}
        tau[k] = 0.0;
        if (tail > 0.0) {
            const double ax0 = std::abs(x0);
            const double s = std::sqrt(ax0 * ax0 + tail);
            const Complex ph = ax0 > 0.0 ? x0 / ax0 : Complex{1.0, 0.0};
            alpha = -ph * s;
            tau[k] = 1.0 / (s * (s + ax0));
            v[0] = ph * (s + ax0);
            for (int j = 1; j < m; ++j)
                v[j] = std::conj(v[j]);

            // A' <- H A' H on the trailing block, as the rank-2 update
            // A' - w v^dag - v w^dag with p = tau A' v and
            // w = p - (tau/2)(v^dag p) v.
            Complex* a = q + (k + 1) * n + (k + 1);
            Complex vp = 0.0;
            for (int i = 0; i < m; ++i) {
                Complex acc = 0.0;
                for (int j = 0; j < m; ++j)
                    acc += a[i * n + j] * v[j];
                w[i] = tau[k] * acc;
                vp += std::conj(v[i]) * w[i];
            }
            const Complex half = 0.5 * tau[k] * vp;
            for (int i = 0; i < m; ++i)
                w[i] -= half * v[i];
            for (int i = 0; i < m; ++i) {
                const Complex wi = w[i];
                const Complex vi = v[i];
                Complex* row = a + i * n;
                for (int j = 0; j < m; ++j)
                    row[j] -= wi * std::conj(v[j]) + vi * std::conj(w[j]);
            }
        }

        // Phase D_{k+1} = D_k alpha / |alpha| makes (D^dag T D)_{k+1,k}
        // = |alpha|.
        e[k] = std::abs(alpha);
        phase[k + 1] = e[k] > 0.0 ? phase[k] * (alpha / e[k]) : phase[k];
    }
    if (n > 0) {
        d[n - 1] = q[(n - 1) * n + (n - 1)].real();
        e[n - 1] = 0.0;
    }

    // Q D = H_0 (H_1 (... (H_{n-3} D))), built in place from the last
    // reflector back. Before folding in H_{j-1}, the trailing block
    // [j:, j:] holds diag(D_j, block [j+1:, j+1:]); the reflectors
    // still needed sit in rows above it.
    for (int j = n - 1; j >= 0; --j) {
        q[j * n + j] = phase[j];
        for (int t = j + 1; t < n; ++t) {
            q[j * n + t] = 0.0;
            q[t * n + j] = 0.0;
        }
        if (j == 0 || tau[j - 1] == 0.0)
            continue;
        const Complex* v = q + (j - 1) * n + j;
        Complex* b = q + j * n + j;
        const int m = n - j;
        // B <- B - tau v (v^dag B).
        for (int c = 0; c < m; ++c)
            w[c] = 0.0;
        for (int i = 0; i < m; ++i) {
            const Complex vi = std::conj(v[i]);
            const Complex* row = b + i * n;
            for (int c = 0; c < m; ++c)
                w[c] += vi * row[c];
        }
        for (int i = 0; i < m; ++i) {
            const Complex tv = tau[j - 1] * v[i];
            Complex* row = b + i * n;
            for (int c = 0; c < m; ++c)
                row[c] -= tv * w[c];
        }
    }
}

/**
 * Implicit QL with Wilkinson shifts on the real symmetric tridiagonal
 * (d, e) (EISPACK tql2), applying each plane rotation to the columns
 * of the complex q. On return d holds the eigenvalues, ascending, and
 * q's columns the matching eigenvectors.
 */
void
tridiagonalQl(Complex* q, int n, double* d, double* e)
{
    const double eps = std::numeric_limits<double>::epsilon();
    double shift = 0.0;
    double tst1 = 0.0;
    for (int l = 0; l < n; ++l) {
        // Split off at the first negligible subdiagonal at or past l.
        tst1 = std::max(tst1, std::abs(d[l]) + std::abs(e[l]));
        int m = l;
        while (m < n - 1 && std::abs(e[m]) > eps * tst1)
            ++m;

        // Plain sqrt, not std::hypot (measurably slower here): past the
        // split test |p| < 1/eps, and the library's Hamiltonians sit far
        // inside 1e+-150, so no square below overflows or underflows.
        for (int iter = 1; m > l; ++iter) {
            panicIf(iter > kMaxQlIterations,
                    "tridiagonal QL failed to converge");
            // Shift by the eigenvalue of the leading 2x2 closer to d[l].
            double g = d[l];
            double p = (d[l + 1] - g) / (2.0 * e[l]);
            double r = std::sqrt(p * p + 1.0);
            if (p < 0.0)
                r = -r;
            d[l] = e[l] / (p + r);
            d[l + 1] = e[l] * (p + r);
            const double dl1 = d[l + 1];
            double h = g - d[l];
            for (int i = l + 2; i < n; ++i)
                d[i] -= h;
            shift += h;

            // Chase the bulge from m back up to l.
            p = d[m];
            double c = 1.0, c2 = 1.0, c3 = 1.0;
            double s = 0.0, s2 = 0.0;
            const double el1 = e[l + 1];
            for (int i = m - 1; i >= l; --i) {
                c3 = c2;
                c2 = c;
                s2 = s;
                g = c * e[i];
                h = c * p;
                r = std::sqrt(p * p + e[i] * e[i]);
                e[i + 1] = s * r;
                s = e[i] / r;
                c = p / r;
                p = c * d[i] - s * g;
                d[i + 1] = h + s * (c * g + s * d[i]);
                for (int k = 0; k < n; ++k) {
                    Complex* row = q + k * n;
                    const Complex hk = row[i + 1];
                    row[i + 1] = s * row[i] + c * hk;
                    row[i] = c * row[i] - s * hk;
                }
            }
            p = -s * s2 * c3 * el1 * e[l] / dl1;
            e[l] = s * p;
            d[l] = c * p;
            if (std::abs(e[l]) <= eps * tst1)
                m = l;   // d[l] converged
        }
        d[l] += shift;
        e[l] = 0.0;
    }

    // Selection sort into ascending order, swapping columns to match.
    for (int i = 0; i + 1 < n; ++i) {
        int k = i;
        for (int j = i + 1; j < n; ++j)
            if (d[j] < d[k])
                k = j;
        if (k == i)
            continue;
        std::swap(d[i], d[k]);
        for (int r = 0; r < n; ++r)
            std::swap(q[r * n + i], q[r * n + k]);
    }
}

} // namespace

EigResult
eigHermitian(const CMatrix& input)
{
    panicIf(input.rows() != input.cols(), "eigHermitian needs square input");
    const int n = input.rows();

    EigResult result;
    result.values.resize(n);
    result.vectors = CMatrix(n, n);
    Complex* q = result.vectors.data();

    // Symmetrize to kill representation-level asymmetry, measuring it
    // on the way.
    double asym = 0.0;
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            const Complex aij = input(i, j);
            const Complex aji = std::conj(input(j, i));
            asym = std::max(asym, std::abs(aij - aji));
            q[i * n + j] = (aij + aji) * 0.5;
        }
    }
    panicIf(!(asym <= 1e-9),
            "eigHermitian input is not Hermitian (max asym ", asym, ")");

    Scratch<double> e(n);
    tridiagonalize(q, n, result.values.data(), e.data());
    tridiagonalQl(q, n, result.values.data(), e.data());
    return result;
}

namespace {

/** Max |entry| of the strict off-diagonal of q^T m q. */
double
rotatedOffDiagonal(const CMatrix& q, const CMatrix& m)
{
    CMatrix r = q.transpose() * m * q;
    double worst = 0.0;
    for (int i = 0; i < r.rows(); ++i)
        for (int j = 0; j < r.cols(); ++j)
            if (i != j)
                worst = std::max(worst, std::abs(r(i, j)));
    return worst;
}

} // namespace

void
simultaneousDiagonalize(const CMatrix& p, const CMatrix& s, CMatrix& q,
                        std::vector<double>& pd, std::vector<double>& sd)
{
    const int n = p.rows();
    panicIf(p.cols() != n || s.rows() != n || s.cols() != n,
            "simultaneousDiagonalize shape mismatch");

    // Weights chosen irrational so structured spectra rarely collide;
    // several fallbacks cover adversarial alignments.
    const double weights[] = {0.7548776662466927, 1.3247179572447460,
                              0.3819660112501051, 2.6180339887498949,
                              0.0, 1.0};

    double best_residual = 1e300;
    CMatrix best_q;

    for (double w : weights) {
        CMatrix c = p + s * Complex{w, 0.0};
        EigResult eig = eigHermitian(c);

        // Strip any residual phases so q is a real matrix. The
        // Householder-QL eigenvectors of a real symmetric matrix are
        // real (every reflector and phase is), but normalize
        // defensively.
        CMatrix qr(n, n);
        for (int col = 0; col < n; ++col) {
            // Find largest-magnitude entry to define the phase.
            int arg_max = 0;
            double mag = 0.0;
            for (int row = 0; row < n; ++row) {
                if (std::abs(eig.vectors(row, col)) > mag) {
                    mag = std::abs(eig.vectors(row, col));
                    arg_max = row;
                }
            }
            Complex phase =
                eig.vectors(arg_max, col) / std::abs(eig.vectors(arg_max, col));
            for (int row = 0; row < n; ++row)
                qr(row, col) = (eig.vectors(row, col) / phase).real();
        }

        // Within degenerate clusters of c's spectrum, the eigenbasis is
        // arbitrary; re-diagonalize p restricted to each cluster (s then
        // follows automatically because s = (c - p)/w on that subspace).
        const double cluster_tol =
            1e-8 * std::max(1.0, c.frobeniusNorm());
        int start = 0;
        while (start < n) {
            int end = start + 1;
            while (end < n &&
                   std::abs(eig.values[end] - eig.values[end - 1]) <
                       cluster_tol) {
                ++end;
            }
            const int k = end - start;
            if (k > 1) {
                // p restricted to the cluster columns.
                CMatrix sub(k, k);
                for (int i = 0; i < k; ++i)
                    for (int j = 0; j < k; ++j) {
                        Complex acc = 0.0;
                        for (int r = 0; r < n; ++r)
                            for (int t = 0; t < n; ++t)
                                acc += qr(r, start + i) * p(r, t) *
                                       qr(t, start + j);
                        sub(i, j) = acc;
                    }
                EigResult sub_eig = eigHermitian(sub);
                CMatrix rotated(n, k);
                for (int r = 0; r < n; ++r)
                    for (int j = 0; j < k; ++j) {
                        Complex acc = 0.0;
                        for (int i = 0; i < k; ++i)
                            acc += qr(r, start + i) * sub_eig.vectors(i, j);
                        rotated(r, j) = acc.real();
                    }
                for (int r = 0; r < n; ++r)
                    for (int j = 0; j < k; ++j)
                        qr(r, start + j) = rotated(r, j);
            }
            start = end;
        }

        double residual = std::max(rotatedOffDiagonal(qr, p),
                                   rotatedOffDiagonal(qr, s));
        if (residual < best_residual) {
            best_residual = residual;
            best_q = qr;
        }
        if (best_residual < 1e-9)
            break;
    }

    panicIf(best_residual > 1e-6,
            "simultaneousDiagonalize failed; residual ", best_residual);

    q = best_q;
    CMatrix pr = q.transpose() * p * q;
    CMatrix sr = q.transpose() * s * q;
    pd.resize(n);
    sd.resize(n);
    for (int i = 0; i < n; ++i) {
        pd[i] = pr(i, i).real();
        sd[i] = sr(i, i).real();
    }
}

} // namespace qpc
