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

/** @name The only scalar operations that differ between instantiations. */
///@{
double conjugate(double x) { return x; }
Complex conjugate(const Complex& z) { return std::conj(z); }
double squaredMagnitude(double x) { return x * x; }
double squaredMagnitude(const Complex& z) { return std::norm(z); }
///@}

/**
 * Householder reduction of the Hermitian matrix held in q (row-major,
 * n x n) to a real symmetric tridiagonal T with diagonal d and
 * subdiagonal e, overwriting q with the unitary Q of A = Q T Q^dag.
 *
 * Step k reflects column k below the subdiagonal onto its first entry
 * with H_k = I - tau_k v v^dag (v kept in row k, right of the
 * diagonal), so T's subdiagonal comes out complex. A diagonal phase
 * matrix D then makes it real: D^dag T D has |T_{k+1,k}| below the
 * diagonal, and D is folded into Q's columns. For T = double every
 * reflector and phase is real (the phases are +-1), and each
 * operation rounds exactly as the real part of its Complex
 * counterpart on real input.
 */
template <typename T>
void
tridiagonalize(T* q, int n, double* d, double* e)
{
    Scratch<double> tau(n);
    Scratch<T> phase(n);
    Scratch<T> w(n);

    phase[0] = 1.0;
    for (int k = 0; k + 1 < n; ++k) {
        d[k] = std::real(q[k * n + k]);
        // x = A[k+1:, k] = conj(A[k, k+1:]); v overwrites that row.
        T* v = q + k * n + k + 1;
        const int m = n - k - 1;
        const T x0 = conjugate(v[0]);
        double tail = 0.0;
        for (int j = 1; j < m; ++j)
            tail += squaredMagnitude(v[j]);

        T alpha = x0;   // T_{k+1,k}
        tau[k] = 0.0;
        if (tail > 0.0) {
            const double ax0 = std::abs(x0);
            const double s = std::sqrt(ax0 * ax0 + tail);
            const T ph = ax0 > 0.0 ? x0 / ax0 : T(1.0);
            alpha = -ph * s;
            tau[k] = 1.0 / (s * (s + ax0));
            v[0] = ph * (s + ax0);
            for (int j = 1; j < m; ++j)
                v[j] = conjugate(v[j]);

            // A' <- H A' H on the trailing block, as the rank-2 update
            // A' - w v^dag - v w^dag with p = tau A' v and
            // w = p - (tau/2)(v^dag p) v.
            T* a = q + (k + 1) * n + (k + 1);
            T vp = 0.0;
            for (int i = 0; i < m; ++i) {
                T acc = 0.0;
                for (int j = 0; j < m; ++j)
                    acc += a[i * n + j] * v[j];
                w[i] = tau[k] * acc;
                vp += conjugate(v[i]) * w[i];
            }
            const T half = 0.5 * tau[k] * vp;
            for (int i = 0; i < m; ++i)
                w[i] -= half * v[i];
            for (int i = 0; i < m; ++i) {
                const T wi = w[i];
                const T vi = v[i];
                T* row = a + i * n;
                for (int j = 0; j < m; ++j)
                    row[j] -= wi * conjugate(v[j]) + vi * conjugate(w[j]);
            }
        }

        // Phase D_{k+1} = D_k alpha / |alpha| makes (D^dag T D)_{k+1,k}
        // = |alpha|.
        e[k] = std::abs(alpha);
        phase[k + 1] = e[k] > 0.0 ? phase[k] * (alpha / e[k]) : phase[k];
    }
    if (n > 0) {
        d[n - 1] = std::real(q[(n - 1) * n + (n - 1)]);
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
        const T* v = q + (j - 1) * n + j;
        T* b = q + j * n + j;
        const int m = n - j;
        // B <- B - tau v (v^dag B).
        for (int c = 0; c < m; ++c)
            w[c] = 0.0;
        for (int i = 0; i < m; ++i) {
            const T vi = conjugate(v[i]);
            const T* row = b + i * n;
            for (int c = 0; c < m; ++c)
                w[c] += vi * row[c];
        }
        for (int i = 0; i < m; ++i) {
            const T tv = tau[j - 1] * v[i];
            T* row = b + i * n;
            for (int c = 0; c < m; ++c)
                row[c] -= tv * w[c];
        }
    }
}

/**
 * Implicit QL with Wilkinson shifts on the real symmetric tridiagonal
 * (d, e) (EISPACK tql2), applying each plane rotation to the columns
 * of q. On return d holds the eigenvalues, ascending, and q's columns
 * the matching eigenvectors.
 */
template <typename T>
void
tridiagonalQl(T* q, int n, double* d, double* e)
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
                    T* row = q + k * n;
                    const T hk = row[i + 1];
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

/**
 * Symmetrize a (row-major, n x n) into q, measuring the asymmetry on
 * the way and panicking with `complaint` past 1e-9, then diagonalize
 * q in place.
 */
template <typename T>
void
eigInPlace(const T* a, int n, double* values, T* q, const char* complaint)
{
    double asym = 0.0;
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            const T aij = a[i * n + j];
            const T aji = conjugate(a[j * n + i]);
            asym = std::max(asym, std::abs(aij - aji));
            q[i * n + j] = (aij + aji) * 0.5;
        }
    }
    panicIf(!(asym <= 1e-9), complaint, " (max asym ", asym, ")");

    Scratch<double> e(n);
    tridiagonalize(q, n, values, e.data());
    tridiagonalQl(q, n, values, e.data());
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
    eigInPlace(input.data(), n, result.values.data(), result.vectors.data(),
               "eigHermitian input is not Hermitian");
    return result;
}

void
eigSymmetric(const double* a, int n, double* values, double* vectors)
{
    eigInPlace(a, n, values, vectors, "eigSymmetric input is not symmetric");
}

namespace {

/**
 * r = q^T m q for row-major n x n operands, with t as n x n scratch.
 * Both products run in the i-k-j order with zero-skipping of the
 * small-matrix CMatrix multiply, so r matches its real part bit for
 * bit.
 */
void
rotate(const double* q, const double* m, int n, double* t, double* r)
{
    std::fill(t, t + n * n, 0.0);
    for (int i = 0; i < n; ++i)
        for (int k = 0; k < n; ++k) {
            const double qki = q[k * n + i];
            if (qki == 0.0)
                continue;
            for (int j = 0; j < n; ++j)
                t[i * n + j] += qki * m[k * n + j];
        }
    std::fill(r, r + n * n, 0.0);
    for (int i = 0; i < n; ++i)
        for (int k = 0; k < n; ++k) {
            const double tik = t[i * n + k];
            if (tik == 0.0)
                continue;
            for (int j = 0; j < n; ++j)
                r[i * n + j] += tik * q[k * n + j];
        }
}

/** Max |entry| of the strict off-diagonal of the n x n r. */
double
offDiagonal(const double* r, int n)
{
    double worst = 0.0;
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
            if (i != j)
                worst = std::max(worst, std::abs(r[i * n + j]));
    return worst;
}

} // namespace

void
simultaneousDiagonalize(const double* p, const double* s, int n, double* q,
                        double* pd, double* sd)
{
    // n x n scratch stays on the stack up to 8x8.
    const int nn = n * n;
    Scratch<double> c(nn), qr(nn), lam(n), sub(nn), sub_vec(nn),
        sub_lam(n), rotated(nn), t(nn), r(nn);

    // Weights chosen irrational so structured spectra rarely collide;
    // several fallbacks cover adversarial alignments.
    const double weights[] = {0.7548776662466927, 1.3247179572447460,
                              0.3819660112501051, 2.6180339887498949,
                              0.0, 1.0};

    double best_residual = 1e300;
    for (double w : weights) {
        for (int i = 0; i < nn; ++i)
            c[i] = p[i] + s[i] * w;
        eigSymmetric(c.data(), n, lam.data(), qr.data());

        // Sign each column so its largest-magnitude entry (the first,
        // on ties) is positive.
        for (int col = 0; col < n; ++col) {
            int arg_max = 0;
            double mag = 0.0;
            for (int row = 0; row < n; ++row) {
                if (std::abs(qr[row * n + col]) > mag) {
                    mag = std::abs(qr[row * n + col]);
                    arg_max = row;
                }
            }
            if (qr[arg_max * n + col] < 0.0)
                for (int row = 0; row < n; ++row)
                    qr[row * n + col] = -qr[row * n + col];
        }

        // Within degenerate clusters of c's spectrum, the eigenbasis is
        // arbitrary; re-diagonalize p restricted to each cluster (s then
        // follows automatically because s = (c - p)/w on that subspace).
        double c_norm2 = 0.0;
        for (int i = 0; i < nn; ++i)
            c_norm2 += c[i] * c[i];
        const double cluster_tol = 1e-8 * std::max(1.0, std::sqrt(c_norm2));
        int start = 0;
        while (start < n) {
            int end = start + 1;
            while (end < n && std::abs(lam[end] - lam[end - 1]) < cluster_tol)
                ++end;
            const int k = end - start;
            if (k > 1) {
                // p restricted to the cluster columns.
                for (int i = 0; i < k; ++i)
                    for (int j = 0; j < k; ++j) {
                        double acc = 0.0;
                        for (int a = 0; a < n; ++a)
                            for (int b = 0; b < n; ++b)
                                acc += qr[a * n + start + i] * p[a * n + b] *
                                       qr[b * n + start + j];
                        sub[i * k + j] = acc;
                    }
                eigSymmetric(sub.data(), k, sub_lam.data(), sub_vec.data());
                for (int a = 0; a < n; ++a)
                    for (int j = 0; j < k; ++j) {
                        double acc = 0.0;
                        for (int i = 0; i < k; ++i)
                            acc += qr[a * n + start + i] * sub_vec[i * k + j];
                        rotated[a * k + j] = acc;
                    }
                for (int a = 0; a < n; ++a)
                    for (int j = 0; j < k; ++j)
                        qr[a * n + start + j] = rotated[a * k + j];
            }
            start = end;
        }

        rotate(qr.data(), p, n, t.data(), r.data());
        double residual = offDiagonal(r.data(), n);
        rotate(qr.data(), s, n, t.data(), r.data());
        residual = std::max(residual, offDiagonal(r.data(), n));
        if (residual < best_residual) {
            best_residual = residual;
            std::copy(qr.data(), qr.data() + nn, q);
        }
        if (best_residual < 1e-9)
            break;
    }

    panicIf(best_residual > 1e-6,
            "simultaneousDiagonalize failed; residual ", best_residual);

    rotate(q, p, n, t.data(), r.data());
    for (int i = 0; i < n; ++i)
        pd[i] = r[i * n + i];
    rotate(q, s, n, t.data(), r.data());
    for (int i = 0; i < n; ++i)
        sd[i] = r[i * n + i];
}

} // namespace qpc
