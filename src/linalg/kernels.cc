/**
 * @file
 * SoA kernel implementations (see kernels.h for the layer contract).
 *
 * Bit-compatibility discipline: every dispatching kernel's AVX2 path
 * and its `...Scalar` reference perform identical floating-point
 * operations on identical elements in identical order. Concretely:
 *
 *  - elementwise kernels (gemm, scaleColumns, gate applies)
 *    accumulate each output element with the same mul/add/sub
 *    sequence — the vector path merely computes four output elements
 *    per instruction;
 *  - reduction kernels (dot products) accumulate into four
 *    lane-striped partial sums (lane j takes elements i with
 *    i % 4 == j), combine them as (l0+l2) + (l1+l3) — exactly the
 *    AVX2 horizontal-sum order — and fold any tail in sequentially
 *    afterwards. The scalar references replicate the striping.
 *
 * This file is compiled with -ffp-contract=off (see src/CMakeLists)
 * so the compiler cannot fuse the scalar references' mul/add pairs
 * into FMAs; the AVX2 paths deliberately use separate mul/add/sub
 * intrinsics for the same reason.
 *
 * Dispatch is per call at run time: on x86-64 every AVX2 body is
 * compiled with a `target("avx2")` attribute (AVX2 only — no FMA)
 * whatever the build's -march, and each dispatching entry point runs
 * it when the host CPU reports AVX2, else the `...Scalar` reference.
 * Other targets compile only the scalar references.
 */

#include "linalg/kernels.h"

#include <algorithm>
#include <new>
#include <utility>

#include "common/logging.h"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define QPC_KERNELS_X86 1
/** Compiles one function for AVX2 regardless of the build's -march. */
#define QPC_AVX2 __attribute__((target("avx2")))
#else
#define QPC_KERNELS_X86 0
#endif

namespace qpc::kernels {

namespace {

constexpr std::align_val_t kAlign{32};

double*
allocAligned(std::size_t n)
{
    if (n == 0)
        return nullptr;
    return static_cast<double*>(
        ::operator new(n * sizeof(double), kAlign));
}

void
freeAligned(double* p)
{
    if (p)
        ::operator delete(p, kAlign);
}

/** True when the dispatchers run the AVX2 bodies: the host CPU (and
 * its OS) supports AVX2. Probed once per process. */
bool
useAvx2()
{
#if QPC_KERNELS_X86
    static const bool supported = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2") != 0;
    }();
    return supported;
#else
    return false;
#endif
}

} // namespace

bool
simdEnabled()
{
    return useAvx2();
}

const char*
backendName()
{
    return useAvx2() ? "avx2" : "scalar";
}

SoaMatrix::~SoaMatrix()
{
    freeAligned(re_);
    freeAligned(im_);
}

void
SoaMatrix::swap(SoaMatrix& other) noexcept
{
    std::swap(rows_, other.rows_);
    std::swap(cols_, other.cols_);
    std::swap(capacity_, other.capacity_);
    std::swap(re_, other.re_);
    std::swap(im_, other.im_);
}

void
SoaMatrix::resize(int rows, int cols)
{
    panicIf(rows < 0 || cols < 0, "negative SoaMatrix dimension");
    const std::size_t need =
        static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
    if (need > capacity_) {
        freeAligned(re_);
        freeAligned(im_);
        re_ = allocAligned(need);
        im_ = allocAligned(need);
        capacity_ = need;
    }
    rows_ = rows;
    cols_ = cols;
}

void
SoaMatrix::pack(const CMatrix& m)
{
    resize(m.rows(), m.cols());
    const Complex* d = m.data();
    const std::size_t n =
        static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_);
    for (std::size_t i = 0; i < n; ++i) {
        re_[i] = d[i].real();
        im_[i] = d[i].imag();
    }
}

void
SoaMatrix::packDagger(const CMatrix& m)
{
    resize(m.cols(), m.rows());
    for (int r = 0; r < m.rows(); ++r) {
        for (int c = 0; c < m.cols(); ++c) {
            const Complex v = m(r, c);
            const std::size_t i =
                static_cast<std::size_t>(c) * static_cast<std::size_t>(cols_) +
                static_cast<std::size_t>(r);
            re_[i] = v.real();
            im_[i] = -v.imag();
        }
    }
}

void
SoaMatrix::unpack(CMatrix& m) const
{
    m = CMatrix(rows_, cols_);
    Complex* d = m.data();
    const std::size_t n =
        static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_);
    for (std::size_t i = 0; i < n; ++i)
        d[i] = Complex{re_[i], im_[i]};
}

// ---------------------------------------------------------------------------
// gemm
// ---------------------------------------------------------------------------

void
gemmScalar(SoaMatrix& c, const SoaMatrix& a, const SoaMatrix& b)
{
    const int n = a.rows(), k = a.cols(), m = b.cols();
    panicIf(b.rows() != k || c.rows() != n || c.cols() != m,
            "gemm shape mismatch");
    double* cr = c.re();
    double* ci = c.im();
    const std::size_t total =
        static_cast<std::size_t>(n) * static_cast<std::size_t>(m);
    for (std::size_t i = 0; i < total; ++i) {
        cr[i] = 0.0;
        ci[i] = 0.0;
    }
    for (int i = 0; i < n; ++i) {
        for (int kk = 0; kk < k; ++kk) {
            const double ar = a.re()[i * k + kk];
            const double ai = a.im()[i * k + kk];
            const double* br = b.re() + static_cast<std::size_t>(kk) * m;
            const double* bi = b.im() + static_cast<std::size_t>(kk) * m;
            double* orow = cr + static_cast<std::size_t>(i) * m;
            double* irow = ci + static_cast<std::size_t>(i) * m;
            // Products combine first, then one accumulate: the single
            // dependent add per step is what lets the AVX2 side (which
            // mirrors this order exactly) run at full throughput.
            for (int j = 0; j < m; ++j) {
                orow[j] = orow[j] + (ar * br[j] - ai * bi[j]);
                irow[j] = irow[j] + (ar * bi[j] + ai * br[j]);
            }
        }
    }
}

#if QPC_KERNELS_X86

namespace {

QPC_AVX2 void
gemmAvx2(SoaMatrix& c, const SoaMatrix& a, const SoaMatrix& b)
{
    const int n = a.rows(), k = a.cols(), m = b.cols();
    panicIf(b.rows() != k || c.rows() != n || c.cols() != m,
            "gemm shape mismatch");
    double* cr = c.re();
    double* ci = c.im();
    // 8-column register blocks: each c block accumulates over the
    // whole k loop in four registers, so c is touched once instead of
    // loaded/stored per k step. Per output element the operation order
    // over kk is exactly the scalar mirror's (+ar*br, -ai*bi for the
    // real part; +ar*bi, +ai*br for the imaginary), so the result is
    // still bit-identical — only the order *across* independent
    // elements changes.
    const int m8 = m & ~7;
    for (int i = 0; i < n; ++i) {
        const double* arow = a.re() + static_cast<std::size_t>(i) * k;
        const double* airow = a.im() + static_cast<std::size_t>(i) * k;
        double* orow = cr + static_cast<std::size_t>(i) * m;
        double* irow = ci + static_cast<std::size_t>(i) * m;
        for (int jb = 0; jb < m8; jb += 8) {
            __m256d tr0 = _mm256_setzero_pd();
            __m256d tr1 = _mm256_setzero_pd();
            __m256d ti0 = _mm256_setzero_pd();
            __m256d ti1 = _mm256_setzero_pd();
            for (int kk = 0; kk < k; ++kk) {
                const __m256d var = _mm256_set1_pd(arow[kk]);
                const __m256d vai = _mm256_set1_pd(airow[kk]);
                const double* br =
                    b.re() + static_cast<std::size_t>(kk) * m + jb;
                const double* bi =
                    b.im() + static_cast<std::size_t>(kk) * m + jb;
                const __m256d vbr0 = _mm256_loadu_pd(br);
                const __m256d vbr1 = _mm256_loadu_pd(br + 4);
                const __m256d vbi0 = _mm256_loadu_pd(bi);
                const __m256d vbi1 = _mm256_loadu_pd(bi + 4);
                tr0 = _mm256_add_pd(
                    tr0, _mm256_sub_pd(_mm256_mul_pd(var, vbr0),
                                       _mm256_mul_pd(vai, vbi0)));
                tr1 = _mm256_add_pd(
                    tr1, _mm256_sub_pd(_mm256_mul_pd(var, vbr1),
                                       _mm256_mul_pd(vai, vbi1)));
                ti0 = _mm256_add_pd(
                    ti0, _mm256_add_pd(_mm256_mul_pd(var, vbi0),
                                       _mm256_mul_pd(vai, vbr0)));
                ti1 = _mm256_add_pd(
                    ti1, _mm256_add_pd(_mm256_mul_pd(var, vbi1),
                                       _mm256_mul_pd(vai, vbr1)));
            }
            _mm256_storeu_pd(orow + jb, tr0);
            _mm256_storeu_pd(orow + jb + 4, tr1);
            _mm256_storeu_pd(irow + jb, ti0);
            _mm256_storeu_pd(irow + jb + 4, ti1);
        }
        for (int j = m8; j < m; ++j) {
            double tr = 0.0;
            double ti = 0.0;
            for (int kk = 0; kk < k; ++kk) {
                const double ar = arow[kk];
                const double ai = airow[kk];
                const double br =
                    b.re()[static_cast<std::size_t>(kk) * m + j];
                const double bi =
                    b.im()[static_cast<std::size_t>(kk) * m + j];
                tr = tr + (ar * br - ai * bi);
                ti = ti + (ar * bi + ai * br);
            }
            orow[j] = tr;
            irow[j] = ti;
        }
    }
}

} // namespace

#endif

void
gemm(SoaMatrix& c, const SoaMatrix& a, const SoaMatrix& b)
{
#if QPC_KERNELS_X86
    if (useAvx2())
        return gemmAvx2(c, a, b);
#endif
    gemmScalar(c, a, b);
}

// ---------------------------------------------------------------------------
// Shared AVX2 helpers
// ---------------------------------------------------------------------------

#if QPC_KERNELS_X86

namespace {

/** (l0 + l2) + (l1 + l3) — the horizontal-sum order every scalar
 * reduction reference mirrors. */
QPC_AVX2 inline double
hsum(__m256d v)
{
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d s = _mm_add_pd(lo, hi);
    return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
}

/** Deinterleave 4 complex numbers at p into re/im lanes. */
QPC_AVX2 inline void
load4c(const double* p, __m256d& re, __m256d& im)
{
    const __m256d v0 = _mm256_loadu_pd(p);
    const __m256d v1 = _mm256_loadu_pd(p + 4);
    const __m256d t0 = _mm256_permute2f128_pd(v0, v1, 0x20);
    const __m256d t1 = _mm256_permute2f128_pd(v0, v1, 0x31);
    re = _mm256_unpacklo_pd(t0, t1);
    im = _mm256_unpackhi_pd(t0, t1);
}

/** Re-interleave 4 complex numbers from re/im lanes to p. */
QPC_AVX2 inline void
store4c(double* p, __m256d re, __m256d im)
{
    const __m256d t0 = _mm256_unpacklo_pd(re, im);
    const __m256d t1 = _mm256_unpackhi_pd(re, im);
    _mm256_storeu_pd(p, _mm256_permute2f128_pd(t0, t1, 0x20));
    _mm256_storeu_pd(p + 4, _mm256_permute2f128_pd(t0, t1, 0x31));
}

} // namespace

#endif

// ---------------------------------------------------------------------------
// dotc (planar)
// ---------------------------------------------------------------------------

Complex
dotcScalar(const double* xre, const double* xim, const double* yre,
           const double* yim, std::size_t n)
{
    // Eight accumulator stripes (lane j takes elements i % 8 == j):
    // the AVX2 side needs two independent vector accumulators to break
    // the add-latency chain, and the mirror must reduce in exactly the
    // same shape to stay bit-identical.
    const std::size_t n8 = n & ~std::size_t{7};
    double rr[8] = {};
    double ri[8] = {};
    for (std::size_t i = 0; i < n8; ++i) {
        const std::size_t lane = i & 7;
        rr[lane] = rr[lane] + (xre[i] * yre[i] + xim[i] * yim[i]);
        ri[lane] = ri[lane] + (xre[i] * yim[i] - xim[i] * yre[i]);
    }
    // Pairwise lane merge (vector add of the two accumulators), then
    // the hsum() order: (l0 + l2) + (l1 + l3).
    const double tr[4] = {rr[0] + rr[4], rr[1] + rr[5], rr[2] + rr[6],
                          rr[3] + rr[7]};
    const double ti[4] = {ri[0] + ri[4], ri[1] + ri[5], ri[2] + ri[6],
                          ri[3] + ri[7]};
    double sr = (tr[0] + tr[2]) + (tr[1] + tr[3]);
    double si = (ti[0] + ti[2]) + (ti[1] + ti[3]);
    for (std::size_t i = n8; i < n; ++i) {
        sr = sr + (xre[i] * yre[i] + xim[i] * yim[i]);
        si = si + (xre[i] * yim[i] - xim[i] * yre[i]);
    }
    return Complex{sr, si};
}

#if QPC_KERNELS_X86

namespace {

QPC_AVX2 Complex
dotcAvx2(const double* xre, const double* xim, const double* yre,
         const double* yim, std::size_t n)
{
    const std::size_t n8 = n & ~std::size_t{7};
    // Two accumulator pairs: a single pair is bound by the two
    // dependent adds per element; interleaving halves the chain.
    __m256d rr0 = _mm256_setzero_pd(), rr1 = _mm256_setzero_pd();
    __m256d ri0 = _mm256_setzero_pd(), ri1 = _mm256_setzero_pd();
    // Each 4-element group loads its four operands and forms all four
    // products before the two accumulates: at most 12 registers live,
    // so every stream is loaded exactly once. Writing each update as
    // one big expression makes GCC fold operands into vmulpd memory
    // operands and re-load every stream twice, lifting the loop from
    // FP-bound (6 cycles / 8 elements) to load-port-bound (8).
    for (std::size_t i = 0; i < n8; i += 8) {
        {
            const __m256d xr = _mm256_loadu_pd(xre + i);
            const __m256d xi = _mm256_loadu_pd(xim + i);
            const __m256d yr = _mm256_loadu_pd(yre + i);
            const __m256d yi = _mm256_loadu_pd(yim + i);
            const __m256d prr = _mm256_mul_pd(xr, yr);
            const __m256d pii = _mm256_mul_pd(xi, yi);
            const __m256d pri = _mm256_mul_pd(xr, yi);
            const __m256d pir = _mm256_mul_pd(xi, yr);
            rr0 = _mm256_add_pd(rr0, _mm256_add_pd(prr, pii));
            ri0 = _mm256_add_pd(ri0, _mm256_sub_pd(pri, pir));
        }
        {
            const __m256d xr = _mm256_loadu_pd(xre + i + 4);
            const __m256d xi = _mm256_loadu_pd(xim + i + 4);
            const __m256d yr = _mm256_loadu_pd(yre + i + 4);
            const __m256d yi = _mm256_loadu_pd(yim + i + 4);
            const __m256d prr = _mm256_mul_pd(xr, yr);
            const __m256d pii = _mm256_mul_pd(xi, yi);
            const __m256d pri = _mm256_mul_pd(xr, yi);
            const __m256d pir = _mm256_mul_pd(xi, yr);
            rr1 = _mm256_add_pd(rr1, _mm256_add_pd(prr, pii));
            ri1 = _mm256_add_pd(ri1, _mm256_sub_pd(pri, pir));
        }
    }
    double sr = hsum(_mm256_add_pd(rr0, rr1));
    double si = hsum(_mm256_add_pd(ri0, ri1));
    for (std::size_t i = n8; i < n; ++i) {
        sr = sr + (xre[i] * yre[i] + xim[i] * yim[i]);
        si = si + (xre[i] * yim[i] - xim[i] * yre[i]);
    }
    return Complex{sr, si};
}

} // namespace

#endif

Complex
dotc(const double* xre, const double* xim, const double* yre,
     const double* yim, std::size_t n)
{
#if QPC_KERNELS_X86
    if (useAvx2())
        return dotcAvx2(xre, xim, yre, yim, n);
#endif
    return dotcScalar(xre, xim, yre, yim, n);
}

// ---------------------------------------------------------------------------
// scaleColumns
// ---------------------------------------------------------------------------

void
scaleColumnsScalar(SoaMatrix& m, const Complex* factors)
{
    const int rows = m.rows(), cols = m.cols();
    for (int r = 0; r < rows; ++r) {
        double* mr = m.re() + static_cast<std::size_t>(r) * cols;
        double* mi = m.im() + static_cast<std::size_t>(r) * cols;
        for (int c = 0; c < cols; ++c) {
            const double fr = factors[c].real();
            const double fi = factors[c].imag();
            const double vr = mr[c];
            const double vi = mi[c];
            double tr = vr * fr;
            tr = tr - vi * fi;
            double ti = vr * fi;
            ti = ti + vi * fr;
            mr[c] = tr;
            mi[c] = ti;
        }
    }
}

#if QPC_KERNELS_X86

namespace {

QPC_AVX2 void
scaleColumnsAvx2(SoaMatrix& m, const Complex* factors)
{
    const int rows = m.rows(), cols = m.cols();
    const int c4 = cols & ~3;
    const double* f = reinterpret_cast<const double*>(factors);
    for (int r = 0; r < rows; ++r) {
        double* mr = m.re() + static_cast<std::size_t>(r) * cols;
        double* mi = m.im() + static_cast<std::size_t>(r) * cols;
        int c = 0;
        for (; c < c4; c += 4) {
            __m256d vfr, vfi;
            load4c(f + 2 * c, vfr, vfi);
            const __m256d vr = _mm256_loadu_pd(mr + c);
            const __m256d vi = _mm256_loadu_pd(mi + c);
            __m256d tr = _mm256_mul_pd(vr, vfr);
            tr = _mm256_sub_pd(tr, _mm256_mul_pd(vi, vfi));
            __m256d ti = _mm256_mul_pd(vr, vfi);
            ti = _mm256_add_pd(ti, _mm256_mul_pd(vi, vfr));
            _mm256_storeu_pd(mr + c, tr);
            _mm256_storeu_pd(mi + c, ti);
        }
        for (; c < cols; ++c) {
            const double fr = factors[c].real();
            const double fi = factors[c].imag();
            const double vr = mr[c];
            const double vi = mi[c];
            double tr = vr * fr;
            tr = tr - vi * fi;
            double ti = vr * fi;
            ti = ti + vi * fr;
            mr[c] = tr;
            mi[c] = ti;
        }
    }
}

} // namespace

#endif

void
scaleColumns(SoaMatrix& m, const Complex* factors)
{
#if QPC_KERNELS_X86
    if (useAvx2())
        return scaleColumnsAvx2(m, factors);
#endif
    scaleColumnsScalar(m, factors);
}

// ---------------------------------------------------------------------------
// statevector gate applies (interleaved boundary)
// ---------------------------------------------------------------------------

void
applyGate1Scalar(Complex* amps, std::size_t dim, std::size_t stride,
                 const Complex* u)
{
    const double u00r = u[0].real(), u00i = u[0].imag();
    const double u01r = u[1].real(), u01i = u[1].imag();
    const double u10r = u[2].real(), u10i = u[2].imag();
    const double u11r = u[3].real(), u11i = u[3].imag();
    double* d = reinterpret_cast<double*>(amps);
    for (std::size_t block = 0; block < dim; block += 2 * stride) {
        for (std::size_t off = 0; off < stride; ++off) {
            const std::size_t i0 = 2 * (block + off);
            const std::size_t i1 = i0 + 2 * stride;
            const double a0r = d[i0], a0i = d[i0 + 1];
            const double a1r = d[i1], a1i = d[i1 + 1];
            double n0r = u00r * a0r;
            n0r = n0r - u00i * a0i;
            n0r = n0r + u01r * a1r;
            n0r = n0r - u01i * a1i;
            double n0i = u00r * a0i;
            n0i = n0i + u00i * a0r;
            n0i = n0i + u01r * a1i;
            n0i = n0i + u01i * a1r;
            double n1r = u10r * a0r;
            n1r = n1r - u10i * a0i;
            n1r = n1r + u11r * a1r;
            n1r = n1r - u11i * a1i;
            double n1i = u10r * a0i;
            n1i = n1i + u10i * a0r;
            n1i = n1i + u11r * a1i;
            n1i = n1i + u11i * a1r;
            d[i0] = n0r;
            d[i0 + 1] = n0i;
            d[i1] = n1r;
            d[i1 + 1] = n1i;
        }
    }
}

#if QPC_KERNELS_X86

namespace {

QPC_AVX2 void
applyGate1Avx2(Complex* amps, std::size_t dim, std::size_t stride,
           const Complex* u)
{
    if (stride < 4) {
        // Sub-vector strides interleave the pair partners too tightly
        // for the 4-wide deinterleave; the scalar path handles them.
        applyGate1Scalar(amps, dim, stride, u);
        return;
    }
    const __m256d u00r = _mm256_set1_pd(u[0].real());
    const __m256d u00i = _mm256_set1_pd(u[0].imag());
    const __m256d u01r = _mm256_set1_pd(u[1].real());
    const __m256d u01i = _mm256_set1_pd(u[1].imag());
    const __m256d u10r = _mm256_set1_pd(u[2].real());
    const __m256d u10i = _mm256_set1_pd(u[2].imag());
    const __m256d u11r = _mm256_set1_pd(u[3].real());
    const __m256d u11i = _mm256_set1_pd(u[3].imag());
    double* d = reinterpret_cast<double*>(amps);
    for (std::size_t block = 0; block < dim; block += 2 * stride) {
        for (std::size_t off = 0; off < stride; off += 4) {
            double* p0 = d + 2 * (block + off);
            double* p1 = p0 + 2 * stride;
            __m256d a0r, a0i, a1r, a1i;
            load4c(p0, a0r, a0i);
            load4c(p1, a1r, a1i);
            __m256d n0r = _mm256_mul_pd(u00r, a0r);
            n0r = _mm256_sub_pd(n0r, _mm256_mul_pd(u00i, a0i));
            n0r = _mm256_add_pd(n0r, _mm256_mul_pd(u01r, a1r));
            n0r = _mm256_sub_pd(n0r, _mm256_mul_pd(u01i, a1i));
            __m256d n0i = _mm256_mul_pd(u00r, a0i);
            n0i = _mm256_add_pd(n0i, _mm256_mul_pd(u00i, a0r));
            n0i = _mm256_add_pd(n0i, _mm256_mul_pd(u01r, a1i));
            n0i = _mm256_add_pd(n0i, _mm256_mul_pd(u01i, a1r));
            __m256d n1r = _mm256_mul_pd(u10r, a0r);
            n1r = _mm256_sub_pd(n1r, _mm256_mul_pd(u10i, a0i));
            n1r = _mm256_add_pd(n1r, _mm256_mul_pd(u11r, a1r));
            n1r = _mm256_sub_pd(n1r, _mm256_mul_pd(u11i, a1i));
            __m256d n1i = _mm256_mul_pd(u10r, a0i);
            n1i = _mm256_add_pd(n1i, _mm256_mul_pd(u10i, a0r));
            n1i = _mm256_add_pd(n1i, _mm256_mul_pd(u11r, a1i));
            n1i = _mm256_add_pd(n1i, _mm256_mul_pd(u11i, a1r));
            store4c(p0, n0r, n0i);
            store4c(p1, n1r, n1i);
        }
    }
}

} // namespace

#endif

void
applyGate1(Complex* amps, std::size_t dim, std::size_t stride,
           const Complex* u)
{
#if QPC_KERNELS_X86
    if (useAvx2())
        return applyGate1Avx2(amps, dim, stride, u);
#endif
    applyGate1Scalar(amps, dim, stride, u);
}

void
applyGate2Scalar(Complex* amps, std::size_t dim, std::size_t s0,
                 std::size_t s1, const Complex* u)
{
    const std::size_t hi = s0 > s1 ? s0 : s1;
    const std::size_t lo = s0 > s1 ? s1 : s0;
    double* d = reinterpret_cast<double*>(amps);
    // Offsets of the four basis slots relative to base, in the row
    // order of u: (0, s1, s0, s0|s1).
    const std::size_t off[4] = {0, 2 * s1, 2 * s0, 2 * (s0 + s1)};
    for (std::size_t a = 0; a < dim; a += 2 * hi) {
        for (std::size_t b = a; b < a + hi; b += 2 * lo) {
            for (std::size_t c = b; c < b + lo; ++c) {
                const std::size_t base = 2 * c;
                double inr[4], ini[4];
                for (int t = 0; t < 4; ++t) {
                    inr[t] = d[base + off[t]];
                    ini[t] = d[base + off[t] + 1];
                }
                double outr[4], outi[4];
                for (int r = 0; r < 4; ++r) {
                    double tr = u[4 * r].real() * inr[0];
                    tr = tr - u[4 * r].imag() * ini[0];
                    double ti = u[4 * r].real() * ini[0];
                    ti = ti + u[4 * r].imag() * inr[0];
                    for (int t = 1; t < 4; ++t) {
                        const double ur = u[4 * r + t].real();
                        const double ui = u[4 * r + t].imag();
                        tr = tr + ur * inr[t];
                        tr = tr - ui * ini[t];
                        ti = ti + ur * ini[t];
                        ti = ti + ui * inr[t];
                    }
                    outr[r] = tr;
                    outi[r] = ti;
                }
                for (int t = 0; t < 4; ++t) {
                    d[base + off[t]] = outr[t];
                    d[base + off[t] + 1] = outi[t];
                }
            }
        }
    }
}

#if QPC_KERNELS_X86

namespace {

QPC_AVX2 void
applyGate2Avx2(Complex* amps, std::size_t dim, std::size_t s0,
           std::size_t s1, const Complex* u)
{
    const std::size_t hi = s0 > s1 ? s0 : s1;
    const std::size_t lo = s0 > s1 ? s1 : s0;
    if (lo < 4) {
        applyGate2Scalar(amps, dim, s0, s1, u);
        return;
    }
    double* d = reinterpret_cast<double*>(amps);
    const std::size_t off[4] = {0, 2 * s1, 2 * s0, 2 * (s0 + s1)};
    for (std::size_t a = 0; a < dim; a += 2 * hi) {
        for (std::size_t b = a; b < a + hi; b += 2 * lo) {
            for (std::size_t c = b; c < b + lo; c += 4) {
                const std::size_t base = 2 * c;
                __m256d inr[4], ini[4];
                for (int t = 0; t < 4; ++t)
                    load4c(d + base + off[t], inr[t], ini[t]);
                __m256d outr[4], outi[4];
                for (int r = 0; r < 4; ++r) {
                    __m256d ur = _mm256_set1_pd(u[4 * r].real());
                    __m256d ui = _mm256_set1_pd(u[4 * r].imag());
                    __m256d tr = _mm256_mul_pd(ur, inr[0]);
                    tr = _mm256_sub_pd(tr, _mm256_mul_pd(ui, ini[0]));
                    __m256d ti = _mm256_mul_pd(ur, ini[0]);
                    ti = _mm256_add_pd(ti, _mm256_mul_pd(ui, inr[0]));
                    for (int t = 1; t < 4; ++t) {
                        ur = _mm256_set1_pd(u[4 * r + t].real());
                        ui = _mm256_set1_pd(u[4 * r + t].imag());
                        tr = _mm256_add_pd(tr,
                                           _mm256_mul_pd(ur, inr[t]));
                        tr = _mm256_sub_pd(tr,
                                           _mm256_mul_pd(ui, ini[t]));
                        ti = _mm256_add_pd(ti,
                                           _mm256_mul_pd(ur, ini[t]));
                        ti = _mm256_add_pd(ti,
                                           _mm256_mul_pd(ui, inr[t]));
                    }
                    outr[r] = tr;
                    outi[r] = ti;
                }
                for (int t = 0; t < 4; ++t)
                    store4c(d + base + off[t], outr[t], outi[t]);
            }
        }
    }
}

} // namespace

#endif

void
applyGate2(Complex* amps, std::size_t dim, std::size_t s0,
           std::size_t s1, const Complex* u)
{
#if QPC_KERNELS_X86
    if (useAvx2())
        return applyGate2Avx2(amps, dim, s0, s1, u);
#endif
    applyGate2Scalar(amps, dim, s0, s1, u);
}

// ---------------------------------------------------------------------------
// interleaved dot products
// ---------------------------------------------------------------------------

namespace {

template <bool Conj>
Complex
dotInterleavedScalar(const Complex* a, const Complex* b, std::size_t n)
{
    const double* x = reinterpret_cast<const double*>(a);
    const double* y = reinterpret_cast<const double*>(b);
    // Eight stripes, mirroring the two vector accumulator pairs (see
    // dotPlanarScalar for the reduction-shape rationale).
    const std::size_t n8 = n & ~std::size_t{7};
    double rr[8] = {};
    double ri[8] = {};
    for (std::size_t i = 0; i < n8; ++i) {
        const std::size_t lane = i & 7;
        const double xr = x[2 * i], xi = x[2 * i + 1];
        const double yr = y[2 * i], yi = y[2 * i + 1];
        if (Conj) {
            rr[lane] = rr[lane] + (xr * yr + xi * yi);
            ri[lane] = ri[lane] + (xr * yi - xi * yr);
        } else {
            rr[lane] = rr[lane] + (xr * yr - xi * yi);
            ri[lane] = ri[lane] + (xr * yi + xi * yr);
        }
    }
    const double tr[4] = {rr[0] + rr[4], rr[1] + rr[5], rr[2] + rr[6],
                          rr[3] + rr[7]};
    const double ti[4] = {ri[0] + ri[4], ri[1] + ri[5], ri[2] + ri[6],
                          ri[3] + ri[7]};
    double sr = (tr[0] + tr[2]) + (tr[1] + tr[3]);
    double si = (ti[0] + ti[2]) + (ti[1] + ti[3]);
    for (std::size_t i = n8; i < n; ++i) {
        const double xr = x[2 * i], xi = x[2 * i + 1];
        const double yr = y[2 * i], yi = y[2 * i + 1];
        if (Conj) {
            sr = sr + (xr * yr + xi * yi);
            si = si + (xr * yi - xi * yr);
        } else {
            sr = sr + (xr * yr - xi * yi);
            si = si + (xr * yi + xi * yr);
        }
    }
    return Complex{sr, si};
}

#if QPC_KERNELS_X86

template <bool Conj>
QPC_AVX2 Complex
dotInterleavedAvx2(const Complex* a, const Complex* b, std::size_t n)
{
    const double* x = reinterpret_cast<const double*>(a);
    const double* y = reinterpret_cast<const double*>(b);
    const std::size_t n8 = n & ~std::size_t{7};
    __m256d rr0 = _mm256_setzero_pd(), rr1 = _mm256_setzero_pd();
    __m256d ri0 = _mm256_setzero_pd(), ri1 = _mm256_setzero_pd();
    for (std::size_t i = 0; i < n8; i += 8) {
        __m256d xr0, xi0, yr0, yi0, xr1, xi1, yr1, yi1;
        load4c(x + 2 * i, xr0, xi0);
        load4c(y + 2 * i, yr0, yi0);
        load4c(x + 2 * i + 8, xr1, xi1);
        load4c(y + 2 * i + 8, yr1, yi1);
        if (Conj) {
            rr0 = _mm256_add_pd(
                rr0, _mm256_add_pd(_mm256_mul_pd(xr0, yr0),
                                   _mm256_mul_pd(xi0, yi0)));
            rr1 = _mm256_add_pd(
                rr1, _mm256_add_pd(_mm256_mul_pd(xr1, yr1),
                                   _mm256_mul_pd(xi1, yi1)));
            ri0 = _mm256_add_pd(
                ri0, _mm256_sub_pd(_mm256_mul_pd(xr0, yi0),
                                   _mm256_mul_pd(xi0, yr0)));
            ri1 = _mm256_add_pd(
                ri1, _mm256_sub_pd(_mm256_mul_pd(xr1, yi1),
                                   _mm256_mul_pd(xi1, yr1)));
        } else {
            rr0 = _mm256_add_pd(
                rr0, _mm256_sub_pd(_mm256_mul_pd(xr0, yr0),
                                   _mm256_mul_pd(xi0, yi0)));
            rr1 = _mm256_add_pd(
                rr1, _mm256_sub_pd(_mm256_mul_pd(xr1, yr1),
                                   _mm256_mul_pd(xi1, yi1)));
            ri0 = _mm256_add_pd(
                ri0, _mm256_add_pd(_mm256_mul_pd(xr0, yi0),
                                   _mm256_mul_pd(xi0, yr0)));
            ri1 = _mm256_add_pd(
                ri1, _mm256_add_pd(_mm256_mul_pd(xr1, yi1),
                                   _mm256_mul_pd(xi1, yr1)));
        }
    }
    double sr = hsum(_mm256_add_pd(rr0, rr1));
    double si = hsum(_mm256_add_pd(ri0, ri1));
    for (std::size_t i = n8; i < n; ++i) {
        const double xr = x[2 * i], xi = x[2 * i + 1];
        const double yr = y[2 * i], yi = y[2 * i + 1];
        if (Conj) {
            sr = sr + (xr * yr + xi * yi);
            si = si + (xr * yi - xi * yr);
        } else {
            sr = sr + (xr * yr - xi * yi);
            si = si + (xr * yi + xi * yr);
        }
    }
    return Complex{sr, si};
}

#endif

} // namespace

Complex
dotcInterleavedScalar(const Complex* a, const Complex* b, std::size_t n)
{
    return dotInterleavedScalar<true>(a, b, n);
}

Complex
dotuInterleavedScalar(const Complex* a, const Complex* b, std::size_t n)
{
    return dotInterleavedScalar<false>(a, b, n);
}

Complex
dotcInterleaved(const Complex* a, const Complex* b, std::size_t n)
{
#if QPC_KERNELS_X86
    if (useAvx2())
        return dotInterleavedAvx2<true>(a, b, n);
#endif
    return dotInterleavedScalar<true>(a, b, n);
}

Complex
dotuInterleaved(const Complex* a, const Complex* b, std::size_t n)
{
#if QPC_KERNELS_X86
    if (useAvx2())
        return dotInterleavedAvx2<false>(a, b, n);
#endif
    return dotInterleavedScalar<false>(a, b, n);
}

// ---------------------------------------------------------------------------
// AoS-boundary conveniences
// ---------------------------------------------------------------------------

void
gemmAosReference(CMatrix& result, const CMatrix& a, const CMatrix& b)
{
    panicIf(a.cols() != b.rows(), "matrix shape mismatch in multiply: ",
            a.rows(), "x", a.cols(), " * ", b.rows(), "x", b.cols());
    panicIf(result.rows() != a.rows() || result.cols() != b.cols(),
            "result shape mismatch in gemmAosReference");
    panicIf(&result == &a || &result == &b,
            "gemmAosReference result must not alias an operand");

    const int n = a.rows();
    const int k = a.cols();
    const int m = b.cols();
    Complex* out = result.data();
    const Complex* ad = a.data();
    const Complex* bd = b.data();

    std::fill(out, out + static_cast<std::size_t>(n) * m,
              Complex{0.0, 0.0});
    // i-k-j loop order streams through b and result rows contiguously.
    for (int i = 0; i < n; ++i) {
        for (int kk = 0; kk < k; ++kk) {
            const Complex aik = ad[i * k + kk];
            if (aik == Complex{0.0, 0.0})
                continue;
            const Complex* brow = bd + static_cast<std::size_t>(kk) * m;
            Complex* orow = out + static_cast<std::size_t>(i) * m;
            for (int j = 0; j < m; ++j)
                orow[j] += aik * brow[j];
        }
    }
}

bool
gemmWorthSoa(int n, int k, int m)
{
    // The multiply's O(nkm) work must amortize the O(nk + km + nm)
    // pack/unpack boundary conversion; 8x8x8 is where the planar
    // kernel starts winning on the dims this library uses.
    return static_cast<std::size_t>(n) * static_cast<std::size_t>(k) *
               static_cast<std::size_t>(m) >=
           512;
}

namespace {

/** Per-thread pack/compute scratch so the hot consumers never
 * allocate; safe because no kernel re-enters gemmInto. */
struct GemmScratch
{
    SoaMatrix a, b, c;
};

GemmScratch&
gemmScratch()
{
    thread_local GemmScratch scratch;
    return scratch;
}

void
unpackInto(const SoaMatrix& s, CMatrix& m)
{
    Complex* d = m.data();
    const std::size_t n = static_cast<std::size_t>(s.rows()) *
                          static_cast<std::size_t>(s.cols());
    for (std::size_t i = 0; i < n; ++i)
        d[i] = Complex{s.re()[i], s.im()[i]};
}

} // namespace

void
gemmInto(CMatrix& result, const CMatrix& a, const CMatrix& b)
{
    panicIf(a.cols() != b.rows(), "matrix shape mismatch in multiply: ",
            a.rows(), "x", a.cols(), " * ", b.rows(), "x", b.cols());
    panicIf(result.rows() != a.rows() || result.cols() != b.cols(),
            "result shape mismatch in gemmInto");
    GemmScratch& s = gemmScratch();
    s.a.pack(a);
    s.b.pack(b);
    s.c.resize(a.rows(), b.cols());
    gemm(s.c, s.a, s.b);
    unpackInto(s.c, result);
}

CMatrix
scaledDaggerSandwich(const CMatrix& v,
                     const std::vector<Complex>& factors)
{
    const int n = v.rows();
    panicIf(v.cols() != n, "scaledDaggerSandwich needs a square matrix");
    panicIf(static_cast<int>(factors.size()) != n,
            "scaledDaggerSandwich needs one factor per column");
    GemmScratch& s = gemmScratch();
    s.a.pack(v);
    scaleColumns(s.a, factors.data());
    s.b.packDagger(v);
    s.c.resize(n, n);
    gemm(s.c, s.a, s.b);
    CMatrix out(n, n);
    unpackInto(s.c, out);
    return out;
}

} // namespace qpc::kernels
