/**
 * @file
 * Structure-of-arrays numeric kernels for the compute spine.
 *
 * Every pulse this system serves is born in the same inner loops —
 * statevector gate application, `expm`, and the GRAPE gradient. This
 * layer gives those loops a planar (separate re/im arrays, 32-byte
 * aligned) complex representation and hand-vectorized AVX2 inner
 * loops. On x86-64 every build compiles the AVX2 bodies, and each
 * dispatching kernel runs them when the host CPU supports AVX2 (probed
 * once per process), else its scalar reference; no build option is
 * involved.
 *
 * Contract: every dispatching kernel has a scalar fallback that is
 * **bit-compatible** with the AVX2 path — identical operations on
 * identical elements in identical order, no FMA contraction (this
 * translation unit is built with `-ffp-contract=off`, and the AVX2
 * bodies target AVX2 only). A host without AVX2 therefore computes
 * bit-for-bit the same results as one with it.
 *
 * Consumers convert at the boundary: `CMatrix` keeps its row-major
 * array-of-structs `std::complex<double>` public API, and the
 * statevector keeps its interleaved amplitude buffer; pack/unpack
 * (or in-register deinterleaving, for the interleaved kernels)
 * happens here, so the IR/partial/cache layers above never see the
 * planar layout.
 */

#ifndef QPC_LINALG_KERNELS_H
#define QPC_LINALG_KERNELS_H

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"

namespace qpc::kernels {

/** True when the dispatching kernels run the AVX2 paths (the host
 * CPU supports AVX2). */
bool simdEnabled();

/** "avx2" or "scalar" — for bench/test labeling. */
const char* backendName();

/**
 * Dense row-major planar complex matrix: one aligned double array for
 * the real parts, one for the imaginary parts. Scratch representation
 * only — pack from / unpack to `CMatrix` at the boundary.
 */
class SoaMatrix
{
  public:
    SoaMatrix() = default;
    SoaMatrix(int rows, int cols) { resize(rows, cols); }
    ~SoaMatrix();

    SoaMatrix(const SoaMatrix&) = delete;
    SoaMatrix& operator=(const SoaMatrix&) = delete;
    SoaMatrix(SoaMatrix&& other) noexcept { swap(other); }
    SoaMatrix&
    operator=(SoaMatrix&& other) noexcept
    {
        swap(other);
        return *this;
    }

    /** Reallocate (only when capacity grows) to rows x cols. Contents
     * are unspecified afterwards. */
    void resize(int rows, int cols);

    int rows() const { return rows_; }
    int cols() const { return cols_; }

    double* re() { return re_; }
    double* im() { return im_; }
    const double* re() const { return re_; }
    const double* im() const { return im_; }

    /** Copy an AoS matrix in (resizing to match). */
    void pack(const CMatrix& m);
    /** Copy the conjugate transpose of an AoS matrix in. */
    void packDagger(const CMatrix& m);
    /** Copy out to an AoS matrix (resized to match). */
    void unpack(CMatrix& m) const;

    void swap(SoaMatrix& other) noexcept;

  private:
    int rows_ = 0;
    int cols_ = 0;
    std::size_t capacity_ = 0;
    double* re_ = nullptr;
    double* im_ = nullptr;
};

/** @name Planar (SoA) kernels
 * Each comes as a dispatching entry point plus a `...Scalar` reference
 * that the dispatcher is bit-compatible with (the property tests and
 * the micro bench compare the two).
 * @{ */

/** c = a * b. c must be presized a.rows() x b.cols(); no aliasing. */
void gemm(SoaMatrix& c, const SoaMatrix& a, const SoaMatrix& b);
void gemmScalar(SoaMatrix& c, const SoaMatrix& a, const SoaMatrix& b);

/** sum_i conj(x_i) * y_i over n planar elements. */
Complex dotc(const double* xre, const double* xim, const double* yre,
             const double* yim, std::size_t n);
Complex dotcScalar(const double* xre, const double* xim,
                   const double* yre, const double* yim, std::size_t n);

/** Scale column j of m by factors[j] (m.cols() factors). */
void scaleColumns(SoaMatrix& m, const Complex* factors);
void scaleColumnsScalar(SoaMatrix& m, const Complex* factors);

/** @} */

/** @name Interleaved-boundary kernels
 * Operate directly on array-of-structs complex buffers (the
 * statevector's amplitudes, `CMatrix` rows), deinterleaving into
 * planar form in registers. Same bit-compatibility contract.
 * @{ */

/**
 * Apply a 2x2 unitary to every amplitude pair (base, base | stride)
 * of an interleaved statevector of `dim` amplitudes. u is row-major
 * {u00, u01, u10, u11}. stride must be a power of two < dim.
 */
void applyGate1(Complex* amps, std::size_t dim, std::size_t stride,
                const Complex* u);
void applyGate1Scalar(Complex* amps, std::size_t dim,
                      std::size_t stride, const Complex* u);

/**
 * Apply a 4x4 unitary to every amplitude quad
 * (base, base|s1, base|s0, base|s0|s1) of an interleaved statevector.
 * u is row-major 4x4; s0 != s1 are powers of two < dim.
 */
void applyGate2(Complex* amps, std::size_t dim, std::size_t s0,
                std::size_t s1, const Complex* u);
void applyGate2Scalar(Complex* amps, std::size_t dim, std::size_t s0,
                      std::size_t s1, const Complex* u);

/** sum_i conj(a_i) * b_i over interleaved complex buffers. */
Complex dotcInterleaved(const Complex* a, const Complex* b,
                        std::size_t n);
Complex dotcInterleavedScalar(const Complex* a, const Complex* b,
                              std::size_t n);

/** sum_i a_i * b_i (no conjugation) over interleaved buffers. */
Complex dotuInterleaved(const Complex* a, const Complex* b,
                        std::size_t n);
Complex dotuInterleavedScalar(const Complex* a, const Complex* b,
                              std::size_t n);

/** @} */

/** @name AoS-boundary conveniences for the CMatrix consumers
 * @{ */

/**
 * The pre-SoA array-of-structs multiply loop, kept verbatim as the
 * scalar *reference* implementation: the property tests pin the SoA
 * kernels against it, and the micro bench reports speedups relative
 * to it (it is what `multiplyInto` executed before this layer).
 */
void gemmAosReference(CMatrix& result, const CMatrix& a,
                      const CMatrix& b);

/**
 * True when routing an (n x k) * (k x m) multiply through pack +
 * planar gemm + unpack beats the AoS loop (the multiply must amortize
 * the O(nk + km + nm) boundary conversion).
 */
bool gemmWorthSoa(int n, int k, int m);

/** result = a * b through the planar kernel (presized, no aliasing). */
void gemmInto(CMatrix& result, const CMatrix& a, const CMatrix& b);

/**
 * V diag(factors) V^dagger — the Hermitian-function sandwich at the
 * heart of `expmHermitian` and the GRAPE slice propagators. Column
 * scaling plus a dagger-packed gemm, all planar.
 */
CMatrix scaledDaggerSandwich(const CMatrix& v,
                             const std::vector<Complex>& factors);

/** @} */

} // namespace qpc::kernels

#endif // QPC_LINALG_KERNELS_H
