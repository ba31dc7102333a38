/**
 * Property tests for the SoA kernels layer: randomized equivalence
 * against scalar references (<= 1e-12 elementwise, including
 * non-multiple-of-vector-width and size-1 edges), and bit-identity
 * between every dispatching kernel and its `...Scalar` mirror. The
 * dispatchers run the AVX2 bodies whenever the host CPU has AVX2, so
 * on such a host every build — sanitizer lanes included — checks the
 * vector paths against the scalar references here.
 */

#include <gtest/gtest.h>

#include <complex>
#include <vector>

#include "common/rng.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/random_unitary.h"

namespace {

using namespace qpc;

CMatrix
randomMatrix(int rows, int cols, Rng& rng)
{
    CMatrix m(rows, cols);
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            m(r, c) = Complex{rng.normal(), rng.normal()};
    return m;
}

std::vector<Complex>
randomVector(int n, Rng& rng)
{
    std::vector<Complex> v(n);
    for (auto& x : v)
        x = Complex{rng.normal(), rng.normal()};
    return v;
}

// Sizes that exercise the vector body, the scalar tail, and the
// degenerate single-element case.
const int kEdgeSizes[] = {1, 2, 3, 4, 5, 7, 8, 13, 16, 33};

TEST(Kernels, BackendNameMatchesDispatch)
{
    // The dispatchers pick AVX2 exactly when the host CPU has it,
    // whatever -march the build used.
#if defined(__x86_64__) && defined(__GNUC__)
    __builtin_cpu_init();
    const bool avx2 = __builtin_cpu_supports("avx2") != 0;
#else
    const bool avx2 = false;
#endif
    EXPECT_EQ(kernels::simdEnabled(), avx2);
    EXPECT_STREQ(kernels::backendName(), avx2 ? "avx2" : "scalar");
}

TEST(Kernels, PackUnpackRoundTrips)
{
    Rng rng(11);
    for (int rows : {1, 3, 8}) {
        for (int cols : {1, 5, 8}) {
            const CMatrix m = randomMatrix(rows, cols, rng);
            kernels::SoaMatrix s;
            s.pack(m);
            CMatrix back(1, 1);
            s.unpack(back);
            EXPECT_EQ(back.rows(), rows);
            EXPECT_EQ(back.cols(), cols);
            EXPECT_EQ(m.maxAbsDiff(back), 0.0);
        }
    }
}

TEST(Kernels, PackDaggerIsConjugateTranspose)
{
    Rng rng(12);
    const CMatrix m = randomMatrix(5, 7, rng);
    kernels::SoaMatrix s;
    s.packDagger(m);
    CMatrix back(1, 1);
    s.unpack(back);
    EXPECT_EQ(back.maxAbsDiff(m.dagger()), 0.0);
}

TEST(Kernels, GemmMatchesAosReferenceOverRandomShapes)
{
    Rng rng(21);
    for (int n : {1, 3, 8, 16}) {
        for (int k : {1, 5, 16}) {
            for (int m : {1, 7, 16}) {
                const CMatrix a = randomMatrix(n, k, rng);
                const CMatrix b = randomMatrix(k, m, rng);
                CMatrix want(n, m);
                kernels::gemmAosReference(want, a, b);
                CMatrix got(n, m);
                kernels::gemmInto(got, a, b);
                EXPECT_LE(want.maxAbsDiff(got), 1e-12)
                    << n << "x" << k << "x" << m;
            }
        }
    }
}

TEST(Kernels, GemmDispatchBitIdenticalToScalarMirror)
{
    Rng rng(22);
    for (int m : kEdgeSizes) {
        kernels::SoaMatrix a, b;
        a.pack(randomMatrix(5, 9, rng));
        b.pack(randomMatrix(9, m, rng));
        kernels::SoaMatrix c1(5, m), c2(5, m);
        kernels::gemm(c1, a, b);
        kernels::gemmScalar(c2, a, b);
        for (int i = 0; i < 5 * m; ++i) {
            EXPECT_EQ(c1.re()[i], c2.re()[i]) << "re " << i;
            EXPECT_EQ(c1.im()[i], c2.im()[i]) << "im " << i;
        }
    }
}

TEST(Kernels, PlanarDotsMatchComplexReferenceAndScalarMirror)
{
    Rng rng(25);
    for (int n : kEdgeSizes) {
        const std::vector<Complex> x = randomVector(n, rng);
        const std::vector<Complex> y = randomVector(n, rng);
        std::vector<double> xre(n), xim(n), yre(n), yim(n);
        for (int i = 0; i < n; ++i) {
            xre[i] = x[i].real();
            xim[i] = x[i].imag();
            yre[i] = y[i].real();
            yim[i] = y[i].imag();
        }
        Complex want_c{0.0, 0.0};
        for (int i = 0; i < n; ++i)
            want_c += std::conj(x[i]) * y[i];
        const Complex dc = kernels::dotc(xre.data(), xim.data(),
                                         yre.data(), yim.data(), n);
        EXPECT_LE(std::abs(dc - want_c), 1e-12 * (1.0 + n));
        EXPECT_EQ(dc, kernels::dotcScalar(xre.data(), xim.data(),
                                          yre.data(), yim.data(), n));
    }
}

TEST(Kernels, InterleavedDotsMatchComplexReferenceAndScalarMirror)
{
    Rng rng(26);
    for (int n : kEdgeSizes) {
        const std::vector<Complex> x = randomVector(n, rng);
        const std::vector<Complex> y = randomVector(n, rng);
        Complex want_c{0.0, 0.0}, want_u{0.0, 0.0};
        for (int i = 0; i < n; ++i) {
            want_c += std::conj(x[i]) * y[i];
            want_u += x[i] * y[i];
        }
        const Complex dc =
            kernels::dotcInterleaved(x.data(), y.data(), n);
        const Complex du =
            kernels::dotuInterleaved(x.data(), y.data(), n);
        EXPECT_LE(std::abs(dc - want_c), 1e-12 * (1.0 + n));
        EXPECT_LE(std::abs(du - want_u), 1e-12 * (1.0 + n));
        EXPECT_EQ(dc, kernels::dotcInterleavedScalar(x.data(),
                                                     y.data(), n));
        EXPECT_EQ(du, kernels::dotuInterleavedScalar(x.data(),
                                                     y.data(), n));
    }
}

TEST(Kernels, ScaleColumnsMatchesReferenceAndScalarMirror)
{
    Rng rng(27);
    for (int cols : kEdgeSizes) {
        const CMatrix m = randomMatrix(3, cols, rng);
        const std::vector<Complex> f = randomVector(cols, rng);

        kernels::SoaMatrix s1, s2;
        s1.pack(m);
        s2.pack(m);
        kernels::scaleColumns(s1, f.data());
        kernels::scaleColumnsScalar(s2, f.data());

        for (int r = 0; r < 3; ++r) {
            for (int c = 0; c < cols; ++c) {
                const int i = r * cols + c;
                const Complex want = m(r, c) * f[c];
                EXPECT_LE(std::abs(Complex{s1.re()[i], s1.im()[i]} -
                                   want),
                          1e-12);
                EXPECT_EQ(s1.re()[i], s2.re()[i]);
                EXPECT_EQ(s1.im()[i], s2.im()[i]);
            }
        }
    }
}

/** The pre-kernels applyMatrix1 loop, kept as the test oracle. */
void
applyGate1Oracle(std::vector<Complex>& amps, size_t stride,
                 const CMatrix& u)
{
    for (size_t base = 0; base < amps.size(); ++base) {
        if (base & stride)
            continue;
        const Complex a0 = amps[base];
        const Complex a1 = amps[base | stride];
        amps[base] = u(0, 0) * a0 + u(0, 1) * a1;
        amps[base | stride] = u(1, 0) * a0 + u(1, 1) * a1;
    }
}

TEST(Kernels, ApplyGate1MatchesOracleAtEveryStride)
{
    Rng rng(28);
    const int qubits = 5; // dim 32: strides 1, 2, 4, 8, 16.
    const size_t dim = size_t{1} << qubits;
    for (int q = 0; q < qubits; ++q) {
        const size_t stride = size_t{1} << (qubits - 1 - q);
        const CMatrix u = haarUnitary(2, rng);
        const Complex uflat[4] = {u(0, 0), u(0, 1), u(1, 0), u(1, 1)};
        std::vector<Complex> state = randomState(dim, rng);

        std::vector<Complex> want = state;
        applyGate1Oracle(want, stride, u);
        std::vector<Complex> scalar = state;
        kernels::applyGate1Scalar(scalar.data(), dim, stride, uflat);
        kernels::applyGate1(state.data(), dim, stride, uflat);

        for (size_t i = 0; i < dim; ++i) {
            EXPECT_LE(std::abs(state[i] - want[i]), 1e-12)
                << "stride " << stride << " amp " << i;
            // Dispatch is bit-identical to the scalar mirror.
            EXPECT_EQ(state[i].real(), scalar[i].real());
            EXPECT_EQ(state[i].imag(), scalar[i].imag());
        }
    }
}

/** The pre-kernels applyMatrix2 loop, kept as the test oracle. */
void
applyGate2Oracle(std::vector<Complex>& amps, size_t s0, size_t s1,
                 const CMatrix& u)
{
    for (size_t base = 0; base < amps.size(); ++base) {
        if ((base & s0) || (base & s1))
            continue;
        Complex in[4] = {amps[base], amps[base | s1], amps[base | s0],
                         amps[base | s0 | s1]};
        Complex out[4];
        for (int r = 0; r < 4; ++r)
            out[r] = u(r, 0) * in[0] + u(r, 1) * in[1] +
                     u(r, 2) * in[2] + u(r, 3) * in[3];
        amps[base] = out[0];
        amps[base | s1] = out[1];
        amps[base | s0] = out[2];
        amps[base | s0 | s1] = out[3];
    }
}

TEST(Kernels, ApplyGate2MatchesOracleAtEveryQubitPair)
{
    Rng rng(29);
    const int qubits = 5;
    const size_t dim = size_t{1} << qubits;
    for (int q0 = 0; q0 < qubits; ++q0) {
        for (int q1 = 0; q1 < qubits; ++q1) {
            if (q0 == q1)
                continue;
            const size_t s0 = size_t{1} << (qubits - 1 - q0);
            const size_t s1 = size_t{1} << (qubits - 1 - q1);
            const CMatrix u = haarUnitary(4, rng);
            Complex uflat[16];
            for (int r = 0; r < 4; ++r)
                for (int c = 0; c < 4; ++c)
                    uflat[4 * r + c] = u(r, c);
            std::vector<Complex> state = randomState(dim, rng);

            std::vector<Complex> want = state;
            applyGate2Oracle(want, s0, s1, u);
            std::vector<Complex> scalar = state;
            kernels::applyGate2Scalar(scalar.data(), dim, s0, s1,
                                      uflat);
            kernels::applyGate2(state.data(), dim, s0, s1, uflat);

            for (size_t i = 0; i < dim; ++i) {
                EXPECT_LE(std::abs(state[i] - want[i]), 1e-12)
                    << "q0=" << q0 << " q1=" << q1 << " amp " << i;
                EXPECT_EQ(state[i].real(), scalar[i].real());
                EXPECT_EQ(state[i].imag(), scalar[i].imag());
            }
        }
    }
}

TEST(Kernels, ScaledDaggerSandwichMatchesNaiveProduct)
{
    Rng rng(30);
    for (int n : {1, 2, 5, 8, 16}) {
        const CMatrix v = haarUnitary(n, rng);
        const std::vector<Complex> f = randomVector(n, rng);

        CMatrix scaled = v;
        for (int c = 0; c < n; ++c)
            for (int r = 0; r < n; ++r)
                scaled(r, c) *= f[c];
        CMatrix want(n, n);
        kernels::gemmAosReference(want, scaled, v.dagger());

        const CMatrix got = kernels::scaledDaggerSandwich(v, f);
        EXPECT_LE(want.maxAbsDiff(got), 1e-12) << "dim " << n;

        // Bit-identical to the same composition on the scalar mirrors.
        kernels::SoaMatrix a, b, c(n, n);
        a.pack(v);
        kernels::scaleColumnsScalar(a, f.data());
        b.packDagger(v);
        kernels::gemmScalar(c, a, b);
        CMatrix mirror;
        c.unpack(mirror);
        EXPECT_EQ(mirror.maxAbsDiff(got), 0.0) << "dim " << n;
    }
}

TEST(Kernels, MultiplyIntoStillMatchesReferenceAboveThreshold)
{
    // The consumer-facing dispatch: big multiplies route to the SoA
    // kernel, and must agree with the AoS loop they replaced.
    Rng rng(31);
    const CMatrix a = randomMatrix(16, 16, rng);
    const CMatrix b = randomMatrix(16, 16, rng);
    ASSERT_TRUE(kernels::gemmWorthSoa(16, 16, 16));
    CMatrix want(16, 16);
    kernels::gemmAosReference(want, a, b);
    const CMatrix got = a * b;
    EXPECT_LE(want.maxAbsDiff(got), 1e-12);

    // Bit-identical to pack + the scalar gemm mirror.
    kernels::SoaMatrix sa, sb, sc(16, 16);
    sa.pack(a);
    sb.pack(b);
    kernels::gemmScalar(sc, sa, sb);
    CMatrix mirror;
    sc.unpack(mirror);
    EXPECT_EQ(mirror.maxAbsDiff(got), 0.0);
}

} // namespace
