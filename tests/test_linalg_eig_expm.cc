#include <gtest/gtest.h>

#include <cmath>

#include "linalg/eig.h"
#include "linalg/expm.h"
#include "linalg/random_unitary.h"
#include "linalg/su2.h"
#include "pulse/evolve.h"
#include "testutil.h"

namespace {

using namespace qpc;
using namespace qpc::testutil;

TEST(Eig, PauliZ)
{
    const EigResult eig = eigHermitian(pauliZ());
    EXPECT_NEAR(eig.values[0], -1.0, 1e-12);
    EXPECT_NEAR(eig.values[1], 1.0, 1e-12);
}

TEST(Eig, PauliXEigenvectors)
{
    const EigResult eig = eigHermitian(pauliX());
    // Reconstruct A = V diag V^dag.
    CMatrix d(2, 2);
    d(0, 0) = eig.values[0];
    d(1, 1) = eig.values[1];
    const CMatrix rebuilt = eig.vectors * d * eig.vectors.dagger();
    EXPECT_TRUE(rebuilt.approxEqual(pauliX(), 1e-10));
}

/**
 * The decomposition contract: A = V diag V^dag within 1e-10 ||A||, V
 * unitary, eigenvalues ascending.
 */
void
expectValidEig(const CMatrix& a, const EigResult& eig)
{
    const int n = a.rows();
    ASSERT_EQ(static_cast<int>(eig.values.size()), n);
    ASSERT_EQ(eig.vectors.rows(), n);
    ASSERT_EQ(eig.vectors.cols(), n);
    EXPECT_TRUE(eig.vectors.isUnitary(1e-10));
    for (int i = 1; i < n; ++i)
        EXPECT_LE(eig.values[i - 1], eig.values[i]);
    CMatrix d(n, n);
    for (int i = 0; i < n; ++i)
        d(i, i) = eig.values[i];
    const CMatrix rebuilt = eig.vectors * d * eig.vectors.dagger();
    EXPECT_LE(rebuilt.maxAbsDiff(a), 1e-10 * a.frobeniusNorm());
}

/** Random Hermitian reconstruction across dimensions, up to the
 * qutrit (27) and BeH2 Hamiltonian (64) sizes. */
class EigSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(EigSweep, ReconstructsRandomHermitian)
{
    const int dim = GetParam();
    Rng rng(100 + dim);
    for (int trial = 0; trial < 5; ++trial) {
        const CMatrix u = haarUnitary(dim, rng);
        const CMatrix h = u + u.dagger();   // Hermitian
        expectValidEig(h, eigHermitian(h));
    }
}

/** eigSymmetric's caller-storage output as an EigResult. */
EigResult
eigSymmetricResult(const CMatrix& a)
{
    const int n = a.rows();
    std::vector<double> in(static_cast<size_t>(n) * n);
    for (int i = 0; i < n * n; ++i)
        in[i] = a.data()[i].real();
    EigResult out;
    out.values.resize(n);
    std::vector<double> vectors(static_cast<size_t>(n) * n);
    eigSymmetric(in.data(), n, out.values.data(), vectors.data());
    out.vectors = CMatrix(n, n);
    for (int i = 0; i < n * n; ++i)
        out.vectors.data()[i] = vectors[i];
    return out;
}

/** A random real symmetric n x n matrix, entries uniform in [-1, 1]. */
CMatrix
randomSymmetric(int n, Rng& rng)
{
    CMatrix a(n, n);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j <= i; ++j)
            a(i, j) = a(j, i) = rng.uniform(-1.0, 1.0);
    return a;
}

TEST_P(EigSweep, ReconstructsRandomSymmetric)
{
    const int dim = GetParam();
    Rng rng(200 + dim);
    for (int trial = 0; trial < 5; ++trial) {
        const CMatrix a = randomSymmetric(dim, rng);
        expectValidEig(a, eigSymmetricResult(a));
    }
}

INSTANTIATE_TEST_SUITE_P(Dims, EigSweep,
                         ::testing::Values(2, 3, 4, 8, 16, 27, 64));

TEST(Eig, IdentityAndZero)
{
    const CMatrix id = CMatrix::identity(5);
    const EigResult one = eigHermitian(id);
    expectValidEig(id, one);
    for (double v : one.values)
        EXPECT_DOUBLE_EQ(v, 1.0);

    const CMatrix zero = CMatrix::zeros(5, 5);
    const EigResult none = eigHermitian(zero);
    expectValidEig(zero, none);
    for (double v : none.values)
        EXPECT_EQ(v, 0.0);
}

TEST(Eig, OneByOne)
{
    const CMatrix a(1, 1, {Complex{-2.5, 0.0}});
    const EigResult eig = eigHermitian(a);
    expectValidEig(a, eig);
    EXPECT_EQ(eig.values[0], -2.5);
    EXPECT_NEAR(std::abs(eig.vectors(0, 0)), 1.0, 1e-15);
}

TEST(Eig, DiagonalWithRepeatedEigenvalues)
{
    // Z (x) I (x) I: already diagonal, each eigenvalue four-fold.
    const CMatrix a = kronAll({pauliZ(), pauliI(), pauliI()});
    const EigResult eig = eigHermitian(a);
    expectValidEig(a, eig);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(eig.values[i], i < 4 ? -1.0 : 1.0);
}

TEST(Eig, AlreadyTridiagonal)
{
    Rng rng(15);
    const int n = 7;
    CMatrix a(n, n);
    for (int i = 0; i < n; ++i) {
        a(i, i) = rng.uniform(-1.0, 1.0);
        if (i + 1 < n) {
            a(i + 1, i) = Complex{rng.uniform(-1.0, 1.0),
                                  rng.uniform(-1.0, 1.0)};
            a(i, i + 1) = std::conj(a(i + 1, i));
        }
    }
    expectValidEig(a, eigHermitian(a));
}

TEST(Eig, RealSymmetricGivesRealEigenvectors)
{
    Rng rng(16);
    for (int n : {4, 7, 16}) {
        CMatrix a(n, n);
        for (int i = 0; i < n; ++i)
            for (int j = 0; j <= i; ++j)
                a(i, j) = a(j, i) = rng.uniform(-1.0, 1.0);
        const EigResult eig = eigHermitian(a);
        expectValidEig(a, eig);
        for (int r = 0; r < n; ++r)
            for (int c = 0; c < n; ++c)
                EXPECT_LE(std::abs(eig.vectors(r, c).imag()), 1e-12)
                    << "n " << n;
    }
}

/** The real and complex instantiations agree exactly on real input. */
void
expectBitIdentical(const CMatrix& a)
{
    const EigResult complex_eig = eigHermitian(a);
    const EigResult real_eig = eigSymmetricResult(a);
    const int n = a.rows();
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(real_eig.values[i], complex_eig.values[i])
            << "n " << n << " value " << i;
    for (int i = 0; i < n * n; ++i) {
        EXPECT_EQ(real_eig.vectors.data()[i].real(),
                  complex_eig.vectors.data()[i].real())
            << "n " << n << " entry " << i;
        EXPECT_EQ(complex_eig.vectors.data()[i].imag(), 0.0)
            << "n " << n << " entry " << i;
    }
}

TEST(Eig, SymmetricMatchesHermitianBitForBit)
{
    // GRAPE's slice Hamiltonians at random amplitudes within each
    // control's bound, for the block widths the compiler produces.
    Rng rng(17);
    for (int width = 1; width <= 3; ++width) {
        const DeviceModel device = DeviceModel::gmonClique(width);
        std::vector<double> amps(device.numControls());
        for (int trial = 0; trial < 20; ++trial) {
            for (int c = 0; c < device.numControls(); ++c) {
                const double bound = device.controls()[c].maxAmp;
                amps[c] = rng.uniform(-bound, bound);
            }
            expectBitIdentical(sliceHamiltonian(device, amps));
        }
    }
    for (int n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                  27, 64})
        expectBitIdentical(randomSymmetric(n, rng));
}

TEST(Eig, SymmetricRejectsAsymmetricInput)
{
    const double a[4] = {1.0, 0.5, 0.5 + 1e-6, 2.0};
    double values[2], vectors[4];
    EXPECT_DEATH(eigSymmetric(a, 2, values, vectors), "not symmetric");
}

TEST(Eig, DegenerateSpectrum)
{
    // diag(1, 1, 2) with a rotation: eigenvalues {1, 1, 2}.
    Rng rng(11);
    const CMatrix u = haarUnitary(3, rng);
    CMatrix d(3, 3);
    d(0, 0) = 1.0;
    d(1, 1) = 1.0;
    d(2, 2) = 2.0;
    const CMatrix h = u * d * u.dagger();
    const EigResult eig = eigHermitian(h);
    EXPECT_NEAR(eig.values[0], 1.0, 1e-9);
    EXPECT_NEAR(eig.values[1], 1.0, 1e-9);
    EXPECT_NEAR(eig.values[2], 2.0, 1e-9);
}

TEST(Expm, ZeroGivesIdentity)
{
    const CMatrix z = CMatrix::zeros(4, 4);
    EXPECT_TRUE(expmGeneral(z).approxEqual(CMatrix::identity(4),
                                           1e-12));
}

TEST(Expm, HermitianGivesRotations)
{
    // exp(-i theta X / 2) = Rx(theta).
    for (double theta : {0.3, 1.0, 2.5, -1.7}) {
        const CMatrix gen = pauliX();
        const CMatrix u =
            expmHermitian(gen, Complex{0.0, -theta / 2.0});
        EXPECT_TRUE(u.approxEqual(rxMatrix(theta), 1e-10))
            << "theta " << theta;
    }
}

TEST(Expm, GeneralMatchesHermitianPath)
{
    Rng rng(12);
    const CMatrix u = haarUnitary(4, rng);
    CMatrix h = u + u.dagger();
    const CMatrix via_eig = expmHermitian(h, Complex{0.0, -0.37});
    const CMatrix via_taylor = expmGeneral(h * Complex{0.0, -0.37});
    EXPECT_LT(via_eig.maxAbsDiff(via_taylor), 1e-9);
}

TEST(Expm, ExponentialOfHermitianIsUnitary)
{
    Rng rng(13);
    for (int trial = 0; trial < 5; ++trial) {
        const CMatrix u = haarUnitary(8, rng);
        CMatrix h = u + u.dagger();
        const CMatrix e = expmHermitian(h, Complex{0.0, -1.0});
        EXPECT_TRUE(e.isUnitary(1e-9));
    }
}

TEST(SimultaneousDiag, CommutingPair)
{
    // P, S built from a shared real orthogonal eigenbasis commute.
    Rng rng(14);
    CMatrix q(4, 4);
    {
        // Random rotation built from Givens rotations (real).
        q = CMatrix::identity(4);
        for (int a = 0; a < 4; ++a) {
            for (int b = a + 1; b < 4; ++b) {
                const double t = rng.angle();
                CMatrix g = CMatrix::identity(4);
                g(a, a) = std::cos(t);
                g(b, b) = std::cos(t);
                g(a, b) = -std::sin(t);
                g(b, a) = std::sin(t);
                q = q * g;
            }
        }
    }
    CMatrix dp(4, 4), ds(4, 4);
    for (int i = 0; i < 4; ++i) {
        dp(i, i) = rng.uniform(-2.0, 2.0);
        ds(i, i) = rng.uniform(-2.0, 2.0);
    }
    const CMatrix p = q * dp * q.transpose();
    const CMatrix s = q * ds * q.transpose();

    double pr[16], sr[16];
    for (int i = 0; i < 16; ++i) {
        pr[i] = p.data()[i].real();
        sr[i] = s.data()[i].real();
    }
    double qs[16], pd[4], sd[4];
    simultaneousDiagonalize(pr, sr, 4, qs, pd, sd);
    CMatrix shared(4, 4);
    for (int i = 0; i < 16; ++i)
        shared.data()[i] = qs[i];
    EXPECT_TRUE(shared.isUnitary(1e-10));
    const CMatrix rp = shared.transpose() * p * shared;
    const CMatrix rs = shared.transpose() * s * shared;
    for (int i = 0; i < 4; ++i) {
        EXPECT_NEAR(rp(i, i).real(), pd[i], 1e-12);
        EXPECT_NEAR(rs(i, i).real(), sd[i], 1e-12);
        for (int j = 0; j < 4; ++j) {
            if (i == j)
                continue;
            EXPECT_NEAR(std::abs(rp(i, j)), 0.0, 1e-7);
            EXPECT_NEAR(std::abs(rs(i, j)), 0.0, 1e-7);
        }
    }
}

} // namespace
