#include "linalg/weyl.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "linalg/eig.h"
#include "linalg/su2.h"

namespace qpc {

namespace {

constexpr double kPi = 3.14159265358979323846;

/**
 * Reduce one coordinate into [-pi/4, pi/4) by pi/2 shifts. A shift of
 * pi/2 in any canonical coordinate multiplies the gate by a local
 * operator (e.g. exp(i pi/2 XX) = i X(x)X), so it preserves the local
 * equivalence class.
 */
double
reduceQuarter(double c)
{
    const double half = kPi / 2.0;
    double r = c - half * std::floor(c / half + 0.5);
    // floor-based rounding can leave r == pi/4 due to roundoff.
    if (r >= kPi / 4.0 - 1e-15)
        r -= half;
    return r;
}

} // namespace

double
WeylCoords::interaction() const
{
    return std::abs(c1) + std::abs(c2) + std::abs(c3);
}

CMatrix
magicBasis()
{
    const double s = 1.0 / std::sqrt(2.0);
    // Columns: (|00>+|11>)/s2, -i(|00>-|11>)/s2, (|01>-|10>)/s2,
    //          -i(|01>+|10>)/s2. Row order |00>,|01>,|10>,|11>.
    CMatrix m(4, 4);
    m(0, 0) = s;
    m(3, 0) = s;
    m(0, 1) = Complex{0.0, -s};
    m(3, 1) = Complex{0.0, s};
    m(1, 2) = s;
    m(2, 2) = -s;
    m(1, 3) = Complex{0.0, -s};
    m(2, 3) = Complex{0.0, -s};
    return m;
}

WeylCoords
weylCoordinates(const CMatrix& u)
{
    panicIf(u.rows() != 4 || u.cols() != 4,
            "weylCoordinates needs a 4x4 matrix");
    panicIf(!u.isUnitary(1e-8), "weylCoordinates input is not unitary");

    // Normalize into SU(4).
    const Complex det = u.determinant();
    CMatrix us = u * std::polar(1.0, -std::arg(det) / 4.0);

    // Move to the magic basis, where locals are real orthogonal and the
    // canonical gate is diagonal.
    const CMatrix m = magicBasis();
    const CMatrix v = m.dagger() * us * m;

    // g = v^T v is symmetric unitary; its eigenphases are twice the
    // diagonal exponents of the canonical gate.
    const CMatrix g = v.transpose() * v;

    double p[16], s[16];
    for (int i = 0; i < 16; ++i) {
        p[i] = g.data()[i].real();
        s[i] = g.data()[i].imag();
    }
    double q[16], pd[4], sd[4];
    simultaneousDiagonalize(p, s, 4, q, pd, sd);

    // Eigenphase of g is 2*phi (mod 2pi), so each phi is free mod pi.
    double phi[4];
    for (int i = 0; i < 4; ++i)
        phi[i] = 0.5 * std::atan2(sd[i], pd[i]);

    // det(g) = det(v)^2 = 1, so sum(phi) = k*pi; shift the largest
    // (or smallest) entries by pi so the sum becomes zero, which keeps
    // the exponents inside the image of the canonical parametrization.
    double sum = phi[0] + phi[1] + phi[2] + phi[3];
    int k = static_cast<int>(std::lround(sum / kPi));
    int order[4] = {0, 1, 2, 3};
    std::sort(std::begin(order), std::end(order),
              [&](int a, int b) { return phi[a] > phi[b]; });
    for (int i = 0; k > 0; --k, ++i)
        phi[order[i]] -= kPi;
    for (int i = 0; k < 0; ++k, ++i)
        phi[order[3 - i]] += kPi;

    // Exponent pattern of exp(i(c1 XX + c2 YY + c3 ZZ)) in the magic
    // basis: (c1-c2+c3, -c1+c2+c3, -c1-c2-c3, c1+c2-c3). Eigenvalue
    // ordering ambiguity only permutes / sign-flips the c's, which the
    // canonical reduction below resolves.
    double c[3];
    c[0] = (phi[0] - phi[1] - phi[2] + phi[3]) / 4.0;
    c[1] = (-phi[0] + phi[1] - phi[2] + phi[3]) / 4.0;
    c[2] = (phi[0] + phi[1] - phi[2] - phi[3]) / 4.0;

    // Reduce each coordinate into [-pi/4, pi/4).
    for (double& ci : c)
        ci = reduceQuarter(ci);

    // Sort by absolute value, descending.
    std::sort(std::begin(c), std::end(c), [](double a, double b) {
        return std::abs(a) > std::abs(b);
    });

    // Flipping the signs of any *pair* of coordinates is a local
    // operation; reduce to at most one negative, carried by the
    // smallest coordinate.
    int negatives = (c[0] < 0) + (c[1] < 0) + (c[2] < 0);
    if (negatives >= 2) {
        // Flip the two largest-magnitude negatives.
        int flipped = 0;
        for (double& ci : c) {
            if (ci < 0 && flipped < 2) {
                ci = -ci;
                ++flipped;
            }
        }
    }
    if (c[0] < 0) {
        c[0] = -c[0];
        c[2] = -c[2];
    }
    if (c[1] < 0) {
        c[1] = -c[1];
        c[2] = -c[2];
    }
    // Keep descending magnitude after sign surgery.
    std::sort(std::begin(c), std::end(c), [](double a, double b) {
        return std::abs(a) > std::abs(b);
    });

    // Chamber wall: +-pi/4 are the same class; prefer c3 >= 0 there.
    if (c[0] > kPi / 4.0 - 1e-9 && c[2] < 0)
        c[2] = -c[2];

    WeylCoords out;
    out.c1 = c[0];
    out.c2 = std::abs(c[1]);
    out.c3 = c[2];
    if (std::abs(out.c3) > out.c2)
        std::swap(out.c2, out.c3);
    return out;
}

CMatrix
canonicalGate(double c1, double c2, double c3)
{
    // Diagonal in the magic basis with the exponent pattern above.
    const double e0 = c1 - c2 + c3;
    const double e1 = -c1 + c2 + c3;
    const double e2 = -c1 - c2 - c3;
    const double e3 = c1 + c2 - c3;
    CMatrix d(4, 4);
    d(0, 0) = std::polar(1.0, e0);
    d(1, 1) = std::polar(1.0, e1);
    d(2, 2) = std::polar(1.0, e2);
    d(3, 3) = std::polar(1.0, e3);
    const CMatrix m = magicBasis();
    return m * d * m.dagger();
}

bool
locallyEquivalent(const CMatrix& u, const CMatrix& v, double tol)
{
    const WeylCoords a = weylCoordinates(u);
    const WeylCoords b = weylCoordinates(v);
    return std::abs(a.c1 - b.c1) <= tol && std::abs(a.c2 - b.c2) <= tol &&
           std::abs(a.c3 - b.c3) <= tol;
}

} // namespace qpc
