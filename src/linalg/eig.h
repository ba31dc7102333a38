/**
 * @file
 * Hermitian and real symmetric eigensolvers (Householder
 * tridiagonalization plus implicit-shift QL).
 *
 * GRAPE diagonalizes a slice Hamiltonian at every time step of every
 * iteration, so this sits on the cold compile's hot path. At the
 * library's sizes (2x2 up to 64x64: GRAPE blocks of at most 4 qubits,
 * 27x27 qutrit models, 6-qubit molecular Hamiltonians) a direct
 * O(n^3) reduction is fast enough without pulling in an external
 * LAPACK.
 *
 * One algorithm serves both entry points: the reduction and the QL
 * sweeps are templates over the scalar type, instantiated for Complex
 * (`eigHermitian`) and for double (`eigSymmetric`). Every device
 * Hamiltonian in the library is real symmetric, so GRAPE takes the
 * real instantiation and skips the complex arithmetic whose imaginary
 * parts would all be zero.
 */

#ifndef QPC_LINALG_EIG_H
#define QPC_LINALG_EIG_H

#include <vector>

#include "linalg/matrix.h"

namespace qpc {

/** Result of a Hermitian eigendecomposition A = V diag(values) V^dagger. */
struct EigResult
{
    /** Real eigenvalues in ascending order. */
    std::vector<double> values;
    /** Unitary matrix whose columns are the matching eigenvectors. */
    CMatrix vectors;
};

/**
 * Diagonalize a complex Hermitian matrix.
 *
 * Householder reflections reduce the (symmetrized) input to a real
 * symmetric tridiagonal matrix and accumulate the unitary (about
 * 13 n^3 real flops as written); EISPACK tql2-style implicit QL with
 * Wilkinson shifts then finishes it, applying its plane rotations to
 * the complex basis (about 12 n^3 more at two sweeps per eigenvalue).
 * Measured in a Release build: about 0.3 us at 2x2, 6.5 us at 8x8
 * and 2.4 ms at 64x64 on a 4-vCPU x86-64 host. Scratch lives on the
 * stack up to 64x64, so the only allocations are the result's. A
 * real symmetric input yields real eigenvectors, bit-identical to
 * `eigSymmetric`'s.
 *
 * @param a Hermitian input (validated within 1e-9 elementwise).
 * @return Eigenvalues (ascending) and orthonormal eigenvectors.
 */
EigResult eigHermitian(const CMatrix& a);

/**
 * Diagonalize a real symmetric matrix into caller storage.
 *
 * The same Householder-QL reduction as `eigHermitian`, run in real
 * arithmetic. The input is validated and symmetrized exactly as there
 * (|a_ij - a_ji| <= 1e-9, then (a_ij + a_ji) / 2), and on real
 * symmetric input the two return bit-identical eigenvalues and
 * eigenvectors (with this translation unit built without FMA
 * contraction, as the build does). Nothing is allocated up to 64x64.
 * Measured in a Release build on a 4-vCPU x86-64 host: about 4 us at
 * 8x8, against about 6 us for `eigHermitian`.
 *
 * @param a Row-major n x n real symmetric input.
 * @param n Dimension.
 * @param[out] values n eigenvalues in ascending order.
 * @param[out] vectors Row-major n x n orthogonal matrix whose column j
 *     is the eigenvector of values[j]. Must not alias a.
 */
void eigSymmetric(const double* a, int n, double* values, double* vectors);

/**
 * Simultaneously diagonalize two commuting real symmetric matrices.
 *
 * Used by the Weyl decomposition where K = P + iS is a symmetric
 * unitary: P and S are real symmetric and commute, so they share a real
 * orthogonal eigenbasis Q with Q^T P Q and Q^T S Q both diagonal. Each
 * try diagonalizes P + w S for a fixed weight w with `eigSymmetric`,
 * re-diagonalizes P inside degenerate clusters, and fixes each
 * column's sign so its largest-magnitude entry is positive. Scratch
 * lives on the stack up to 8x8.
 *
 * @param p Row-major n x n real symmetric matrix.
 * @param s Row-major n x n real symmetric matrix, commuting with p.
 * @param n Dimension.
 * @param[out] q Row-major n x n orthogonal matrix of shared
 *     eigenvectors (columns).
 * @param[out] pd n entries: the diagonal of Q^T P Q.
 * @param[out] sd n entries: the diagonal of Q^T S Q.
 */
void simultaneousDiagonalize(const double* p, const double* s, int n,
                             double* q, double* pd, double* sd);

} // namespace qpc

#endif // QPC_LINALG_EIG_H
