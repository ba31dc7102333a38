/**
 * @file
 * Complex Hermitian eigensolver (Householder tridiagonalization plus
 * implicit-shift QL).
 *
 * GRAPE diagonalizes a Hermitian slice Hamiltonian at every time step
 * of every iteration, so this sits on the cold compile's hot path. At
 * the library's sizes (2x2 up to 64x64: GRAPE blocks of at most 4
 * qubits, 27x27 qutrit models, 6-qubit molecular Hamiltonians) a
 * direct O(n^3) reduction is fast enough without pulling in an
 * external LAPACK.
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
 * real symmetric input yields real eigenvectors.
 *
 * @param a Hermitian input (validated within 1e-9 elementwise).
 * @return Eigenvalues (ascending) and orthonormal eigenvectors.
 */
EigResult eigHermitian(const CMatrix& a);

/**
 * Simultaneously diagonalize two commuting real-symmetric matrices that
 * are stored in CMatrix form with zero imaginary parts.
 *
 * Used by the Weyl decomposition where K = P + iS is a symmetric
 * unitary: P and S are real symmetric and commute, so they share a real
 * orthogonal eigenbasis Q with Q^T P Q and Q^T S Q both diagonal.
 *
 * @param p First real symmetric matrix.
 * @param s Second real symmetric matrix, commuting with p.
 * @param[out] q Real orthogonal matrix of shared eigenvectors (columns).
 * @param[out] pd Diagonal of Q^T P Q.
 * @param[out] sd Diagonal of Q^T S Q.
 */
void simultaneousDiagonalize(const CMatrix& p, const CMatrix& s, CMatrix& q,
                             std::vector<double>& pd,
                             std::vector<double>& sd);

} // namespace qpc

#endif // QPC_LINALG_EIG_H
