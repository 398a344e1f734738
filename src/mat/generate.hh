/**
 * @file
 * Deterministic workload generators for tests and benchmarks.
 *
 * Integer-valued generators produce entries in small ranges so that
 * all systolic computations are exact in double precision (every
 * intermediate fits in the 53-bit mantissa), letting tests require
 * bit-exact equality with the oracle.
 */

#ifndef SAP_MAT_GENERATE_HH
#define SAP_MAT_GENERATE_HH

#include <cstdint>

#include "base/random.hh"
#include "mat/dense.hh"
#include "mat/vector.hh"

namespace sap {

/**
 * Dense matrix with uniform integer entries in [lo, hi], stored as
 * Scalar (double). Entries are guaranteed nonzero when lo > 0.
 */
Dense<Scalar> randomIntDense(Index rows, Index cols, std::uint64_t seed,
                             Index lo = 1, Index hi = 9);

/** Vector with uniform integer entries in [lo, hi]. */
Vec<Scalar> randomIntVec(Index n, std::uint64_t seed, Index lo = 1,
                         Index hi = 9);

/** Dense matrix with uniform real entries in [lo, hi). */
Dense<Scalar> randomRealDense(Index rows, Index cols, std::uint64_t seed,
                              double lo = -1.0, double hi = 1.0);

/** Vector with uniform real entries in [lo, hi). */
Vec<Scalar> randomRealVec(Index n, std::uint64_t seed, double lo = -1.0,
                          double hi = 1.0);

/**
 * Block-sparse matrix: a dense matrix whose w-by-w blocks are
 * entirely zero with probability @p zero_prob; surviving blocks are
 * filled with nonzero integers. Exercises the sparsity-aware DBT of
 * the paper's conclusions.
 */
Dense<Scalar> randomBlockSparse(Index rows, Index cols, Index w,
                                double zero_prob, std::uint64_t seed);

/**
 * Sequential "coordinate-coded" matrix: entry (i, j) equals
 * (i+1)*1000 + (j+1). Every entry is distinct and nonzero, which
 * makes structural tests (who-went-where) self-describing.
 */
Dense<Scalar> coordinateCoded(Index rows, Index cols);

/** Lower-triangular matrix with nonzero integer diagonal. */
Dense<Scalar> randomLowerTriangular(Index n, std::uint64_t seed);

/**
 * Unit lower-triangular matrix (diagonal 1, small integer strict
 * lower triangle): every forward-substitution intermediate stays an
 * exact integer, so triangular-solve tests can require bit-exact
 * equality with the oracle despite the divisions.
 */
Dense<Scalar> randomUnitLowerTriangular(Index n, std::uint64_t seed);

/**
 * Strictly diagonally dominant matrix (integer entries), suitable
 * for Gauss-Seidel convergence tests.
 */
Dense<Scalar> randomDiagDominant(Index n, std::uint64_t seed);

} // namespace sap

#endif // SAP_MAT_GENERATE_HH
