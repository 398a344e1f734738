/**
 * @file
 * Analytic expressions published in the paper (§2, §3).
 *
 * These are the claims the reproduction validates: the simulators
 * *measure* T, utilization, feedback delays and storage, and the
 * tests/benches compare measurements against these formulas.
 *
 * Notation follows the paper: w = array size, n̄/m̄/p̄ = block counts
 * (written nbar/mbar/pbar).
 */

#ifndef SAP_ANALYSIS_FORMULAS_HH
#define SAP_ANALYSIS_FORMULAS_HH

#include "base/types.hh"

namespace sap {
namespace formulas {

//---------------------------------------------------------------------
// §2: matrix-vector multiplication on the linear array
//---------------------------------------------------------------------

/**
 * Steps to solve the transformed mat-vec problem with no
 * overlapping: T = 2·w·n̄·m̄ + 2w − 3.
 */
Cycle tMatVec(Index w, Index nbar, Index mbar);

/**
 * Steps with two interleaved sub-problems (overlapping):
 * T = w·n̄·m̄ + 2w − 2.
 */
Cycle tMatVecOverlap(Index w, Index nbar, Index mbar);

/**
 * PE utilization without overlapping:
 * e = 1 / (2 + 2/(n̄m̄) − 3/(w·n̄m̄)), asymptote 1/2.
 *
 * (The printed formula in the scanned paper is corrupted; this is
 * the algebraic reconstruction e = N/(A·T) with N = n̄m̄w², A = w.)
 */
double eMatVec(Index w, Index nbar, Index mbar);

/** PE utilization with overlapping: asymptote 1. */
double eMatVecOverlap(Index w, Index nbar, Index mbar);

/** Feedback delay of the linear array (= array size w). */
Cycle linearFeedbackDelay(Index w);

/** Registers needed by the linear feedback path (= w). */
Index linearFeedbackRegisters(Index w);

//---------------------------------------------------------------------
// §3: matrix-matrix multiplication on the hexagonal array
//---------------------------------------------------------------------

/** Steps for the transformed mat-mul: T = 3·w·p̄·n̄·m̄ + 4w − 5. */
Cycle tMatMul(Index w, Index pbar, Index nbar, Index mbar);

/**
 * PE utilization:
 * e = 1 / (3 + 4/(p̄n̄m̄) − 5/(w·p̄n̄m̄)), asymptote 1/3.
 */
double eMatMul(Index w, Index pbar, Index nbar, Index mbar);

/** Regular feedback delay on the hex array (paper: w). */
Cycle hexRegularDelay(Index w);

/**
 * Irregular delay of the last partial result when computing the
 * U_{0,j} blocks: 6(w−1)(n̄−1)p̄ + w.
 */
Cycle hexDelayU0j(Index w, Index nbar, Index pbar);

/**
 * Irregular delay of the last partial result when computing
 * L_{p̄−1,0}: 6(n̄p̄)(m̄−1)(w−1) + w.
 */
Cycle hexDelayLlast(Index w, Index nbar, Index pbar, Index mbar);

/** Memory elements for the constant-delay main diagonal loop: 2w. */
Index hexMemMainDiag(Index w);

/** Memory elements per constant-delay sub-diagonal pair: w. */
Index hexMemSubDiag(Index w);

/** Memory elements for the irregular feedbacks: w(w−1)·3/2. */
Index hexMemIrregular(Index w);

//---------------------------------------------------------------------
// §4 and contrast topologies (derived, not printed in the paper):
// composition of the §2 step counts with the new arrays' schedules.
//---------------------------------------------------------------------

/**
 * Steps for the blocked triangular solve (tri engine): each of the
 * n̄ diagonal blocks costs 2w − 1 steps on the back-substitution
 * array and panel r costs tMatVec(w, 1, r) on the linear array:
 * T = n̄(2w−1) + Σ_{r=1}^{n̄−1}(2wr + 2w − 3).
 */
Cycle tTriSolve(Index w, Index nbar);

/**
 * Steps for the output-stationary mesh (mesh engine): one streaming
 * pass of p̄w + 2(w−1) steps per w×w output block, accumulator
 * preload/drain not cycle-modeled: T = n̄m̄(p̄w + 2(w−1)).
 */
Cycle tMesh(Index w, Index pbar, Index nbar, Index mbar);

/**
 * Steps for the no-feedback baseline (no-feedback engine): each of
 * the n̄·m̄ blocks is an independent one-block mat-vec that pays the
 * full fill and drain, tMatVec(w, 1, 1) = 4w − 3 steps, and no two
 * overlap: T = n̄m̄(4w − 3).
 */
Cycle tNoFeedback(Index w, Index nbar, Index mbar);

/**
 * Mesh PE utilization over valid samples:
 * e = p̄w / (p̄w + 2(w−1)), asymptote 1 as the reduction grows.
 */
double eMesh(Index w, Index pbar);

//---------------------------------------------------------------------
// Shared helpers
//---------------------------------------------------------------------

/**
 * Generic PE utilization e = N / (A·T).
 *
 * @param ops Useful operations performed (N).
 * @param pes Processing elements in the array (A).
 * @param steps Execution steps (T).
 */
double utilization(Index ops, Index pes, Cycle steps);

} // namespace formulas
} // namespace sap

#endif // SAP_ANALYSIS_FORMULAS_HH
