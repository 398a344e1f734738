/**
 * @file
 * Semantics replay of the linear contraflow array: the band mat-vec
 * accumulation performed as plain host arithmetic, in exactly the
 * order the array performs it.
 *
 * The paper's DBT scheme fixes the operation order independently of
 * problem size: row i of the band starts from b̄_i (external or the
 * fed-back ȳ_{i−w}) and accumulates a(i, i+d)·x̄_{i+d} for
 * d = 0 … w−1 as it traverses the array from PE w−1 down to PE 0.
 * Replaying that order with the same `acc + a·x` expression the PE
 * evaluates (sim/linear_array.cc) makes the result bit-identical to
 * the cycle simulation — which is what lets the fast execution mode
 * (engine/engine.hh, ExecMode::Fast) serve numerics without paying
 * for simulation, and what validate mode diffs against.
 *
 * Lane blocking. Feedback reads ȳ_{i−w}, so rows i … i+w−1 never
 * depend on each other: the kernel steps up to 8 rows of such a
 * block together, one diagonal d at a time, each row in its own
 * register accumulator (a lane), so the rows' add chains overlap
 * instead of waiting on each other. Every row still sees its own
 * accumulations in ascending d with the same expression, so the
 * blocking changes which rows share a loop iteration, never the
 * value any row computes (no reassociation; the library builds with
 * -ffp-contract=off so `acc + a·x` is never fused into an FMA).
 */

#ifndef SAP_SEMANTICS_BAND_KERNEL_HH
#define SAP_SEMANTICS_BAND_KERNEL_HH

#include <cstdint>

#include "base/types.hh"

namespace sap {

/**
 * Replay the band mat-vec accumulation of @p rows rows on a w-wide
 * array, in place in @p ybar.
 *
 * @param a Ā in Band's row-major storage (Band::raw() of an upper
 *        band): a[i·w + d] = ā(i, i+d), rows·w entries.
 * @param xbar x̄, rows + w − 1 entries.
 * @param bIsExternal Per row: nonzero = ybar[i] already holds the
 *        external b̄_i; zero = the row starts from the fed-back
 *        ȳ_{i−w} (@pre i ≥ w for such rows).
 * @param ybar In: b̄_i on external rows. Out: ȳ, rows entries.
 */
void bandMatVecKernel(Index rows, Index w, const Scalar *a,
                      const Scalar *xbar,
                      const std::uint8_t *bIsExternal, Scalar *ybar);

} // namespace sap

#endif // SAP_SEMANTICS_BAND_KERNEL_HH
