/**
 * @file
 * Input scheduling and execution driver for band matrix-vector
 * multiplication on the linear contraflow array, including the
 * paper's feedback loop.
 *
 * Schedule (derived in DESIGN.md §4.2, 0-based cycles):
 *
 *   x_j       enters PE 0    at cycle 2j
 *   b̄_i/fb_i  enters PE w-1  at cycle 2i + w - 1
 *   a(i, i+d) fires in PE (w-1-d) at cycle 2i + w - 1 + d
 *   ȳ_i       is computed by PE 0 during cycle 2i + 2w - 2
 *
 * With these schedules the transformed problem of the paper needs
 * exactly T = 2w·n̄m̄ + 2w − 3 cycles and the feedback path is a
 * depth-w register chain — both asserted by tests.
 */

#ifndef SAP_SIM_LINEAR_DRIVER_HH
#define SAP_SIM_LINEAR_DRIVER_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "analysis/metrics.hh"
#include "base/types.hh"
#include "mat/band.hh"
#include "mat/vector.hh"
#include "sim/trace.hh"

namespace sap {

/**
 * Call fire(p, i) for every coefficient a(i, i + w−1−p) of the
 * lane-local band rows 0 <= i < rows that fires in PE p at lane
 * cycle t. a(i, i+d) fires in PE w−1−d at t = 2i + w − 1 + d, so
 * only the PEs of t's parity can fire; they are visited in ascending
 * p, which is ascending i.
 */
template <typename F>
inline void
forEachLinearFiring(Index w, Index rows, Cycle t, F &&fire)
{
    // i = (t − 2w + 2 + p)/2 must lie in [0, rows).
    Index p = std::max<Index>(0, 2 * w - 2 - t);
    const Index last = std::min<Index>(w - 1, 2 * rows + 2 * w - 4 - t);
    p += (p ^ t) & 1; // p ≡ t (mod 2)
    for (; p <= last; p += 2)
        fire(p, (t - 2 * w + 2 + p) / 2);
}

/**
 * A band mat-vec problem instance in array-ready form.
 *
 * This is deliberately independent of the DBT layer: a plain band
 * matrix problem is the special case where every b is external and
 * every y is final. The DBT plan fills in the feedback schedule.
 */
struct BandMatVecSpec
{
    /** Upper-band matrix (sub() == 0, super() == w-1). */
    const Band<Scalar> *abar = nullptr;
    /** Transformed input vector x̄ (length abar->cols()). */
    Vec<Scalar> xbar;
    /** Per scalar row: true = inject externalB[i], false = feedback. */
    std::vector<std::uint8_t> bIsExternal;
    /** External injection values (only read where bIsExternal). */
    Vec<Scalar> externalB;
    /** Per scalar row: true = ȳ_i is a final result. */
    std::vector<std::uint8_t> yIsFinal;

    /** Array size = bandwidth of abar. */
    Index w() const { return abar->super() + 1; }
    /** Scalar rows. */
    Index rows() const { return abar->rows(); }

    /** Basic shape consistency checks (asserts on failure). */
    void validate() const;
};

/** Result of one driven execution. */
struct LinearRunResult
{
    /** Complete transformed output ȳ (finals and partials). */
    Vec<Scalar> ybar;
    /** Measured statistics. */
    RunStats stats;
    /**
     * Observed feedback delay in cycles (output availability to
     * reuse); the paper's claim is that this equals w.
     */
    Cycle observedFeedbackDelay = -1;
    /** Registers in the feedback chain (delay line depth). */
    Index feedbackRegisters = 0;
    /** Optional port-level event log. */
    Trace trace;
};

/**
 * Execute one band mat-vec problem on the linear array.
 *
 * @param spec Problem in array-ready form.
 * @param record_trace Record port events (Fig. 3 reproduction).
 */
LinearRunResult runBandMatVec(const BandMatVecSpec &spec,
                              bool record_trace = false);

/**
 * As runBandMatVec, additionally checking on every cycle that no PE
 * pair (2g, 2g+1) had both cells busy — the PE-grouping model's
 * realizability proof.
 *
 * @param[out] conflictFree True if no cycle had a busy pair.
 */
LinearRunResult runBandMatVecCheckingPairs(const BandMatVecSpec &spec,
                                           bool &conflictFree);

/**
 * Execute two independent problems on one array, interleaved on
 * alternate cycles (the paper's "overlapping" utilization booster).
 *
 * @pre Both specs share the same bandwidth w.
 * @return Per-problem results plus combined stats.
 */
struct InterleavedRunResult
{
    LinearRunResult first;
    LinearRunResult second;
    RunStats combined;
};

InterleavedRunResult runInterleaved(const BandMatVecSpec &first,
                                    const BandMatVecSpec &second);

/**
 * Execute one problem as two halves interleaved on alternate cycles:
 * band rows [0, cut) run as the first lane and rows [cut, rows()) as
 * the second, both read in place from @p spec (the dotted line of
 * the paper's Fig. 2.b).
 *
 * @pre rows cut .. cut+w−1 take external b (no feedback chain
 *      crosses the cut), and 0 < cut < rows().
 * @return The whole ȳ (both halves, in band order) with the combined
 *         stats; the observed feedback delay is the first lane's.
 *         For the balanced DBT cut the cycle count realizes
 *         T = w·n̄m̄ + 2w − 2.
 */
LinearRunResult runSplitBandMatVec(const BandMatVecSpec &spec,
                                   Index cut);

} // namespace sap

#endif // SAP_SIM_LINEAR_DRIVER_HH
