/**
 * @file
 * Cycle-accurate model of the Kung/Leiserson linear contraflow
 * systolic array for band matrix-vector multiplication (the paper's
 * reference /5/: Mead & Conway §8.3).
 *
 * Geometry: w inner-product-step PEs in a row.
 *
 *   x  ->  PE0  PE1  ...  PE(w-1)  (x moves left-to-right)
 *   y  <-  PE0  PE1  ...  PE(w-1)  (y moves right-to-left)
 *            ^    ^          ^
 *            a-coefficients dropped into each PE from above
 *
 * Per cycle each PE computes y' = y_in + a * x_in when all three
 * operands are valid; otherwise y passes through unchanged. Both
 * streams advance one PE per cycle; the drivers space consecutive
 * data items two cycles apart (the contraflow constraint that caps
 * plain utilization at 1/2).
 */

#ifndef SAP_SIM_LINEAR_ARRAY_HH
#define SAP_SIM_LINEAR_ARRAY_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "sim/sample.hh"

namespace sap {

/** The linear contraflow array. */
class LinearArray
{
  public:
    /** @param w Number of PEs (the array size). */
    explicit LinearArray(Index w);

    /** Array size (number of PEs). */
    Index size() const { return w_; }

    /** Present the x sample entering PE 0 this cycle. */
    void setXIn(Sample s) { x_in_ = s; }

    /** Present the y sample entering PE w-1 this cycle. */
    void setYIn(Sample s) { y_in_ = s; }

    /** Present the coefficient entering PE @p p this cycle. */
    void setAIn(Index p, Sample s);

    /**
     * Advance one clock cycle: all PEs compute with their current
     * inputs, then every stream register shifts.
     */
    void step();

    /**
     * The y sample that left PE 0 at the end of the *previous*
     * step() (i.e. the registered array output visible this cycle).
     */
    Sample yOut() const { return y_out_; }

    /** The x sample that left PE w-1 (registered). */
    Sample xOut() const { return x_out_; }

    /** Cycles executed so far. */
    Cycle now() const { return now_; }

    /** Total PE-cycles that performed a valid multiply-accumulate. */
    Index usefulMacs() const { return useful_macs_; }

    /** Per-PE count of valid multiply-accumulates. */
    const std::vector<Index> &peMacCounts() const { return pe_macs_; }

    /**
     * Which PEs performed a valid MAC during the last step() (1 =
     * busy). Used by the PE-grouping model to verify that paired
     * cells are never busy in the same cycle.
     */
    const std::vector<std::uint8_t> &
    lastActivity() const
    {
        return last_active_;
    }

  private:
    Index w_;
    Cycle now_ = 0;
    Index useful_macs_ = 0;

    // Stream registers: value *stored at the output* of each PE.
    std::vector<Sample> x_regs_; ///< x after PE p (moves right)
    std::vector<Sample> y_regs_; ///< y after PE p (moves left)
    std::vector<Sample> a_in_;   ///< coefficient inputs this cycle
    std::vector<Index> pe_macs_;
    std::vector<std::uint8_t> last_active_;

    Sample x_in_;
    Sample y_in_;
    Sample x_out_;
    Sample y_out_;
};

} // namespace sap

#endif // SAP_SIM_LINEAR_ARRAY_HH
