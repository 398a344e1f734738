/**
 * @file
 * Spiral feedback topology and storage accounting for the hexagonal
 * array (§3 / Fig. 5 of the paper, "spiral systolic arrays" after
 * S.Y. Kung).
 *
 * Topology: the C̄-band has 2w−1 diagonals. The main diagonal
 * (δ = 0) feeds back onto itself; super-diagonal δ in [1, w−1] is
 * paired with sub-diagonal δ−w so that every feedback loop passes
 * through exactly w PEs:
 *
 *   PEs(δ) + PEs(δ−w) = (w−δ) + (w−(w−δ)) = w
 *
 * The class also acts as the measurement harness for the paper's
 * feedback claims: every transfer (an output datum re-entering as a
 * later input) is recorded with its exit/re-entry cycles, and the
 * aggregate statistics expose the observed delays (regular = w,
 * main diagonal = 2w, plus the two irregular classes) and the peak
 * number of in-flight values (= required memory elements: paper
 * claims 2w for the main diagonal, w per sub-diagonal pair, and a
 * w(w−1)·3/2 pool for the irregular feedbacks).
 */

#ifndef SAP_SIM_SPIRAL_FEEDBACK_HH
#define SAP_SIM_SPIRAL_FEEDBACK_HH

#include <map>
#include <vector>

#include "base/types.hh"

namespace sap {

/** Records and audits all feedback transfers of one execution. */
class SpiralFeedback
{
  public:
    explicit SpiralFeedback(Index w);

    /** Loop id of diagonal δ: δ for δ >= 0, δ+w for δ < 0. */
    static Index loopOf(Index w, Index delta);

    /** Number of PEs traversed by C̄-diagonal δ: w − |δ|. */
    static Index diagonalPeCount(Index w, Index delta);

    /**
     * PEs in loop @p loop (main diagonal or a paired sub/super
     * diagonal); the paper's claim is that this is always w.
     */
    Index loopPeCount(Index loop) const;

    /** Number of loops: w (main diagonal + w−1 pairs). */
    Index loopCount() const { return w_; }

    /**
     * Size the record vectors for a run whose transfer counts are
     * known in advance, so recording never reallocates.
     *
     * @param main Regular transfers on the main diagonal.
     * @param pair Regular transfers on the sub/super diagonal pairs.
     * @param irregular Irregular (long-delay) transfers.
     */
    void reserve(Index main, Index pair, Index irregular);

    /**
     * Record one transfer.
     *
     * @param delta_out Diagonal on which the datum left the array.
     * @param delta_in Diagonal on which it re-enters.
     * @param exit_cycle Cycle after which it was available outside.
     * @param enter_cycle Cycle during which it re-enters.
     * @param irregular True for the long-delay feedback classes.
     */
    void recordTransfer(Index delta_out, Index delta_in,
                        Cycle exit_cycle, Cycle enter_cycle,
                        bool irregular);

    /** Delay convention: cycles spent outside the array. */
    static Cycle
    delayOf(Cycle exit_cycle, Cycle enter_cycle)
    {
        return enter_cycle - exit_cycle - 1;
    }

    /** True if every transfer stayed inside its spiral loop. */
    bool topologyRespected() const { return topology_ok_; }

    /** All regular-transfer delays observed on the main diagonal. */
    const std::vector<Cycle> &mainDiagDelays() const
    {
        return main_diag_delays_;
    }
    /** Regular delays on the sub/super diagonal pairs. */
    const std::vector<Cycle> &pairDelays() const { return pair_delays_; }
    /** Delays of the irregular transfers. */
    const std::vector<Cycle> &irregularDelays() const
    {
        return irregular_delays_;
    }

    /**
     * Peak number of simultaneously in-flight regular values in
     * loop @p loop (the required register count of that loop).
     */
    Index peakRegularOccupancy(Index loop) const;

    /** Peak in-flight irregular values across all loops (the
     *  paper's shared irregular pool). */
    Index peakIrregularOccupancy() const;

    /** Total transfers recorded. */
    Index transferCount() const { return transfer_count_; }

  private:
    struct Interval
    {
        Cycle from; ///< first cycle the value is held outside
        Cycle to;   ///< last cycle it is held
        Index loop;
    };

    static Index peakOf(const std::vector<Interval> &intervals,
                        Index loop_filter);

    Index w_;
    bool topology_ok_ = true;
    Index transfer_count_ = 0;
    std::vector<Cycle> main_diag_delays_;
    std::vector<Cycle> pair_delays_;
    std::vector<Cycle> irregular_delays_;
    std::vector<Interval> regular_intervals_;
    std::vector<Interval> irregular_intervals_;
};

} // namespace sap

#endif // SAP_SIM_SPIRAL_FEEDBACK_HH
