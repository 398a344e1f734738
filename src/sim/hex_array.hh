/**
 * @file
 * Cycle-accurate model of the Kung/Leiserson hexagonal systolic
 * array for band matrix-matrix multiplication (the paper's
 * reference /5/), sized w×w as in §3 of the paper.
 *
 * Geometry: PEs are indexed (r, q) with r = the Ā-diagonal a datum
 * travels on (r = k−i) and q = the B̄-diagonal (q = k−j). Streams:
 *
 *   a  moves in −q direction (enters edge q = w−1)
 *   b  moves in −r direction (enters edge r = w−1)
 *   c  moves in +(r,q) diagonal direction (enters edges r=0 / q=0,
 *      exits edges r=w−1 / q=w−1); c rides on C̄-diagonal δ = r−q
 *
 * Every PE computes c' = c + a·b when all three operands are valid;
 * otherwise samples pass through unchanged. All three streams
 * advance one hop per cycle; drivers space items three cycles apart
 * on each stream, which is what caps hexagonal utilization at 1/3.
 *
 * Schedule alignment invariant: at PE (r, q) on cycle τ the three
 * streams can only hold samples belonging to the unique index
 * triple (i, j, k) with k−i = r, k−j = q, i+j+k = τ−(w−1), so a
 * valid MAC always combines true partners (asserted in tests).
 */

#ifndef SAP_SIM_HEX_ARRAY_HH
#define SAP_SIM_HEX_ARRAY_HH

#include <vector>

#include "base/types.hh"
#include "sim/sample.hh"

namespace sap {

/** The hexagonally-connected w×w array. */
class HexArray
{
  public:
    /** @param w Array size (w×w PEs, bandwidth w operands). */
    explicit HexArray(Index w);

    /** Array size. */
    Index size() const { return w_; }
    /** Total PE count A = w². */
    Index peCount() const { return w_ * w_; }

    /** Present the a sample entering row r (edge PE (r, w−1)). */
    void setAIn(Index r, Sample s);
    /** Present the b sample entering column q (edge PE (w−1, q)). */
    void setBIn(Index q, Sample s);
    /**
     * Present the c sample entering C̄-diagonal δ in [−(w−1), w−1]
     * (edge PE (δ, 0) for δ >= 0, (0, −δ) for δ < 0).
     */
    void setCIn(Index delta, Sample s);

    /** Advance one clock cycle (compute, then shift all streams). */
    void step();

    /**
     * The c sample that finished its traversal of diagonal δ during
     * the last step() (registered at exit PE (w−1, w−1−δ) for
     * δ >= 0, (w−1+δ, w−1) for δ < 0).
     */
    Sample cOut(Index delta) const;

    /** Cycles executed. */
    Cycle now() const { return now_; }
    /** Total valid multiply-accumulates performed. */
    Index usefulMacs() const { return useful_macs_; }
    /** Cycle of the first valid MAC (−1 if none yet). */
    Cycle firstMacCycle() const { return first_mac_; }

  private:
    Index w_;
    Cycle now_ = 0;
    Index useful_macs_ = 0;
    Cycle first_mac_ = -1;

    // Stream registers, each with its edge ports folded in as one
    // extra border row or column, so step() reads every PE's inputs
    // the same way and has no edge cases in its inner loop:
    //   a: w × (w+1);     PE (r,q) at [r][q],     row port r at [r][w]
    //   b: (w+1) × w;     PE (r,q) at [r][q],     column port q at [w][q]
    //   c: (w+1) × (w+1); PE (r,q) at [r+1][q+1], diagonal δ's port at
    //                     [δ][0] (δ >= 0) or [0][−δ] (δ < 0)
    // PE (r,q) reads a[r][q+1], b[r+1][q] and c[r][q]. The *_next_
    // buffers are step() scratch (no per-cycle allocation); their
    // border cells stay bubbles.
    std::vector<Sample> a_;
    std::vector<Sample> b_;
    std::vector<Sample> c_;
    std::vector<Sample> a_next_;
    std::vector<Sample> b_next_;
    std::vector<Sample> c_next_;
};

} // namespace sap

#endif // SAP_SIM_HEX_ARRAY_HH
