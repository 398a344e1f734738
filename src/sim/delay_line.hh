/**
 * @file
 * Fixed-latency register chain (shift register).
 *
 * Models the feedback path of the linear array: the paper implements
 * the y-feedback with `w` registers, giving a delay equal to the
 * array size.
 */

#ifndef SAP_SIM_DELAY_LINE_HH
#define SAP_SIM_DELAY_LINE_HH

#include <vector>

#include "base/logging.hh"
#include "sim/sample.hh"

namespace sap {

/**
 * A chain of @p depth registers: a sample pushed at cycle t emerges
 * from shift() at cycle t + depth (with one shift per cycle).
 *
 * Stored as a ring: shifting moves the head instead of every
 * register, so a cycle costs O(1) whatever the depth. The register
 * at the head holds the oldest sample, the one that leaves next.
 */
class DelayLine
{
  public:
    /** @param depth Number of registers (>= 1). */
    explicit DelayLine(Index depth)
        : regs_(static_cast<std::size_t>(depth))
    {
        SAP_ASSERT(depth >= 1, "delay line needs at least one register");
    }

    /** Number of registers in the chain. */
    Index depth() const { return static_cast<Index>(regs_.size()); }

    /**
     * Advance one cycle: shift in @p in, shift out and return the
     * oldest sample.
     */
    Sample
    shift(Sample in)
    {
        Sample out = regs_[head_];
        regs_[head_] = in;
        valid_ += (in.valid ? 1 : 0) - (out.valid ? 1 : 0);
        if (++head_ == regs_.size())
            head_ = 0;
        return out;
    }

    /** Count of currently valid samples held (storage occupancy). */
    Index occupancy() const { return valid_; }

  private:
    std::vector<Sample> regs_;
    std::size_t head_ = 0; ///< oldest register, next to shift out
    Index valid_ = 0;      ///< valid samples among regs_
};

} // namespace sap

#endif // SAP_SIM_DELAY_LINE_HH
