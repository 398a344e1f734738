#include "sim/linear_array.hh"

#include <algorithm>

#include "base/logging.hh"

namespace sap {

LinearArray::LinearArray(Index w)
    : w_(w), x_regs_(static_cast<std::size_t>(w)),
      y_regs_(static_cast<std::size_t>(w)),
      a_in_(static_cast<std::size_t>(w)),
      pe_macs_(static_cast<std::size_t>(w), 0),
      last_active_(static_cast<std::size_t>(w), 0)
{
    SAP_ASSERT(w >= 1, "array needs at least one PE");
}

void
LinearArray::setAIn(Index p, Sample s)
{
    SAP_ASSERT(p >= 0 && p < w_, "PE ", p, " out of range");
    a_in_[static_cast<std::size_t>(p)] = s;
}

void
LinearArray::step()
{
    // Combinational input wires for this cycle.
    //   x wire of PE p: external x_in for p == 0, else x_regs_[p-1].
    //   y wire of PE p: external y_in for p == w-1, else y_regs_[p+1].
    //
    // Both passes update the stream registers in place — this is the
    // simulator's hottest loop and must not allocate per cycle. The
    // ascending y pass may write y_regs_[p] before reading
    // y_regs_[p+1] because iteration p only reads the register that
    // iteration p+1 writes; the x shift runs afterwards so the x
    // wires above still see the pre-shift registers. The two edge
    // PEs, whose wires are the external ports, are peeled off the
    // loop.
    const Index w = w_;
    Sample *x = x_regs_.data();
    Sample *y = y_regs_.data();
    const Sample *a_in = a_in_.data();
    std::uint8_t *active = last_active_.data();
    Index *pe_macs = pe_macs_.data();
    Index macs = 0;

    auto pe = [&](Index p, Sample xw, Sample yw) {
        // y' = y + a·x when all three operands are valid; otherwise
        // the y sample passes through unchanged and a lone
        // coefficient is dropped. A select, so no data-dependent
        // branch; a bubble's value is never selected.
        const Sample a = a_in[p];
        const bool fire = a.valid && xw.valid && yw.valid;
        const Scalar sum = yw.value + a.value * xw.value;
        y[p] = Sample{fire ? sum : yw.value, yw.valid};
        active[p] = fire ? 1 : 0;
        pe_macs[p] += fire ? 1 : 0;
        macs += fire ? 1 : 0;
    };
    if (w == 1) {
        pe(0, x_in_, y_in_);
    } else {
        pe(0, x_in_, y[1]);
        for (Index p = 1; p < w - 1; ++p)
            pe(p, x[p - 1], y[p + 1]);
        pe(w - 1, x[w - 2], y_in_);
    }
    useful_macs_ += macs;
    y_out_ = y[0];

    // Commit the x shift (synchronous update).
    x_out_ = x[w - 1];
    std::copy_backward(x, x + w - 1, x + w);
    x[0] = x_in_;

    // Inputs are consumed; clear for the next cycle.
    x_in_ = Sample::bubble();
    y_in_ = Sample::bubble();
    std::fill(a_in_.begin(), a_in_.end(), Sample::bubble());

    ++now_;
}

} // namespace sap
