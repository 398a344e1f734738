#include "sim/tri_array.hh"

#include "base/logging.hh"

namespace sap {

TriArray::TriArray(Index w)
    : w_(w), s_regs_(static_cast<std::size_t>(w)),
      a_in_(static_cast<std::size_t>(w)),
      y_(static_cast<std::size_t>(w)),
      y_cycle_(static_cast<std::size_t>(w), -1)
{
    SAP_ASSERT(w >= 1, "array needs at least one cell");
}

void
TriArray::setAIn(Index k, Sample s)
{
    SAP_ASSERT(k >= 0 && k < w_, "cell ", k, " out of range");
    a_in_[static_cast<std::size_t>(k)] = s;
}

Sample
TriArray::y(Index k) const
{
    SAP_ASSERT(k >= 0 && k < w_, "cell ", k, " out of range");
    return y_[static_cast<std::size_t>(k)];
}

Cycle
TriArray::yCapturedAt(Index k) const
{
    SAP_ASSERT(k >= 0 && k < w_, "cell ", k, " out of range");
    return y_cycle_[static_cast<std::size_t>(k)];
}

void
TriArray::step()
{
    // Combinational input wire of cell k: external s_in for k == 0,
    // else s_regs_[k-1]. Iterating right-to-left updates the
    // registers in place: cell k reads s_regs_[k-1] before the
    // k-1 iteration (which runs later) overwrites it. Cell 0, whose
    // wire is the external port, is peeled off the loop.
    auto cell = [&](Index k, Sample s) {
        Sample a = a_in_[k];
        Sample out;
        if (a.valid && s.valid) {
            if (!y_[k].valid) {
                // First visit: the diagonal element. Capture the
                // solution; the row is done and a bubble continues.
                SAP_ASSERT(a.value != 0, "zero diagonal at cell ", k);
                y_[k] = Sample::of(s.value / a.value);
                y_cycle_[k] = now_;
                out = Sample::bubble();
            } else {
                out = Sample::of(s.value - a.value * y_[k].value);
            }
            ++useful_ops_;
        } else {
            // No coefficient: the partial sum passes through
            // unchanged; a lone coefficient is dropped.
            out = s;
        }
        s_regs_[k] = out;
    };
    for (Index k = w_ - 1; k >= 1; --k)
        cell(k, s_regs_[k - 1]);
    cell(0, s_in_);

    // Inputs are consumed; clear for the next cycle.
    s_in_ = Sample::bubble();
    for (Index k = 0; k < w_; ++k)
        a_in_[k] = Sample::bubble();

    ++now_;
}

void
TriArray::clearSolutions()
{
    for (Index k = 0; k < w_; ++k) {
        y_[k] = Sample::bubble();
        y_cycle_[k] = -1;
        s_regs_[k] = Sample::bubble();
    }
    s_in_ = Sample::bubble();
}

} // namespace sap
