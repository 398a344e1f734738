#include "sim/hex_array.hh"

#include <utility>

#include "base/logging.hh"

namespace sap {

namespace {

std::size_t
cells(Index rows, Index cols)
{
    return static_cast<std::size_t>(rows * cols);
}

} // namespace

HexArray::HexArray(Index w)
    : w_(w), a_(cells(w, w + 1)), b_(cells(w + 1, w)),
      c_(cells(w + 1, w + 1)), a_next_(a_.size()), b_next_(b_.size()),
      c_next_(c_.size())
{
    SAP_ASSERT(w >= 1, "hex array needs at least one PE");
}

void
HexArray::setAIn(Index r, Sample s)
{
    SAP_ASSERT(r >= 0 && r < w_, "a row ", r, " out of range");
    a_[static_cast<std::size_t>(r * (w_ + 1) + w_)] = s;
}

void
HexArray::setBIn(Index q, Sample s)
{
    SAP_ASSERT(q >= 0 && q < w_, "b column ", q, " out of range");
    b_[static_cast<std::size_t>(w_ * w_ + q)] = s;
}

void
HexArray::setCIn(Index delta, Sample s)
{
    SAP_ASSERT(delta > -w_ && delta < w_, "diagonal ", delta,
               " out of range");
    Index at = delta >= 0 ? delta * (w_ + 1) : -delta;
    c_[static_cast<std::size_t>(at)] = s;
}

Sample
HexArray::cOut(Index delta) const
{
    SAP_ASSERT(delta > -w_ && delta < w_, "diagonal ", delta,
               " out of range");
    Index r = delta >= 0 ? w_ - 1 : w_ - 1 + delta;
    Index q = delta >= 0 ? w_ - 1 - delta : w_ - 1;
    return c_[static_cast<std::size_t>((r + 1) * (w_ + 1) + q + 1)];
}

void
HexArray::step()
{
    const Index w = w_;
    Index macs = 0;
    for (Index r = 0; r < w; ++r) {
        // Input wires of row r: a from the east, b from the south,
        // c from the north-west (ports included via the borders).
        const Sample *a_in = &a_[static_cast<std::size_t>(r * (w + 1) + 1)];
        const Sample *b_in = &b_[static_cast<std::size_t>((r + 1) * w)];
        const Sample *c_in = &c_[static_cast<std::size_t>(r * (w + 1))];
        Sample *a_out = &a_next_[static_cast<std::size_t>(r * (w + 1))];
        Sample *b_out = &b_next_[static_cast<std::size_t>(r * w)];
        Sample *c_out =
            &c_next_[static_cast<std::size_t>((r + 1) * (w + 1) + 1)];
        for (Index q = 0; q < w; ++q) {
            const Sample a = a_in[q];
            const Sample b = b_in[q];
            const Sample c = c_in[q];
            // Inner product step: c' = c + a·b when all three
            // operands are valid, else c passes through unchanged.
            // Computed as a select so the loop has no data-dependent
            // branch; a bubble's value is never selected.
            const bool fire = a.valid && b.valid && c.valid;
            const Scalar sum = c.value + a.value * b.value;
            a_out[q] = a;
            b_out[q] = b;
            c_out[q] = Sample{fire ? sum : c.value, c.valid};
            macs += fire ? 1 : 0;
        }
    }
    useful_macs_ += macs;
    if (macs > 0 && first_mac_ < 0)
        first_mac_ = now_;

    // Consume this cycle's inputs: clear the ports before the
    // buffers swap, so the next cycle's borders start as bubbles.
    for (Index r = 0; r < w; ++r)
        a_[static_cast<std::size_t>(r * (w + 1) + w)] = Sample::bubble();
    for (Index q = 0; q < w; ++q)
        b_[static_cast<std::size_t>(w * w + q)] = Sample::bubble();
    for (Index r = 0; r <= w; ++r)
        c_[static_cast<std::size_t>(r * (w + 1))] = Sample::bubble();
    for (Index q = 1; q <= w; ++q)
        c_[static_cast<std::size_t>(q)] = Sample::bubble();

    std::swap(a_, a_next_);
    std::swap(b_, b_next_);
    std::swap(c_, c_next_);

    ++now_;
}

} // namespace sap
