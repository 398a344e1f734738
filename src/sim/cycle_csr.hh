/**
 * @file
 * Per-cycle event lists in compressed sparse row (CSR) form: one
 * offsets array plus one flat event array. A schedule of any length
 * costs two allocations, and the flat array is already in cycle
 * order for consumers that only need that order.
 */

#ifndef SAP_SIM_CYCLE_CSR_HH
#define SAP_SIM_CYCLE_CSR_HH

#include <cstdint>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"

namespace sap {

/** Events grouped by cycle; see build() for how they are filled. */
template <typename E>
struct CycleCsr
{
    /** The events of cycle t are events[offsets[t] .. offsets[t+1]). */
    std::vector<std::uint32_t> offsets;
    /** All events, ordered by cycle. */
    std::vector<E> events;

    /** First event of cycle @p t. */
    const E *
    begin(Cycle t) const
    {
        return events.data() + offsets[static_cast<std::size_t>(t)];
    }

    /** One past the last event of cycle @p t. */
    const E *
    end(Cycle t) const
    {
        return events.data() + offsets[static_cast<std::size_t>(t) + 1];
    }

    /**
     * Build over cycles [0, horizon] by count, prefix-sum, fill.
     * @p gen(emit) must call emit(t, event) once per event, the same
     * way on both of its two calls; the events of one cycle keep the
     * order in which @p gen emits them.
     */
    template <typename Gen>
    static CycleCsr
    build(Cycle horizon, const Gen &gen)
    {
        CycleCsr s;
        s.offsets.assign(static_cast<std::size_t>(horizon + 2), 0);
        gen([&](Cycle t, const E &) {
            SAP_ASSERT(t >= 0 && t <= horizon, "event at cycle ", t,
                       " outside [0, ", horizon, "]");
            ++s.offsets[static_cast<std::size_t>(t) + 1];
        });
        for (std::size_t t = 1; t < s.offsets.size(); ++t)
            s.offsets[t] += s.offsets[t - 1];
        s.events.resize(s.offsets.back());
        std::vector<std::uint32_t> cursor(s.offsets.begin(),
                                          s.offsets.end() - 1);
        gen([&](Cycle t, const E &e) {
            s.events[cursor[static_cast<std::size_t>(t)]++] = e;
        });
        return s;
    }
};

} // namespace sap

#endif // SAP_SIM_CYCLE_CSR_HH
