#include "sim/grouped_array.hh"

#include "base/math_util.hh"

namespace sap {

GroupedRunResult
runGrouped(const BandMatVecSpec &spec)
{
    // Realizability: within each group {2g, 2g+1}, at most one cell
    // may be busy per cycle (adjacent cells work on opposite
    // parities on the contraflow array); the driver checks this on
    // every cycle of the logical run.
    GroupedRunResult res;
    res.logical = runBandMatVecCheckingPairs(spec, res.conflictFree);
    res.grouped = res.logical.stats;
    res.grouped.peCount = ceilDiv(spec.w(), 2);
    return res;
}

} // namespace sap
