/**
 * @file
 * Semantics (fast-mode) execution of the linear-family mat-vec
 * plans: plain, overlapped, and grouped. Results are bit-identical
 * to the cycle simulators (the band kernel replays the array's
 * accumulation order); the statistics are the closed-form step
 * counts of analysis/formulas.hh, which the simulators are asserted
 * against elsewhere in the test suite.
 */

#include <algorithm>

#include "analysis/formulas.hh"
#include "base/logging.hh"
#include "base/math_util.hh"
#include "dbt/matvec_plan.hh"
#include "semantics/band_kernel.hh"

namespace sap {

Vec<Scalar>
MatVecPlan::replayBand(const Vec<Scalar> &x, const Vec<Scalar> &b) const
{
    const MatVecDims &d = dims();
    const Vec<Scalar> xbar = transform_.transformX(x);
    Vec<Scalar> ybar = transform_.transformB(b);
    const Band<Scalar> &abar = transform_.abar();
    SAP_ASSERT(abar.rows() == d.barRows() && abar.sub() == 0 &&
                   abar.bandwidth() == d.w &&
                   xbar.size() == d.barRows() + d.w - 1,
               "band replay shape mismatch");
    bandMatVecKernel(d.barRows(), d.w, abar.raw(), xbar.raw(),
                     b_external_.data(), ybar.raw());
    return ybar;
}

MatVecPlanResult
MatVecPlan::runSemantics(const Vec<Scalar> &x,
                         const Vec<Scalar> &b) const
{
    const MatVecDims &d = dims();
    MatVecPlanResult out;
    out.y = transform_.extractY(replayBand(x, b));
    out.stats.cycles = formulas::tMatVec(d.w, d.nbar, d.mbar);
    out.stats.peCount = d.w;
    // Every in-band element fires exactly one MAC.
    out.stats.usefulMacs = d.barRows() * d.w;
    out.observedFeedbackDelay =
        d.mbar >= 2 ? formulas::linearFeedbackDelay(d.w) : -1;
    out.feedbackRegisters = formulas::linearFeedbackRegisters(d.w);
    return out;
}

MatVecPlanResult
MatVecPlan::runOverlappedSemantics(const Vec<Scalar> &x,
                                   const Vec<Scalar> &b) const
{
    const MatVecDims &d = dims();
    // The split cuts at an original block row, so no feedback chain
    // crosses it and each half's rows compute exactly what they
    // compute in the unsplit band: one replay of the whole band
    // gives both halves' ȳ.
    const Index w = d.w;
    const Index rows1 = overlapCut();
    const Index rows2 = d.barRows() - rows1;
    // Lane completion cycles (lane 2 is offset by one); the halves
    // of an odd split are unbalanced, so this is the exact measured
    // max, not tMatVecOverlap (which assumes the balanced total).
    const Cycle last1 = 2 * (rows1 - 1) + 2 * w - 2;
    const Cycle last2 = 2 * (rows2 - 1) + 2 * w - 2 + 1;

    MatVecPlanResult out;
    out.y = transform_.extractY(replayBand(x, b));
    out.stats.cycles = std::max(last1, last2) + 1;
    out.stats.peCount = w;
    out.stats.usefulMacs = d.barRows() * w;
    out.observedFeedbackDelay =
        d.mbar >= 2 ? formulas::linearFeedbackDelay(w) : -1;
    out.feedbackRegisters = formulas::linearFeedbackRegisters(w);
    return out;
}

GroupedRunResult
MatVecPlan::runGroupedSemantics(const Vec<Scalar> &x,
                                const Vec<Scalar> &b) const
{
    const MatVecDims &d = dims();
    GroupedRunResult res;
    res.logical.ybar = replayBand(x, b);
    res.logical.stats.cycles = formulas::tMatVec(d.w, d.nbar, d.mbar);
    res.logical.stats.peCount = d.w;
    res.logical.stats.usefulMacs = d.barRows() * d.w;
    res.logical.observedFeedbackDelay =
        d.mbar >= 2 ? formulas::linearFeedbackDelay(d.w) : -1;
    res.logical.feedbackRegisters =
        formulas::linearFeedbackRegisters(d.w);
    res.grouped = res.logical.stats;
    res.grouped.peCount = ceilDiv(d.w, 2);
    // Adjacent contraflow cells are busy on opposite parities, so
    // 2:1 grouping is conflict-free by construction; the simulator
    // proves this cycle-by-cycle, validate mode cross-checks it.
    res.conflictFree = true;
    return res;
}

} // namespace sap
