#include "dbt/matvec_plan.hh"

#include "base/logging.hh"
#include "base/math_util.hh"

namespace sap {

MatVecPlan::MatVecPlan(const DenseWindow<Scalar> &a, Index w)
    : transform_(a, w)
{
    SAP_ASSERT(transform_.validate(/*check_filled=*/false),
               "DBT structural conditions violated");

    const Index rows = dims().barRows();
    b_external_.assign(static_cast<std::size_t>(rows), 0);
    y_final_.assign(static_cast<std::size_t>(rows), 0);
    for (Index i = 0; i < rows; ++i) {
        b_external_[i] = transform_.scalarIsExternalB(i) ? 1 : 0;
        y_final_[i] = transform_.scalarIsFinalY(i) ? 1 : 0;
    }
}

BandMatVecSpec
MatVecPlan::makeSpec(const Vec<Scalar> &x, const Vec<Scalar> &b) const
{
    BandMatVecSpec spec;
    spec.abar = &transform_.abar();
    spec.xbar = transform_.transformX(x);
    spec.bIsExternal = b_external_;
    spec.yIsFinal = y_final_;
    spec.externalB = transform_.transformB(b);
    return spec;
}

MatVecPlanResult
MatVecPlan::run(const Vec<Scalar> &x, const Vec<Scalar> &b,
                bool record_trace) const
{
    BandMatVecSpec spec = makeSpec(x, b);
    LinearRunResult r = runBandMatVec(spec, record_trace);

    MatVecPlanResult out;
    out.y = transform_.extractY(r.ybar);
    out.stats = r.stats;
    out.observedFeedbackDelay = r.observedFeedbackDelay;
    out.feedbackRegisters = r.feedbackRegisters;
    out.trace = r.trace;
    return out;
}

Index
MatVecPlan::overlapCut() const
{
    const MatVecDims &d = dims();
    SAP_ASSERT(d.nbar >= 2,
               "cannot split a problem with a single block row");
    // Cut after ⌈n̄/2⌉ original block rows = a multiple of m̄ band
    // block rows, so no feedback chain crosses the cut.
    return ceilDiv(d.nbar, 2) * d.mbar * d.w;
}

MatVecPlanResult
MatVecPlan::runOverlapped(const Vec<Scalar> &x, const Vec<Scalar> &b) const
{
    BandMatVecSpec spec = makeSpec(x, b);
    LinearRunResult r = runSplitBandMatVec(spec, overlapCut());

    MatVecPlanResult out;
    out.y = transform_.extractY(r.ybar);
    out.stats = r.stats;
    out.observedFeedbackDelay = r.observedFeedbackDelay;
    out.feedbackRegisters = r.feedbackRegisters;
    return out;
}

GroupedRunResult
MatVecPlan::runGroupedPlan(const Vec<Scalar> &x, const Vec<Scalar> &b) const
{
    BandMatVecSpec spec = makeSpec(x, b);
    return runGrouped(spec);
}

TwoProblemResult
runTwoProblems(const MatVecPlan &pa, const Vec<Scalar> &xa,
               const Vec<Scalar> &ba, const MatVecPlan &pb,
               const Vec<Scalar> &xb, const Vec<Scalar> &bb)
{
    BandMatVecSpec sa = pa.makeSpec(xa, ba);
    BandMatVecSpec sb = pb.makeSpec(xb, bb);
    InterleavedRunResult r = runInterleaved(sa, sb);

    TwoProblemResult out;
    out.first.y = pa.transform().extractY(r.first.ybar);
    out.first.stats = r.first.stats;
    out.first.observedFeedbackDelay = r.first.observedFeedbackDelay;
    out.second.y = pb.transform().extractY(r.second.ybar);
    out.second.stats = r.second.stats;
    out.second.observedFeedbackDelay = r.second.observedFeedbackDelay;
    out.combined = r.combined;
    return out;
}

} // namespace sap
