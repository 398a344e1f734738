#include "baseline/block_no_feedback.hh"

#include "base/logging.hh"
#include "base/math_util.hh"

namespace sap {

BlockNoFeedbackPlan::BlockNoFeedbackPlan(const Dense<Scalar> &a,
                                         Index w)
    : w_(w), rows_(a.rows()), cols_(a.cols())
{
    SAP_ASSERT(w >= 1, "block size must be >= 1");
    SAP_ASSERT(rows_ >= 1 && cols_ >= 1,
               "cannot partition an empty matrix");
    nbar_ = ceilDiv(rows_, w);
    mbar_ = ceilDiv(cols_, w);
    // Each block plan reads its w×w block (zero-padded at the edges)
    // straight from A.
    blocks_.reserve(static_cast<std::size_t>(nbar_ * mbar_));
    for (Index i = 0; i < nbar_; ++i)
        for (Index j = 0; j < mbar_; ++j)
            blocks_.emplace_back(
                DenseWindow<Scalar>(a, i * w, j * w, w, w), w);
}

bool
BlockNoFeedbackPlan::holdsBytesOf(const Dense<Scalar> &a) const
{
    if (a.rows() != rows_ || a.cols() != cols_)
        return false;
    for (Index i = 0; i < nbar_; ++i)
        for (Index j = 0; j < mbar_; ++j)
            if (!blocks_[static_cast<std::size_t>(i * mbar_ + j)]
                     .transform()
                     .holdsBytesOf(DenseWindow<Scalar>(
                         a, i * w_, j * w_, w_, w_)))
                return false;
    return true;
}

BlockNoFeedbackResult
BlockNoFeedbackPlan::run(const Vec<Scalar> &x,
                         const Vec<Scalar> &b) const
{
    SAP_ASSERT(x.size() == cols_ && b.size() == rows_,
               "shape mismatch");
    Vec<Scalar> xp = x.paddedTo(mbar_ * w_);

    Vec<Scalar> y_acc(nbar_ * w_);
    BlockNoFeedbackResult res;
    res.stats.peCount = w_;

    for (Index i = 0; i < nbar_; ++i) {
        for (Index j = 0; j < mbar_; ++j) {
            // Run block (i, j) as an isolated PRT problem with a
            // zero additive vector; accumulate on the host.
            const MatVecPlan &plan =
                blocks_[static_cast<std::size_t>(i * mbar_ + j)];
            Vec<Scalar> xb = xp.slice(j * w_, w_);
            MatVecPlanResult r = plan.run(xb, Vec<Scalar>(w_));
            for (Index t = 0; t < w_; ++t) {
                y_acc[i * w_ + t] += r.y[t];
                ++res.hostAdds;
            }
            res.perBlockCycles = r.stats.cycles;
            // Blocks run back to back: full fill + drain each time.
            res.stats.cycles += r.stats.cycles;
            res.stats.usefulMacs += r.stats.usefulMacs;
        }
    }

    // Fold in b on the host as well (no injection path).
    res.y = Vec<Scalar>(rows_);
    for (Index i = 0; i < rows_; ++i) {
        res.y[i] = y_acc[i] + b[i];
        ++res.hostAdds;
    }
    return res;
}

BlockNoFeedbackResult
runBlockNoFeedback(const Dense<Scalar> &a, const Vec<Scalar> &x,
                   const Vec<Scalar> &b, Index w)
{
    return BlockNoFeedbackPlan(a, w).run(x, b);
}

} // namespace sap
