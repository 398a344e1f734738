#include "solve/trisolve_plan.hh"

#include <algorithm>
#include <string>

#include "base/error.hh"
#include "base/logging.hh"
#include "base/math_util.hh"
#include "sim/tri_array.hh"

namespace sap {

TriSolvePlan::TriSolvePlan(const Dense<Scalar> &l, Index w)
    : n_(l.rows()), w_(w)
{
    SAP_ASSERT(l.cols() == n_, "L must be square, got ", l.rows(),
               "x", l.cols());
    SAP_ASSERT(n_ >= 1, "empty system");
    SAP_ASSERT(w >= 1, "array size w = ", w, " must be at least 1");
    // A singular system is a caller input problem, not an internal
    // invariant: fail recoverably before the back-substitution
    // array would divide by the zero.
    for (Index i = 0; i < n_; ++i)
        if (l(i, i) == 0)
            throw EngineError("zero diagonal at " +
                              std::to_string(i));

    nbar_ = ceilDiv(n_, w);

    // Diagonal blocks and panels are read straight from L; their
    // rows past n are the zero padding.
    diag_.reserve(static_cast<std::size_t>(nbar_));
    for (Index r = 0; r < nbar_; ++r) {
        DenseWindow<Scalar> win(l, r * w_, r * w_, w_, w_);
        Dense<Scalar> blk(w_, w_);
        for (Index i = 0; i < win.storedRows(); ++i)
            std::copy(win.row(i), win.row(i) + win.storedCols(),
                      blk.raw() + i * w_);
        // Padded diagonal entries are zero; patch them to 1 so the
        // padded sub-systems stay solvable (their solutions are 0).
        for (Index i = win.storedRows(); i < w_; ++i)
            blk(i, i) = 1;
        diag_.push_back(std::move(blk));
    }

    panels_.reserve(static_cast<std::size_t>(nbar_ - 1));
    for (Index r = 1; r < nbar_; ++r)
        panels_.emplace_back(
            DenseWindow<Scalar>(l, r * w_, 0, w_, r * w_), w_);
}

bool
TriSolvePlan::holdsBytesOf(const Dense<Scalar> &l) const
{
    // The plan holds block row r's panel [L_{r,0} … L_{r,r−1}] and
    // its whole diagonal block L_{r,r}, and is compared in exactly
    // those positions. L's entries right of the diagonal blocks are
    // not stored and never enter the solve, so two L's differing only
    // there bind one plan (and give one y). The padded diagonal
    // entries, patched to 1, lie past the stored rows and are not
    // compared.
    if (l.rows() != n_ || l.cols() != n_)
        return false;
    for (Index r = 0; r < nbar_; ++r) {
        const Index stored = std::min(w_, n_ - r * w_);
        if (!sameRowBytes(l.raw() + r * w_ * n_ + r * w_, n_,
                          diag_[static_cast<std::size_t>(r)].raw(), w_,
                          stored, stored))
            return false;
        if (r > 0 &&
            !panels_[static_cast<std::size_t>(r - 1)]
                 .transform()
                 .holdsBytesOf(
                     DenseWindow<Scalar>(l, r * w_, 0, w_, r * w_)))
            return false;
    }
    return true;
}

TriSolvePlanResult
TriSolvePlan::run(const Vec<Scalar> &b, bool record_trace) const
{
    SAP_ASSERT(b.size() == n_, "b length ", b.size(), " != order ",
               n_);
    Vec<Scalar> bp = b.paddedTo(nbar_ * w_);

    TriSolvePlanResult res;
    res.stats.peCount = w_;
    Vec<Scalar> y(nbar_ * w_);

    // One back-substitution array, reused across diagonal blocks; a
    // fresh one would be equivalent, but reusing it keeps the cycle
    // counter a single global timeline for the trace.
    TriArray tri(w_);

    for (Index r = 0; r < nbar_; ++r) {
        // Update: rhs_r = b_r − [L_{r,0} … L_{r,r−1}]·y_{0..r−1},
        // streamed through the linear array as one DBT mat-vec.
        Vec<Scalar> rhs = bp.slice(r * w_, w_);
        if (r > 0) {
            const MatVecPlan &panel =
                panels_[static_cast<std::size_t>(r - 1)];
            MatVecPlanResult pr =
                panel.run(y.slice(0, r * w_), Vec<Scalar>(w_));
            for (Index i = 0; i < w_; ++i)
                rhs[i] -= pr.y[i];
            res.stats.cycles += pr.stats.cycles;
            res.stats.usefulMacs += pr.stats.usefulMacs;
        }

        // Diagonal block on the back-substitution array. Trace
        // cycles are global: panel cycles already accumulated shift
        // the tri-array timeline, so the CSV reads as one serial
        // schedule of the whole installation.
        const Cycle start = res.stats.cycles;
        const Cycle t0 = tri.now();
        const Dense<Scalar> &blk =
            diag_[static_cast<std::size_t>(r)];
        tri.clearSolutions();
        for (Cycle c = 0; c < 2 * w_ - 1; ++c) {
            // Row i enters cell 0 at pass-cycle i...
            if (c < w_) {
                tri.setSIn(Sample::of(rhs[c]));
                if (record_trace)
                    res.trace.add(start + c, Port::BIn, r * w_ + c,
                                  rhs[c]);
            }
            // ...and its coefficient l_ik reaches cell k at i + k.
            for (Index k = 0; k < w_; ++k) {
                Index i = static_cast<Index>(c) - k;
                if (i >= k && i < w_) {
                    Scalar v = blk(i, k);
                    tri.setAIn(k, Sample::of(v));
                    if (record_trace)
                        res.trace.add(start + c, Port::AIn,
                                      (r * w_ + i) * (nbar_ * w_) +
                                          (r * w_ + k),
                                      v);
                }
            }
            tri.step();
        }
        for (Index k = 0; k < w_; ++k) {
            Sample s = tri.y(k);
            SAP_ASSERT(s.valid, "cell ", k, " never saw its diagonal");
            y[r * w_ + k] = s.value;
            if (record_trace)
                res.trace.add(start + (tri.yCapturedAt(k) - t0),
                              Port::YOut, r * w_ + k, s.value);
        }
        res.stats.cycles += 2 * w_ - 1;
    }
    res.stats.usefulMacs += tri.usefulOps();

    res.y = y.slice(0, n_);
    return res;
}

} // namespace sap
