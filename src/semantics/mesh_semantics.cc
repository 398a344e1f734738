/**
 * @file
 * Semantics (fast-mode) execution of the output-stationary mesh
 * plan: every output accumulated over the concatenated reduction in
 * stream order (ascending t), exactly as PE (r, q) sees the skewed
 * a/b streams meet.
 *
 * Output-stationary outputs never read each other, so the replay
 * sweeps a whole row of C one reduction step t at a time over the
 * contiguous row t of the padded B: the columns are SIMD lanes, and
 * each output still receives its own `acc + a·b` terms in ascending
 * t. Padded rows and columns the simulator computes and drops are
 * skipped; the padded reduction steps are kept, since adding a
 * (+0)·(+0) product turns a −0 accumulator into +0 in the array too.
 */

#include "analysis/formulas.hh"
#include "base/logging.hh"
#include "sim/mesh_array.hh"

namespace sap {

namespace {

/**
 * C[0:n, 0:m] += A·B over the padded reduction, one C row at a time:
 * @p a is n×ptot (leading dimension ptot), @p b is ptot×ldb.
 */
void
meshRowSweep(Index n, Index m, Index ptot, Index ldb, const Scalar *a,
             const Scalar *b, Scalar *c)
{
    for (Index i = 0; i < n; ++i) {
        Scalar *__restrict crow = c + i * m;
        const Scalar *arow = a + i * ptot;
        for (Index t = 0; t < ptot; ++t) {
            const Scalar at = arow[t];
            const Scalar *brow = b + t * ldb;
            for (Index j = 0; j < m; ++j)
                crow[j] = crow[j] + at * brow[j];
        }
    }
}

} // namespace

MeshRunResult
MeshMatMulPlan::runSemantics(const Dense<Scalar> &e) const
{
    const Index ptot = pbar_ * w_; // concatenated reduction length
    SAP_ASSERT(e.rows() == n_ && e.cols() == m_ &&
                   a_padded_.rows() == nbar_ * w_ &&
                   a_padded_.cols() == ptot && b_padded_.rows() == ptot &&
                   b_padded_.cols() == mbar_ * w_,
               "E shape ", e.rows(), "x", e.cols(), " != ", n_, "x", m_);

    MeshRunResult res;
    // Preload E into the stationary accumulators.
    res.c = e;
    meshRowSweep(n_, m_, ptot, mbar_ * w_, a_padded_.raw(),
                 b_padded_.raw(), res.c.raw());

    res.stats.cycles = formulas::tMesh(w_, pbar_, nbar_, mbar_);
    res.stats.peCount = w_ * w_;
    res.stats.usefulMacs = nbar_ * mbar_ * w_ * w_ * ptot;
    return res;
}

} // namespace sap
