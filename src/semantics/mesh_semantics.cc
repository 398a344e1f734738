/**
 * @file
 * Semantics (fast-mode) execution of the output-stationary mesh
 * plan: every output accumulated over the concatenated reduction in
 * stream order (ascending t), exactly as PE (r, q) sees the skewed
 * a/b streams meet.
 *
 * Output-stationary outputs never read each other, so the replay is
 * one call of the register-tiled mesh kernel (semantics/
 * mesh_kernel.hh) over the whole padded reduction: tiles of C stay
 * in registers across every step t, and each output still receives
 * its own `acc + a·b` terms in ascending t. Padded rows and columns
 * the simulator computes and drops are skipped; the padded reduction
 * steps are kept, since adding a (+0)·(+0) product turns a −0
 * accumulator into +0 in the array too.
 */

#include "analysis/formulas.hh"
#include "base/logging.hh"
#include "semantics/mesh_kernel.hh"
#include "sim/mesh_array.hh"

namespace sap {

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
    meshKernel(n_, m_, ptot, mbar_ * w_, a_padded_.raw(),
               b_padded_.raw(), res.c.raw());

    res.stats.cycles = formulas::tMesh(w_, pbar_, nbar_, mbar_);
    res.stats.peCount = w_ * w_;
    res.stats.usefulMacs = nbar_ * mbar_ * w_ * w_ * ptot;
    return res;
}

} // namespace sap
