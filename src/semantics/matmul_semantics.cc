/**
 * @file
 * Semantics (fast-mode) execution of the hexagonal mat-mul plan:
 * every O-band value accumulated in the array's MAC order
 * (ascending k along the reduction), with the Appendix feedback
 * composition replayed through the plan's routing tables. O values
 * are processed in exit-cycle order, enumerated from the driver's
 * closed-form exit schedule (forEachHexOExit), which topologically
 * orders the feedback dependencies (a value always exits strictly
 * before the cycle its consumer is injected).
 */

#include <algorithm>
#include <vector>

#include "analysis/formulas.hh"
#include "base/logging.hh"
#include "dbt/matmul_plan.hh"

namespace sap {

MatMulPlanResult
MatMulPlan::runSemantics(const Dense<Scalar> &e) const
{
    const MatMulDims &d = dims();
    const Index w = d.w;
    const Index N = d.order();
    SAP_ASSERT(e.rows() == d.n && e.cols() == d.m,
               "E must be n×m = ", d.n, "x", d.m);
    const Band<Scalar> &abar = transform_.abar();
    const Band<Scalar> &bbar = transform_.bbar();
    SAP_ASSERT(abar.sub() == 0 && abar.super() == w - 1 &&
                   bbar.sub() == w - 1 && bbar.super() == 0 &&
                   abar.rows() == N && bbar.rows() == N,
               "Ā/B̄ are not the order-", N, " width-", w, " bands");
    // Row-major band storage (Band::raw()): Ā(i, k) at i·w + (k − i),
    // B̄(k, j) at k·w + (j − k) + w − 1.
    const Scalar *a = abar.raw();
    const Scalar *b = bbar.raw();
    const Scalar *e_at = e.raw();

    // Captured O values, keyed by bandIdx of the scalar position.
    std::vector<Scalar> captured(routes_.size(), 0);
    MatMulPlanResult res;
    res.c = Dense<Scalar>(d.n, d.m);
    Scalar *c_at = res.c.raw();
    Index macs = 0;

    const Cycle horizon = hexHorizon(N, w);
    for (Cycle tau = 0; tau <= horizon; ++tau) {
        forEachHexOExit(N, w, tau, [&](Index i, Index j) {
            const std::size_t slot = bandIdx(i, j);

            const InputRoute &rt = routes_[slot];
            Scalar acc = 0;
            switch (rt.kind) {
              case InputRoute::Kind::Zero:
                acc = 0;
                break;
              case InputRoute::Kind::FromE:
                acc = e_at[rt.r * d.m + rt.c];
                break;
              case InputRoute::Kind::FromO:
                acc = captured[bandIdx(rt.r, rt.c)];
                break;
            }

            // The c value for (i, j) meets a(i, k)·b(k, j) at PE
            // (k−i, k−j) for ascending k — the array's MAC order.
            const Index klo = std::max(i, j);
            const Index khi = std::min(std::min(i, j) + w - 1, N - 1);
            const Scalar *a_row = a + i * w - i;
            const Scalar *b_col = b + j + w - 1;
            for (Index k = klo; k <= khi; ++k)
                acc = acc + a_row[k] * b_col[k * (w - 1)];
            macs += khi - klo + 1;

            captured[slot] = acc;
            if (extract_[slot] >= 0)
                c_at[extract_[slot]] = acc;
        });
    }

    res.stats.cycles = formulas::tMatMul(w, d.pbar, d.nbar, d.mbar);
    res.stats.peCount = w * w;
    res.stats.usefulMacs = macs;
    res.totalCycles = horizon + 1;
    return res;
}

} // namespace sap
