#include "dbt/matmul_plan.hh"

#include <algorithm>
#include <limits>

#include "base/logging.hh"

namespace sap {

namespace {

/** Scalar coordinates of an I/O slot (row k, part) element (il, jl). */
std::pair<Index, Index>
oScalarCoords(Index k, BandPart part, Index il, Index jl, Index w)
{
    Index i = k * w + il;
    Index jblk = k;
    if (part == BandPart::USub)
        jblk = k - 1;
    else if (part == BandPart::LSuper)
        jblk = k + 1;
    return {i, jblk * w + jl};
}

/**
 * Call f(il, jl) for every local cell of @p part inside its w×w
 * block, row by row: strictly upper for the U parts, strictly lower
 * for the L parts, the diagonal for D.
 */
template <typename F>
void
forEachInPart(BandPart part, Index w, F &&f)
{
    for (Index il = 0; il < w; ++il) {
        Index lo = il, hi = il + 1; // D: jl == il
        if (part == BandPart::USub || part == BandPart::UDiag) {
            lo = il + 1;
            hi = w;
        } else if (part == BandPart::LDiag || part == BandPart::LSuper) {
            lo = 0;
            hi = il;
        }
        for (Index jl = lo; jl < hi; ++jl)
            f(il, jl);
    }
}

} // namespace

MatMulPlan::MatMulPlan(const Dense<Scalar> &a, const Dense<Scalar> &b,
                       Index w)
    : transform_(a, b, w), composer_(transform_.dims())
{
    SAP_ASSERT(transform_.validate(), "mat-mul transform is malformed");
    SAP_ASSERT(composer_.validate(), "I/O composition is inconsistent");

    // Precompute the scalar routing tables so that run() is pure
    // streaming. Both tables are keyed by bandIdx() over the 2w−1
    // wide I/O band of the order-N transformed problem.
    const MatMulDims &d = dims();
    const Index N = d.order();
    const Index K = d.blockCount();
    const std::size_t slots = static_cast<std::size_t>(N * (2 * w - 1));
    // Routes and extractions hold 32-bit E, O and C indices.
    SAP_ASSERT(std::max(N, d.n * d.m) <=
                   std::numeric_limits<std::int32_t>::max(),
               "problem too large for 32-bit routing indices");

    // Input routing: where the I-band value of position (i, j)
    // comes from (zero, an E element, or a fed-back O value). The
    // Appendix rules are per block part, so each part's source is
    // looked up once and applied to every element of the part; the
    // parts of block rows 0..K tile the band exactly (the tail row
    // K stops at scalar row N−1).
    routes_.assign(slots, InputRoute{});
    for (Index k = 0; k <= K; ++k) {
        for (BandPart part : {BandPart::USub, BandPart::LDiag,
                              BandPart::Diag, BandPart::UDiag,
                              BandPart::LSuper}) {
            if ((part == BandPart::USub && k < 1) ||
                (part == BandPart::LSuper && k > K - 1))
                continue;
            const IoSource src = composer_.inputSource(k, part);
            forEachInPart(part, w, [&](Index il, Index jl) {
                auto [i, j] = oScalarCoords(k, part, il, jl, w);
                if (i >= N || j >= N)
                    return;
                InputRoute &rt = routes_[bandIdx(i, j)];
                switch (src.kind) {
                  case IoSource::Kind::Zero:
                    rt.kind = InputRoute::Kind::Zero;
                    break;
                  case IoSource::Kind::FromE: {
                    Index er = src.eRow * w + il;
                    Index ec = src.eCol * w + jl;
                    if (er < d.n && ec < d.m) {
                        rt.kind = InputRoute::Kind::FromE;
                        rt.r = static_cast<std::int32_t>(er);
                        rt.c = static_cast<std::int32_t>(ec);
                    } else {
                        rt.kind = InputRoute::Kind::Zero;
                    }
                    break;
                  }
                  case IoSource::Kind::FromO: {
                    auto [oi, oj] = oScalarCoords(
                        src.oRow, src.oPart, il, jl, w);
                    rt.kind = InputRoute::Kind::FromO;
                    rt.irregular = src.irregular;
                    rt.r = static_cast<std::int32_t>(oi);
                    rt.c = static_cast<std::int32_t>(oj);
                    // Feedback sources must themselves be O-band
                    // positions (checked here so run() can index
                    // directly).
                    bandIdx(oi, oj);
                    if (rt.irregular)
                        ++fb_irregular_;
                    else if (oj == oi)
                        ++fb_main_;
                    else
                        ++fb_pair_;
                    break;
                  }
                }
            });
        }
    }

    // Extraction routing: O scalar position -> C position.
    extract_.assign(slots, -1);
    for (Index bi = 0; bi < d.nbar; ++bi) {
        for (Index bj = 0; bj < d.mbar; ++bj) {
            for (BandPart part : {BandPart::UDiag, BandPart::Diag,
                                  BandPart::LDiag}) {
                ExtractSource src = composer_.extractSource(bi, bj,
                                                            part);
                forEachInPart(part, w, [&](Index il, Index jl) {
                    auto [oi, oj] = oScalarCoords(src.oRow, src.oPart,
                                                  il, jl, w);
                    std::size_t slot = bandIdx(oi, oj);
                    Index ci = bi * w + il;
                    Index cj = bj * w + jl;
                    if (ci < d.n && cj < d.m)
                        extract_[slot] =
                            static_cast<std::int32_t>(ci * d.m + cj);
                });
            }
        }
    }
}

MatMulExecResult
MatMulPlan::runBlockLevel(const Dense<Scalar> &e) const
{
    return execTransformedMatMul(transform_, e);
}

MatMulPlanResult
MatMulPlan::run(const Dense<Scalar> &e) const
{
    const MatMulDims &d = dims();
    const Index w = d.w;
    SAP_ASSERT(e.rows() == d.n && e.cols() == d.m,
               "E must be n×m = ", d.n, "x", d.m);
    const Scalar *e_at = e.raw();

    auto feedback = std::make_shared<SpiralFeedback>(w);
    feedback->reserve(fb_main_, fb_pair_, fb_irregular_);

    // Captured O values, keyed by bandIdx of the scalar position.
    struct Captured
    {
        Scalar value = 0;
        Cycle exit = 0;
        bool valid = false;
    };
    std::vector<Captured> captured(routes_.size());

    MatMulPlanResult res;
    res.c = Dense<Scalar>(d.n, d.m);
    Scalar *c_at = res.c.raw();

    HexBandSpec spec;
    spec.abar = &transform_.abar();
    spec.bbar = &transform_.bbar();
    auto input_value = [&](Index i, Index j) -> Scalar {
        const InputRoute &rt = routes_[bandIdx(i, j)];
        switch (rt.kind) {
          case InputRoute::Kind::Zero:
            return 0;
          case InputRoute::Kind::FromE:
            return e_at[rt.r * d.m + rt.c];
          case InputRoute::Kind::FromO: {
            const Captured &cap = captured[bandIdx(rt.r, rt.c)];
            SAP_ASSERT(cap.valid, "feedback for (", i, ",", j,
                       ") consumed before (", rt.r, ",", rt.c,
                       ") was produced");
            Cycle enter = i + j + std::max(i, j) + w - 1;
            feedback->recordTransfer(rt.c - rt.r, j - i, cap.exit,
                                     enter, rt.irregular);
            return cap.value;
          }
        }
        SAP_PANIC("unreachable");
    };
    auto on_output = [&](Index i, Index j, Scalar v, Cycle exit_cycle) {
        std::size_t slot = bandIdx(i, j);
        captured[slot] = {v, exit_cycle, true};
        if (extract_[slot] >= 0)
            c_at[extract_[slot]] = v;
    };

    HexRunResult hex = runHexBandMatMul(spec, input_value, on_output);
    SAP_ASSERT(feedback->topologyRespected(),
               "a feedback transfer left its spiral loop");

    res.stats = hex.stats;
    res.totalCycles = hex.totalCycles;
    res.feedback = feedback;
    return res;
}

} // namespace sap
