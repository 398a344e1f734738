#include "dbt/matmul_transform.hh"

#include "base/logging.hh"
#include "base/math_util.hh"
#include "mat/triangular.hh"

namespace sap {

MatMulTransform::MatMulTransform(const Dense<Scalar> &a,
                                 const Dense<Scalar> &b, Index w)
    : dims_{a.rows(), a.cols(), b.cols(), w,
            ceilDiv(a.rows(), w), ceilDiv(a.cols(), w),
            ceilDiv(b.cols(), w)},
      ablocks_(a, w), bblocks_(b, w),
      abar_(dims_.order(), dims_.order(), 0, w - 1),
      bbar_(dims_.order(), dims_.order(), w - 1, 0)
{
    SAP_ASSERT(a.cols() == b.rows(), "A cols ", a.cols(),
               " != B rows ", b.rows());
    const Index K = dims_.blockCount();
    const Index N = dims_.order();

    // Every block element is read straight from the padded
    // partitions, and every band element is written straight into
    // Band::raw() storage (row R starts at R·w; Ā has offset c − R,
    // B̄ offset c − R + w − 1).
    const Index a_ld = dims_.pbar * w;
    const Index b_ld = dims_.mbar * w;
    const Scalar *pa = ablocks_.padded().raw();
    const Scalar *pb = bblocks_.padded().raw();
    // Row i of A block (r, s) and of B block (s, c).
    auto a_row = [&](Index r, Index s, Index i) {
        return pa + (r * w + i) * a_ld + s * w;
    };
    auto b_row = [&](Index s, Index c, Index i) {
        return pb + (s * w + i) * b_ld + c * w;
    };
    Scalar *ab = abar_.raw();
    Scalar *bb = bbar_.raw();

    // ---- Ā -------------------------------------------------------
    // Interior block rows: Ū_k on the diagonal, L̄_k one block right.
    for (Index k = 0; k < K; ++k) {
        for (Index i = 0; i < w; ++i) {
            const Scalar *u = a_row(rOf(k), sOf(k), i);
            const Scalar *l = a_row(rOf(k), (sOf(k) + 1) % dims_.pbar, i);
            Scalar *dst = ab + (k * w + i) * w;
            for (Index j = i; j < w; ++j)      // upper incl. diagonal
                dst[j - i] = u[j];
            for (Index j = 0; j < i; ++j)      // strictly lower
                dst[w - i + j] = l[j];
        }
    }
    // Tail U': leading (w−1)×(w−1) corner of U^A_{0,0}.
    for (Index i = 0; i < w - 1; ++i) {
        const Scalar *u0 = a_row(0, 0, i);
        Scalar *dst = ab + (K * w + i) * w;
        for (Index j = i; j < w - 1; ++j)
            dst[j - i] = u0[j];
    }

    // ---- B̄ -------------------------------------------------------
    // Interior: L⁺ on the diagonal, U⁻ one block left (k >= 1).
    for (Index k = 0; k < K; ++k) {
        for (Index i = 0; i < w; ++i) {
            const Scalar *lp = b_row(sOf(k), cOf(k), i);
            Scalar *dst = bb + (k * w + i) * w;
            for (Index j = 0; j <= i; ++j)     // lower incl. diagonal
                dst[j - i + w - 1] = lp[j];
        }
    }
    for (Index k = 1; k <= K; ++k) {
        // U⁻ block: B block (k mod p̄, ⌊(k−1)/(n̄p̄)⌋), strictly upper.
        const Index s = k % dims_.pbar;
        const Index c = (k - 1) / (dims_.nbar * dims_.pbar);
        for (Index i = 0; i < w; ++i) {
            if (k * w + i >= N)
                break; // the tail row has only w−1 rows
            const Scalar *um = b_row(s, c, i);
            Scalar *dst = bb + (k * w + i) * w;
            for (Index j = i + 1; j < w; ++j)
                dst[j - i - 1] = um[j];
        }
    }
    // Tail L': leading (w−1)×(w−1) corner of L⁺_{0,0}.
    for (Index i = 0; i < w - 1; ++i) {
        const Scalar *l0 = b_row(0, 0, i);
        Scalar *dst = bb + (K * w + i) * w;
        for (Index j = 0; j <= i; ++j)
            dst[j - i + w - 1] = l0[j];
    }
}

Index
MatMulTransform::rOf(Index k) const
{
    return (k % (dims_.nbar * dims_.pbar)) / dims_.pbar;
}

Index
MatMulTransform::sOf(Index k) const
{
    return k % dims_.pbar;
}

Index
MatMulTransform::cOf(Index k) const
{
    return k / (dims_.nbar * dims_.pbar);
}

Dense<Scalar>
MatMulTransform::aDiagBlock(Index k) const
{
    const Index K = dims_.blockCount();
    SAP_ASSERT(k >= 0 && k <= K, "block row ", k, " out of range");
    if (k < K)
        return triPartOf(ablocks_.block(rOf(k), sOf(k)),
                         TriPart::UpperWithDiag);
    // Tail U': U^A_{0,0} with its last row and column zeroed. The
    // clipped row/column contribute nothing to the products the tail
    // participates in (see DESIGN.md §4.3).
    Dense<Scalar> u = triPartOf(ablocks_.block(0, 0),
                                TriPart::UpperWithDiag);
    for (Index t = 0; t < dims_.w; ++t) {
        u(dims_.w - 1, t) = 0;
        u(t, dims_.w - 1) = 0;
    }
    return u;
}

Dense<Scalar>
MatMulTransform::aSuperBlock(Index k) const
{
    const Index K = dims_.blockCount();
    SAP_ASSERT(k >= 0 && k <= K, "block row ", k, " out of range");
    if (k == K)
        return Dense<Scalar>(dims_.w, dims_.w); // no super block at tail
    return triPartOf(ablocks_.block(rOf(k), (sOf(k) + 1) % dims_.pbar),
                     TriPart::LowerStrict);
}

Dense<Scalar>
MatMulTransform::bDiagBlock(Index k) const
{
    const Index K = dims_.blockCount();
    SAP_ASSERT(k >= 0 && k <= K, "block row ", k, " out of range");
    if (k < K)
        return triPartOf(bblocks_.block(sOf(k), cOf(k)),
                         TriPart::LowerWithDiag);
    // Tail L': L⁺_{0,0} with last row/column zeroed.
    Dense<Scalar> l = triPartOf(bblocks_.block(0, 0),
                                TriPart::LowerWithDiag);
    for (Index t = 0; t < dims_.w; ++t) {
        l(dims_.w - 1, t) = 0;
        l(t, dims_.w - 1) = 0;
    }
    return l;
}

Dense<Scalar>
MatMulTransform::bSubBlock(Index k) const
{
    const Index K = dims_.blockCount();
    SAP_ASSERT(k >= 1 && k <= K, "sub block row ", k, " out of range");
    Index s = k % dims_.pbar; // == sOf(k) for k < K; 0 at the tail
    Index c = (k - 1) / (dims_.nbar * dims_.pbar);
    return triPartOf(bblocks_.block(s, c), TriPart::UpperStrict);
}

bool
MatMulTransform::validate() const
{
    const Index K = dims_.blockCount();
    const Index w = dims_.w;
    const Index N = dims_.order();
    const Index a_ld = dims_.pbar * w;
    const Scalar *pa = ablocks_.padded().raw();
    const Scalar *ab = abar_.raw();

    // Reconstruction: the band content must equal the provenance
    // blocks placed at their positions — the upper part of block row
    // k's diagonal block is U^A_{r,s} (U^A_{0,0} at the tail, whose
    // clipped last row and column lie outside the order-N band).
    // Compared in place, element by element.
    for (Index k = 0; k <= K; ++k) {
        const Index r = k < K ? rOf(k) : 0;
        const Index s = k < K ? sOf(k) : 0;
        for (Index i = 0; i < w; ++i) {
            const Index row = k * w + i;
            if (row >= N)
                continue;
            const Scalar *u = pa + (r * w + i) * a_ld + s * w;
            for (Index j = i; j < w; ++j) {
                if (k * w + j >= N)
                    continue;
                if (ab[row * w + (j - i)] != u[j])
                    return false;
            }
        }
    }

    // Coverage: every U^A block appears exactly m̄ times (once per
    // copy); every L⁺^B block appears exactly n̄ times.
    std::vector<Index> u_count(dims_.nbar * dims_.pbar, 0);
    std::vector<Index> l_count(dims_.pbar * dims_.mbar, 0);
    for (Index k = 0; k < K; ++k) {
        ++u_count[rOf(k) * dims_.pbar + sOf(k)];
        ++l_count[sOf(k) * dims_.mbar + cOf(k)];
    }
    for (Index v : u_count)
        if (v != dims_.mbar)
            return false;
    for (Index v : l_count)
        if (v != dims_.nbar)
            return false;
    return true;
}

} // namespace sap
