#include "dbt/matvec_transform.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/math_util.hh"
#include "mat/triangular.hh"

namespace sap {

MatVecTransform::MatVecTransform(const DenseWindow<Scalar> &a, Index w)
    : dims_{a.rows(), a.cols(), w,
            ceilDiv(a.rows(), w), ceilDiv(a.cols(), w)},
      abar_(dims_.barRows(), dims_.barCols(), /*sub=*/0, /*super=*/w - 1)
{
    SAP_ASSERT(w >= 1, "block size must be >= 1");
    SAP_ASSERT(a.rows() >= 1 && a.cols() >= 1,
               "cannot partition an empty matrix");
    const Index mbar = dims_.mbar;
    const Index blocks = dims_.blockCount();
    pairs_.reserve(blocks);

    // DBT-by-rows block selection (paper §2, rules a).
    for (Index k = 0; k < blocks; ++k) {
        Index r = k / mbar;
        Index s = k % mbar;
        Index s_next = (s + 1) % mbar;
        pairs_.push_back({r, s, r, s_next});
    }

    // Materialize the band straight from A: block row k holds Ū_k at
    // block column k (offsets 0..w-1-i per local row i) and L̄_k at
    // block column k+1 (offsets w-i..w-1). Together they fill the
    // whole band. In Band::raw() storage band row R starts at R·w
    // with offset 0; positions in A's zero padding stay zero.
    Scalar *band = abar_.raw();
    const Index stored_rows = a.storedRows();
    const Index stored_cols = a.storedCols();
    for (Index k = 0; k < blocks; ++k) {
        const BlockPair &p = pairs_[k];
        for (Index i = 0; i < w; ++i) {
            Scalar *dst = band + (k * w + i) * w;
            if (p.uRow * w + i < stored_rows) { // U part, j >= i
                const Scalar *src = a.row(p.uRow * w + i) + p.uCol * w;
                const Index end = std::min(w, stored_cols - p.uCol * w);
                for (Index j = i; j < end; ++j)
                    dst[j - i] = src[j];
            }
            if (p.lRow * w + i < stored_rows) { // L part, j < i
                const Scalar *src = a.row(p.lRow * w + i) + p.lCol * w;
                const Index end = std::min(i, stored_cols - p.lCol * w);
                for (Index j = 0; j < end; ++j)
                    dst[w - i + j] = src[j];
            }
        }
    }
}

bool
MatVecTransform::holdsBytesOf(const DenseWindow<Scalar> &a) const
{
    if (a.rows() != dims_.n || a.cols() != dims_.m)
        return false;
    const Index w = dims_.w;
    const Index mbar = dims_.mbar;
    const Index stored_cols = a.storedCols();
    const Scalar *band = abar_.raw();
    auto same = [](const Scalar *p, const Scalar *q, Index count) {
        return sameRowBytes(p, count, q, count, 1, count);
    };
    // Band row i of block row k = r·m̄ + s holds row r·w + i of A from
    // column s·w + i on: the w − i elements of Ū_k, then the i of L̄_k,
    // which continue the same row into block column s + 1 — one run
    // of w elements — except for s = m̄ − 1, whose L̄_k wraps back to
    // block column 0.
    for (Index row = 0; row < a.storedRows(); ++row) {
        const Index r = row / w;
        const Index i = row % w;
        const Scalar *src = a.row(row);
        for (Index s = 0; s < mbar; ++s) {
            const Scalar *dst = band + ((r * mbar + s) * w + i) * w;
            const Index c0 = s * w + i;
            if (s + 1 < mbar) {
                if (!same(src + c0, dst, std::min(w, stored_cols - c0)))
                    return false;
            } else if (!same(src + c0, dst,
                             std::min(w - i, stored_cols - c0)) ||
                       !same(src, dst + w - i, std::min(i, stored_cols))) {
                return false;
            }
        }
    }
    return true;
}

BSource
MatVecTransform::bSourceOf(Index k) const
{
    SAP_ASSERT(k >= 0 && k < dims_.blockCount(), "block ", k,
               " out of range");
    return (k % dims_.mbar == 0) ? BSource::External : BSource::Feedback;
}

YSink
MatVecTransform::ySinkOf(Index k) const
{
    SAP_ASSERT(k >= 0 && k < dims_.blockCount(), "block ", k,
               " out of range");
    return ((k + 1) % dims_.mbar == 0) ? YSink::Emit
                                       : YSink::Recirculate;
}

Vec<Scalar>
MatVecTransform::transformX(const Vec<Scalar> &x) const
{
    SAP_ASSERT(x.size() == dims_.m, "x has ", x.size(),
               " elements, expected ", dims_.m);
    const Index w = dims_.w;
    const Vec<Scalar> xp = x.paddedTo(dims_.mbar * w);

    // Block k carries x_{k mod m̄}; the (w−1)-element tail x^∂ is the
    // first w−1 elements of the block that follows the last L̄ (for
    // DBT-by-rows this is x_0).
    Vec<Scalar> xbar(dims_.barCols());
    for (Index k = 0; k < dims_.blockCount(); ++k) {
        const Scalar *src = xp.raw() + (k % dims_.mbar) * w;
        std::copy(src, src + w, xbar.raw() + k * w);
    }
    std::copy(xp.raw(), xp.raw() + (w - 1),
              xbar.raw() + dims_.blockCount() * w);
    return xbar;
}

Vec<Scalar>
MatVecTransform::transformB(const Vec<Scalar> &b) const
{
    SAP_ASSERT(b.size() == dims_.n, "b has ", b.size(),
               " elements, expected ", dims_.n);
    const Index w = dims_.w;
    Vec<Scalar> bbar(dims_.barRows());
    // Block row k is external exactly when k mod m̄ == 0 (bSourceOf):
    // the first band block of original block row r injects b_r.
    for (Index r = 0; r < dims_.nbar; ++r) {
        const Index len = std::min(w, dims_.n - r * w);
        std::copy(b.raw() + r * w, b.raw() + r * w + len,
                  bbar.raw() + r * dims_.mbar * w);
    }
    return bbar;
}

bool
MatVecTransform::scalarIsExternalB(Index i) const
{
    SAP_ASSERT(i >= 0 && i < dims_.barRows(), "scalar row ", i,
               " out of range");
    return bSourceOf(i / dims_.w) == BSource::External;
}

Scalar
MatVecTransform::externalB(const Vec<Scalar> &b, Index i) const
{
    SAP_ASSERT(scalarIsExternalB(i), "row ", i, " is fed back");
    SAP_ASSERT(b.size() == dims_.n, "b has ", b.size(),
               " elements, expected ", dims_.n);
    Index k = i / dims_.w;
    Index t = i % dims_.w;
    Index r = k / dims_.mbar;
    Index src = r * dims_.w + t;
    // Padded rows take a zero initial value.
    return src < dims_.n ? b[src] : Scalar{0};
}

bool
MatVecTransform::scalarIsFinalY(Index i) const
{
    SAP_ASSERT(i >= 0 && i < dims_.barRows(), "scalar row ", i,
               " out of range");
    return ySinkOf(i / dims_.w) == YSink::Emit;
}

Vec<Scalar>
MatVecTransform::extractY(const Vec<Scalar> &ybar) const
{
    SAP_ASSERT(ybar.size() == dims_.barRows(), "ȳ has ", ybar.size(),
               " elements, expected ", dims_.barRows());
    const Index w = dims_.w;
    Vec<Scalar> y(dims_.n);
    // The last band block of original block row r emits y_r
    // (ySinkOf); rows past n are padding and are dropped.
    for (Index r = 0; r < dims_.nbar; ++r) {
        const Index len = std::min(w, dims_.n - r * w);
        const Scalar *src = ybar.raw() + ((r + 1) * dims_.mbar - 1) * w;
        std::copy(src, src + len, y.raw() + r * w);
    }
    return y;
}

bool
MatVecTransform::validate(bool check_filled) const
{
    const Index blocks = dims_.blockCount();

    // Condition 1: Ū_k and L̄_k come from the same original block row.
    for (Index k = 0; k < blocks; ++k)
        if (pairs_[k].uRow != pairs_[k].lRow)
            return false;

    // Condition 2: L̄_k and Ū_{k+1} come from the same original block
    // column (they share the x sub-vector flowing between them).
    for (Index k = 0; k + 1 < blocks; ++k)
        if (pairs_[k].lCol != pairs_[k + 1].uCol)
            return false;

    // Condition 3: exactly one copy of every U_ij and every L_ij.
    std::vector<int> seen_u(blocks, 0), seen_l(blocks, 0);
    for (Index k = 0; k < blocks; ++k) {
        ++seen_u[pairs_[k].uRow * dims_.mbar + pairs_[k].uCol];
        ++seen_l[pairs_[k].lRow * dims_.mbar + pairs_[k].lCol];
    }
    for (Index q = 0; q < blocks; ++q)
        if (seen_u[q] != 1 || seen_l[q] != 1)
            return false;

    if (check_filled && !abar_.bandCompletelyFilled())
        return false;
    return true;
}

} // namespace sap
