/**
 * @file
 * Block partitioning of dense matrices (§2.a of the paper): split
 * A(n, m) into n̄·m̄ submatrices of w-by-w, padding with zero rows
 * and/or columns when n or m is not an integer multiple of w.
 */

#ifndef SAP_MAT_BLOCK_HH
#define SAP_MAT_BLOCK_HH

#include "base/logging.hh"
#include "base/math_util.hh"
#include "mat/dense.hh"

namespace sap {

/**
 * Fixed-w block view over a (padded copy of a) dense matrix.
 *
 * Provides w-by-w block extraction/insertion with the zero padding
 * the paper prescribes. The partition owns a padded copy so the
 * original matrix is never mutated.
 */
template <typename T = Scalar>
class BlockPartition
{
  public:
    /**
     * @param a Original dense matrix (any shape).
     * @param w Block size (= systolic array size), w >= 1.
     */
    BlockPartition(const Dense<T> &a, Index w)
        : w_(w),
          orig_rows_(a.rows()), orig_cols_(a.cols()),
          nbar_(ceilDiv(a.rows(), w)), mbar_(ceilDiv(a.cols(), w)),
          padded_(a.paddedTo(roundUp(a.rows(), w), roundUp(a.cols(), w)))
    {
        SAP_ASSERT(w >= 1, "block size must be >= 1");
        SAP_ASSERT(a.rows() >= 1 && a.cols() >= 1,
                   "cannot partition an empty matrix");
    }

    /** Block size w. */
    Index w() const { return w_; }
    /** Number of block rows n̄ = ceil(n/w). */
    Index blockRows() const { return nbar_; }
    /** Number of block cols m̄ = ceil(m/w). */
    Index blockCols() const { return mbar_; }
    /** Original (unpadded) shape. */
    Index origRows() const { return orig_rows_; }
    /** @copydoc origRows() */
    Index origCols() const { return orig_cols_; }
    /** Padded shape. */
    Index paddedRows() const { return nbar_ * w_; }
    /** @copydoc paddedRows() */
    Index paddedCols() const { return mbar_ * w_; }

    /** The zero-padded matrix. */
    const Dense<T> &padded() const { return padded_; }

    /** True when the partition was built from exactly the bytes of
     *  @p a (sameRowBytes over the unpadded corner; the zero padding
     *  is not read). */
    bool
    holdsBytesOf(const Dense<T> &a) const
    {
        return a.rows() == orig_rows_ && a.cols() == orig_cols_ &&
               sameRowBytes(a.raw(), a.cols(), padded_.raw(),
                            padded_.cols(), a.rows(), a.cols());
    }

    /** Copy of block (i, j) as a w-by-w dense matrix. */
    Dense<T>
    block(Index i, Index j) const
    {
        SAP_ASSERT(i >= 0 && i < nbar_ && j >= 0 && j < mbar_,
                   "block (", i, ",", j, ") out of ", nbar_, "x", mbar_);
        Dense<T> b(w_, w_);
        for (Index r = 0; r < w_; ++r)
            for (Index c = 0; c < w_; ++c)
                b(r, c) = padded_(i * w_ + r, j * w_ + c);
        return b;
    }

    /** True if block (i, j) is entirely zero (sparsity-aware DBT). */
    bool
    blockIsZero(Index i, Index j) const
    {
        for (Index r = 0; r < w_; ++r)
            for (Index c = 0; c < w_; ++c)
                if (padded_(i * w_ + r, j * w_ + c) != T{})
                    return false;
        return true;
    }

  private:
    Index w_;
    Index orig_rows_, orig_cols_;
    Index nbar_, mbar_;
    Dense<T> padded_;
};

} // namespace sap

#endif // SAP_MAT_BLOCK_HH
