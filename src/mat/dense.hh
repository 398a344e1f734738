/**
 * @file
 * Dense row-major matrix container.
 *
 * This is the substrate data structure the DBT transformation
 * consumes: a plain dense matrix of arbitrary (n, m) shape. The
 * container is templated on the element type so tests can use exact
 * integer arithmetic while simulations use doubles.
 */

#ifndef SAP_MAT_DENSE_HH
#define SAP_MAT_DENSE_HH

#include <algorithm>
#include <cstring>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"

namespace sap {

/**
 * Row-major dense matrix.
 *
 * Invariants: rows() >= 0, cols() >= 0, storage size == rows*cols.
 */
template <typename T = Scalar>
class Dense
{
  public:
    /** Empty 0x0 matrix. */
    Dense() = default;

    /** @param rows,cols Shape; elements value-initialized to T{}. */
    Dense(Index rows, Index cols)
        : rows_(rows), cols_(cols),
          data_(static_cast<std::size_t>(rows * cols), T{})
    {
        SAP_ASSERT(rows >= 0 && cols >= 0, "negative dimension");
    }

    /** Shape accessors. */
    Index rows() const { return rows_; }
    Index cols() const { return cols_; }

    /** Element access with bounds assertion. */
    T &
    operator()(Index r, Index c)
    {
        SAP_ASSERT(r >= 0 && r < rows_ && c >= 0 && c < cols_,
                   "index (", r, ",", c, ") out of ", rows_, "x", cols_);
        return data_[static_cast<std::size_t>(r * cols_ + c)];
    }

    /** @copydoc operator()(Index,Index) */
    const T &
    operator()(Index r, Index c) const
    {
        SAP_ASSERT(r >= 0 && r < rows_ && c >= 0 && c < cols_,
                   "index (", r, ",", c, ") out of ", rows_, "x", cols_);
        return data_[static_cast<std::size_t>(r * cols_ + c)];
    }

    /** Raw storage access (row-major). */
    const std::vector<T> &data() const { return data_; }

    /** Row-major element pointer, for bulk copies and kernels that
     *  check the shape once instead of per element. */
    T *raw() { return data_.data(); }
    /** @copydoc raw() */
    const T *raw() const { return data_.data(); }

    /** @return a new matrix that is the transpose of this one. */
    Dense
    transposed() const
    {
        Dense t(cols_, rows_);
        for (Index r = 0; r < rows_; ++r)
            for (Index c = 0; c < cols_; ++c)
                t(c, r) = (*this)(r, c);
        return t;
    }

    /**
     * Copy of this matrix padded with T{} to the given shape.
     *
     * @pre new_rows >= rows() and new_cols >= cols().
     */
    Dense
    paddedTo(Index new_rows, Index new_cols) const
    {
        SAP_ASSERT(new_rows >= rows_ && new_cols >= cols_,
                   "padding must not shrink the matrix");
        Dense p(new_rows, new_cols);
        for (Index r = 0; r < rows_; ++r)
            for (Index c = 0; c < cols_; ++c)
                p(r, c) = (*this)(r, c);
        return p;
    }

    /** Copy of the leading submatrix of the given shape. */
    Dense
    topLeft(Index new_rows, Index new_cols) const
    {
        SAP_ASSERT(new_rows <= rows_ && new_cols <= cols_,
                   "topLeft must not grow the matrix");
        Dense s(new_rows, new_cols);
        for (Index r = 0; r < new_rows; ++r)
            for (Index c = 0; c < new_cols; ++c)
                s(r, c) = (*this)(r, c);
        return s;
    }

    /** Exact element-wise equality (use for integer workloads). */
    bool
    operator==(const Dense &o) const
    {
        return rows_ == o.rows_ && cols_ == o.cols_ && data_ == o.data_;
    }

    /** True if every element equals T{}. */
    bool
    isZero() const
    {
        for (const T &v : data_)
            if (v != T{})
                return false;
        return true;
    }

  private:
    Index rows_ = 0;
    Index cols_ = 0;
    std::vector<T> data_;
};

/**
 * Read-only rows×cols window of a dense matrix, anchored at (r0, c0),
 * whose positions past the matrix edge read as zero (the paper's
 * zero padding). Lets a transform read one block of the padded
 * partition, or the whole matrix, straight from the source without
 * copying it. The matrix must outlive the window.
 */
template <typename T = Scalar>
class DenseWindow
{
  public:
    /** The whole matrix. */
    DenseWindow(const Dense<T> &src)
        : DenseWindow(src, 0, 0, src.rows(), src.cols())
    {
    }

    /** The rows×cols window at (r0, c0) of @p src. */
    DenseWindow(const Dense<T> &src, Index r0, Index c0, Index rows,
                Index cols)
        : src_(&src), r0_(r0), c0_(c0), rows_(rows), cols_(cols)
    {
        SAP_ASSERT(r0 >= 0 && c0 >= 0 && rows >= 0 && cols >= 0,
                   "negative window");
        SAP_ASSERT(r0 <= src.rows() && c0 <= src.cols(),
                   "window origin (", r0, ",", c0, ") outside ",
                   src.rows(), "x", src.cols());
    }

    /** Logical shape. */
    Index rows() const { return rows_; }
    Index cols() const { return cols_; }

    /** Leading rows / columns that lie inside the matrix; every
     *  other position of the window reads as zero. */
    Index
    storedRows() const
    {
        return std::min(rows_, src_->rows() - r0_);
    }
    /** @copydoc storedRows() */
    Index
    storedCols() const
    {
        return std::min(cols_, src_->cols() - c0_);
    }

    /** Window row @p r: storedCols() contiguous elements.
     *  @pre r < storedRows(). */
    const T *
    row(Index r) const
    {
        return src_->raw() + (r0_ + r) * src_->cols() + c0_;
    }

  private:
    const Dense<T> *src_;
    Index r0_, c0_;
    Index rows_, cols_;
};

/**
 * True when @p rows rows of @p cols elements hold identical bytes: row
 * r at @p a + r·@p lda and at @p b + r·@p ldb. Bytes, not values: a
 * NaN matches its own bit pattern and −0.0 does not match +0.0. Two
 * packed operands (both strides equal to @p cols) take one memcmp.
 */
template <typename T>
bool
sameRowBytes(const T *a, Index lda, const T *b, Index ldb, Index rows,
             Index cols)
{
    // An empty operand may have no storage; memcmp wants pointers.
    if (rows <= 0 || cols <= 0)
        return true;
    const std::size_t row_bytes =
        static_cast<std::size_t>(cols) * sizeof(T);
    if (lda == cols && ldb == cols)
        return std::memcmp(a, b, row_bytes *
                                     static_cast<std::size_t>(rows)) == 0;
    for (Index r = 0; r < rows; ++r, a += lda, b += ldb)
        if (std::memcmp(a, b, row_bytes) != 0)
            return false;
    return true;
}

/**
 * True when @p a and @p b have one shape and identical element bytes
 * (see sameRowBytes) — exactly what the plan cache's digest hashes,
 * so an operand always finds the plan built from it.
 */
template <typename T>
bool
sameDenseBytes(const Dense<T> &a, const Dense<T> &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           sameRowBytes(a.raw(), a.cols(), b.raw(), b.cols(), a.rows(),
                        a.cols());
}

/** Largest absolute element-wise difference between two matrices. */
template <typename T>
double
maxAbsDiff(const Dense<T> &a, const Dense<T> &b)
{
    SAP_ASSERT(a.rows() == b.rows() && a.cols() == b.cols(),
               "shape mismatch in maxAbsDiff");
    double worst = 0.0;
    for (Index r = 0; r < a.rows(); ++r) {
        for (Index c = 0; c < a.cols(); ++c) {
            double d = static_cast<double>(a(r, c)) -
                       static_cast<double>(b(r, c));
            if (d < 0)
                d = -d;
            if (d > worst)
                worst = d;
        }
    }
    return worst;
}

} // namespace sap

#endif // SAP_MAT_DENSE_HH
