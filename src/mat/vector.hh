/**
 * @file
 * Dense vector container plus the slice/concatenate helpers the DBT
 * vector transformations are built from.
 */

#ifndef SAP_MAT_VECTOR_HH
#define SAP_MAT_VECTOR_HH

#include <vector>

#include "base/logging.hh"
#include "base/types.hh"

namespace sap {

/**
 * Fixed-length numeric vector.
 *
 * Thin wrapper over std::vector with bounds-checked access and the
 * block operations (slice, concat, padding) used by the transformed
 * vectors x̄, b̄, ȳ of the paper.
 */
template <typename T = Scalar>
class Vec
{
  public:
    Vec() = default;

    /** @param n Length; elements value-initialized. */
    explicit Vec(Index n) : data_(static_cast<std::size_t>(n), T{})
    {
        SAP_ASSERT(n >= 0, "negative vector length");
    }

    /** Construct from an initializer list. */
    Vec(std::initializer_list<T> init) : data_(init) {}

    Index size() const { return static_cast<Index>(data_.size()); }

    T &
    operator[](Index i)
    {
        SAP_ASSERT(i >= 0 && i < size(), "index ", i, " out of ", size());
        return data_[static_cast<std::size_t>(i)];
    }

    const T &
    operator[](Index i) const
    {
        SAP_ASSERT(i >= 0 && i < size(), "index ", i, " out of ", size());
        return data_[static_cast<std::size_t>(i)];
    }

    /** Copy of elements [begin, begin+len). */
    Vec
    slice(Index begin, Index len) const
    {
        SAP_ASSERT(begin >= 0 && len >= 0 && begin + len <= size(),
                   "slice [", begin, ",", begin + len, ") out of ",
                   size());
        Vec out(len);
        for (Index i = 0; i < len; ++i)
            out[i] = (*this)[begin + i];
        return out;
    }

    /** Copy padded with T{} to the given length. */
    Vec
    paddedTo(Index n) const
    {
        SAP_ASSERT(n >= size(), "padding must not shrink");
        Vec out(n);
        for (Index i = 0; i < size(); ++i)
            out[i] = (*this)[i];
        return out;
    }

    /** Append all elements of @p other. */
    void
    append(const Vec &other)
    {
        data_.insert(data_.end(), other.data_.begin(), other.data_.end());
    }

    /** Append a single element. */
    void push_back(const T &v) { data_.push_back(v); }

    bool operator==(const Vec &o) const { return data_ == o.data_; }

    /** Underlying storage. */
    const std::vector<T> &data() const { return data_; }

    /** Element pointer, for bulk copies and kernels that check the
     *  length once instead of per element. */
    T *raw() { return data_.data(); }
    /** @copydoc raw() */
    const T *raw() const { return data_.data(); }

  private:
    std::vector<T> data_;
};

/** Largest absolute element-wise difference. */
template <typename T>
double
maxAbsDiff(const Vec<T> &a, const Vec<T> &b)
{
    SAP_ASSERT(a.size() == b.size(), "length mismatch in maxAbsDiff");
    double worst = 0.0;
    for (Index i = 0; i < a.size(); ++i) {
        double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
        if (d < 0)
            d = -d;
        if (d > worst)
            worst = d;
    }
    return worst;
}

} // namespace sap

#endif // SAP_MAT_VECTOR_HH
