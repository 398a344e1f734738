#include "mat/generate.hh"

#include <cmath>

#include "base/math_util.hh"

namespace sap {

Dense<Scalar>
randomIntDense(Index rows, Index cols, std::uint64_t seed, Index lo,
               Index hi)
{
    Rng rng(seed);
    Dense<Scalar> a(rows, cols);
    for (Index r = 0; r < rows; ++r)
        for (Index c = 0; c < cols; ++c)
            a(r, c) = static_cast<Scalar>(rng.uniformInt(lo, hi));
    return a;
}

Vec<Scalar>
randomIntVec(Index n, std::uint64_t seed, Index lo, Index hi)
{
    Rng rng(seed);
    Vec<Scalar> v(n);
    for (Index i = 0; i < n; ++i)
        v[i] = static_cast<Scalar>(rng.uniformInt(lo, hi));
    return v;
}

Dense<Scalar>
randomRealDense(Index rows, Index cols, std::uint64_t seed, double lo,
                double hi)
{
    Rng rng(seed);
    Dense<Scalar> a(rows, cols);
    for (Index r = 0; r < rows; ++r)
        for (Index c = 0; c < cols; ++c)
            a(r, c) = rng.uniformReal(lo, hi);
    return a;
}

Vec<Scalar>
randomRealVec(Index n, std::uint64_t seed, double lo, double hi)
{
    Rng rng(seed);
    Vec<Scalar> v(n);
    for (Index i = 0; i < n; ++i)
        v[i] = rng.uniformReal(lo, hi);
    return v;
}

Dense<Scalar>
randomBlockSparse(Index rows, Index cols, Index w, double zero_prob,
                  std::uint64_t seed)
{
    Rng rng(seed);
    Dense<Scalar> a(rows, cols);
    Index nbar = ceilDiv(rows, w);
    Index mbar = ceilDiv(cols, w);
    for (Index bi = 0; bi < nbar; ++bi) {
        for (Index bj = 0; bj < mbar; ++bj) {
            if (rng.bernoulli(zero_prob))
                continue; // whole block stays zero
            for (Index r = bi * w; r < std::min((bi + 1) * w, rows); ++r)
                for (Index c = bj * w; c < std::min((bj + 1) * w, cols);
                     ++c)
                    a(r, c) = static_cast<Scalar>(rng.uniformInt(1, 9));
        }
    }
    return a;
}

Dense<Scalar>
coordinateCoded(Index rows, Index cols)
{
    Dense<Scalar> a(rows, cols);
    for (Index r = 0; r < rows; ++r)
        for (Index c = 0; c < cols; ++c)
            a(r, c) = static_cast<Scalar>((r + 1) * 1000 + (c + 1));
    return a;
}

Dense<Scalar>
randomLowerTriangular(Index n, std::uint64_t seed)
{
    Rng rng(seed);
    Dense<Scalar> l(n, n);
    for (Index i = 0; i < n; ++i) {
        for (Index j = 0; j < i; ++j)
            l(i, j) = static_cast<Scalar>(rng.uniformInt(1, 5));
        l(i, i) = static_cast<Scalar>(rng.uniformInt(1, 4));
    }
    return l;
}

Dense<Scalar>
randomUnitLowerTriangular(Index n, std::uint64_t seed)
{
    Rng rng(seed);
    Dense<Scalar> l(n, n);
    for (Index i = 0; i < n; ++i) {
        for (Index j = 0; j < i; ++j)
            l(i, j) = static_cast<Scalar>(rng.uniformInt(0, 3));
        l(i, i) = 1;
    }
    return l;
}

Dense<Scalar>
randomDiagDominant(Index n, std::uint64_t seed)
{
    Rng rng(seed);
    Dense<Scalar> a(n, n);
    for (Index i = 0; i < n; ++i) {
        Scalar row_sum = 0;
        for (Index j = 0; j < n; ++j) {
            if (j == i)
                continue;
            a(i, j) = static_cast<Scalar>(rng.uniformInt(0, 3));
            row_sum += std::abs(a(i, j));
        }
        a(i, i) = row_sum + static_cast<Scalar>(rng.uniformInt(1, 4));
    }
    return a;
}

} // namespace sap
