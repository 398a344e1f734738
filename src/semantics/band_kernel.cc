#include "semantics/band_kernel.hh"

#include <algorithm>

namespace sap {

namespace {

/**
 * Rows k = 0 … L−1 of one block, as L independent accumulators held
 * in registers: lane k sums a[k·w + d]·x[k + d] in ascending d.
 */
template <int L>
void
laneBlock(Index w, const Scalar *a, const Scalar *x, Scalar *y)
{
    Scalar acc[L];
    for (int k = 0; k < L; ++k)
        acc[k] = y[k];
    for (Index d = 0; d < w; ++d)
        for (int k = 0; k < L; ++k)
            acc[k] = acc[k] + a[k * w + d] * x[k + d];
    for (int k = 0; k < L; ++k)
        y[k] = acc[k];
}

/** Lanes per register block: enough independent add chains to hide
 *  the floating-point add latency. */
constexpr Index kLanes = 8;

} // namespace

void
bandMatVecKernel(Index rows, Index w, const Scalar *a,
                 const Scalar *xbar, const std::uint8_t *bIsExternal,
                 Scalar *ybar)
{
    for (Index i0 = 0; i0 < rows; i0 += w) {
        const Index end = std::min(i0 + w, rows);
        // Feedback: ȳ_{i−w} re-enters as b̄_i. It lies in the
        // previous block, which is complete.
        for (Index i = i0; i < end; ++i)
            if (!bIsExternal[i])
                ybar[i] = ybar[i - w];
        // ȳ_i enters at PE w−1 and sheds one diagonal per cell on
        // its way to PE 0: ascending d is the array's MAC order,
        // replayed for kLanes rows of the block at once.
        Index i = i0;
        for (; i + kLanes <= end; i += kLanes)
            laneBlock<kLanes>(w, a + i * w, xbar + i, ybar + i);
        for (; i < end; ++i)
            laneBlock<1>(w, a + i * w, xbar + i, ybar + i);
    }
}

} // namespace sap
