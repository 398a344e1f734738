#include "sim/hex_driver.hh"

#include <algorithm>

namespace sap {

namespace {

/** The shape checks shared by HexBandSpec and HexIoSchedule. */
void
checkBandPair(const Band<Scalar> &abar, const Band<Scalar> &bbar)
{
    SAP_ASSERT(abar.sub() == 0, "Ā must be an upper band");
    SAP_ASSERT(bbar.super() == 0, "B̄ must be a lower band");
    SAP_ASSERT(abar.super() == bbar.sub(),
               "Ā and B̄ must share the bandwidth");
    SAP_ASSERT(abar.rows() == abar.cols() &&
               bbar.rows() == bbar.cols() &&
               abar.rows() == bbar.rows(),
               "Ā and B̄ must be square of equal order");
}

} // namespace

void
HexBandSpec::validate() const
{
    SAP_ASSERT(abar != nullptr && bbar != nullptr, "missing bands");
    checkBandPair(*abar, *bbar);
}

HexIoSchedule
HexIoSchedule::build(const Band<Scalar> &abar, const Band<Scalar> &bbar)
{
    checkBandPair(abar, bbar);
    const Index w = abar.super() + 1;
    const Index N = abar.rows();
    // Row-major band storage (Band::raw()): Ā(i, k) at i·w + (k − i),
    // B̄(k, j) at k·w + (j − k) + w − 1.
    const Scalar *a = abar.raw();
    const Scalar *b = bbar.raw();

    HexIoSchedule s;
    s.horizon = 3 * (N - 1) + 2 * w - 2;
    s.aEvents = CycleCsr<AEvent>::build(s.horizon, [&](auto &&emit) {
        for (Index i = 0; i < N; ++i)
            for (Index k = i; k <= std::min(i + w - 1, N - 1); ++k)
                emit(i + 2 * k, AEvent{k - i, a[i * w + (k - i)]});
    });
    s.bEvents = CycleCsr<AEvent>::build(s.horizon, [&](auto &&emit) {
        for (Index j = 0; j < N; ++j)
            for (Index k = j; k <= std::min(j + w - 1, N - 1); ++k)
                emit(2 * k + j,
                     AEvent{k - j, b[k * w + (j - k) + w - 1]});
    });
    // Both c streams walk the in-band positions (i, j) in row order.
    auto positions = [&](auto &&at) {
        for (Index i = 0; i < N; ++i)
            for (Index j = std::max(Index{0}, i - w + 1);
                 j <= std::min(N - 1, i + w - 1); ++j)
                at(i, j);
    };
    s.cEvents = CycleCsr<CEvent>::build(s.horizon, [&](auto &&emit) {
        positions([&](Index i, Index j) {
            emit(i + j + std::max(i, j) + w - 1, CEvent{i, j});
        });
    });
    s.oEvents = CycleCsr<CEvent>::build(s.horizon, [&](auto &&emit) {
        positions([&](Index i, Index j) {
            emit(i + j + std::min(i, j) + 2 * w - 2, CEvent{i, j});
        });
    });
    return s;
}

} // namespace sap
