/**
 * @file
 * Input scheduling and execution driver for band matrix-matrix
 * multiplication on the hexagonal array.
 *
 * Schedule (derived in DESIGN.md §4.4; 0-based cycles with a global
 * staging offset of w−1 so that all stream items can enter at the
 * array edges):
 *
 *   MAC for (i, j, k)  fires in PE (k−i, k−j) at τ = i+j+k + (w−1)
 *   a(i, k)  enters row r = k−i   at τ = i + 2k
 *   b(k, j)  enters col q = k−j   at τ = 2k + j
 *   c(i, j)  enters diagonal δ = j−i at τ = i + j + max(i,j) + w−1
 *   c(i, j)  exits after step       τ = i + j + min(i,j) + 2w−2
 *
 * The paper's step count T = 3w·p̄n̄m̄ + 4w − 5 counts from the first
 * useful MAC to the last exit (inclusive); the driver measures both
 * this and the raw edge-to-edge cycle count.
 */

#ifndef SAP_SIM_HEX_DRIVER_HH
#define SAP_SIM_HEX_DRIVER_HH

#include <algorithm>

#include "analysis/metrics.hh"
#include "base/logging.hh"
#include "base/types.hh"
#include "mat/band.hh"
#include "sim/hex_array.hh"

namespace sap {

/**
 * A band mat-mul problem in array-ready form: O = band(Ā·B̄) + I.
 *
 * The input band I and output band O are 2w−1 wide. Where I comes
 * from and where O goes are the driver's two callables: for a plain
 * product they read and write constant bands; for the DBT plan they
 * implement the Appendix composition (E or fed-back O values).
 */
struct HexBandSpec
{
    /** Upper band Ā (square, sub()==0, super()==w−1). */
    const Band<Scalar> *abar = nullptr;
    /** Lower band B̄ (square, sub()==w−1, super()==0). */
    const Band<Scalar> *bbar = nullptr;

    /** Array size = bandwidth. */
    Index w() const { return abar->super() + 1; }
    /** Scalar order N. */
    Index order() const { return abar->rows(); }

    /** Shape consistency checks (asserts on failure). */
    void validate() const;
};

/** Result of one hexagonal execution. */
struct HexRunResult
{
    /** Measured statistics; cycles uses the paper's convention
     *  (first MAC to last exit, inclusive). */
    RunStats stats;
    /** Raw edge-to-edge cycles executed. */
    Cycle totalCycles = 0;
    /** Cycle of the first useful MAC. */
    Cycle firstMac = -1;
    /** Cycle after which the last O item left the array. */
    Cycle lastExit = -1;
};

/** Last cycle of an order-@p N, width-@p w problem: the last exit. */
inline Cycle
hexHorizon(Index N, Index w)
{
    return 3 * (N - 1) + 2 * w - 2;
}

/**
 * Offsets d of the items (m, d) of one hex stream that arrive at
 * @p s = 3m + c·d, where 0 <= d <= dmax, m >= 0 and m + d <= N − 1:
 * every d in [first, last] with d ≡ c·s (mod 3), so stepping by 3
 * from first (c is 1 or 2). Empty when last < first.
 */
struct HexOffsets
{
    Index first = 0;
    Index last = -1;
};

inline HexOffsets
hexOffsets(Index N, Index dmax, Index c, Cycle s)
{
    const Index span = 3 * (N - 1) - s; // m + d <= N − 1
    if (s < 0 || span < 0)
        return {};
    return {(c * s) % 3, std::min({dmax, s / c, span / (3 - c)})};
}

/** Call f(d) for the offsets of @p o in descending order. */
template <typename F>
inline void
forEachOffsetDown(const HexOffsets &o, F &&f)
{
    if (o.last < o.first)
        return;
    for (Index d = o.first + (o.last - o.first) / 3 * 3; d >= o.first;
         d -= 3)
        f(d);
}

/** Call f(d) for the offsets of @p o, skipping 0, ascending. */
template <typename F>
inline void
forEachNonzeroOffsetUp(const HexOffsets &o, F &&f)
{
    for (Index d = o.first == 0 ? 3 : o.first; d <= o.last; d += 3)
        f(d);
}

// The stream events of cycle tau, enumerated from the schedule's
// closed forms (see the file comment) rather than stored: each
// enumerator visits only the positions that can fire on that cycle,
// in ascending i (a, c, o) or ascending j (b).

/** f(i, k) for each a(i, k) entering row k − i: τ = 3i + 2(k − i). */
template <typename F>
inline void
forEachHexAIn(Index N, Index w, Cycle tau, F &&f)
{
    forEachOffsetDown(hexOffsets(N, w - 1, 2, tau), [&](Index r) {
        const Index i = (tau - 2 * r) / 3;
        f(i, i + r);
    });
}

/** f(k, j) for each b(k, j) entering column k − j: τ = 3j + 2(k − j),
 *  the a stream mirrored. */
template <typename F>
inline void
forEachHexBIn(Index N, Index w, Cycle tau, F &&f)
{
    forEachHexAIn(N, w, tau, [&](Index j, Index k) { f(k, j); });
}

/**
 * f(i, j) for each I/O-band position with s = 3·min(i, j) + c·|j − i|,
 * in ascending i: the upper half (j ≥ i) in descending j − i, then
 * the lower half in ascending i − j.
 */
template <typename F>
inline void
forEachHexBandPosition(Index N, Index w, Index c, Cycle s, F &&f)
{
    const HexOffsets o = hexOffsets(N, w - 1, c, s);
    forEachOffsetDown(o, [&](Index d) {
        const Index m = (s - c * d) / 3;
        f(m, m + d);
    });
    forEachNonzeroOffsetUp(o, [&](Index d) {
        const Index m = (s - c * d) / 3;
        f(m + d, m);
    });
}

/** f(i, j) for each c(i, j) injected on diagonal j − i:
 *  τ − (w−1) = 3·min(i, j) + 2|j − i|. */
template <typename F>
inline void
forEachHexCIn(Index N, Index w, Cycle tau, F &&f)
{
    forEachHexBandPosition(N, w, 2, tau - (w - 1), f);
}

/** f(i, j) for each O-band position leaving diagonal j − i after
 *  cycle τ: τ − (2w−2) = 3·min(i, j) + |j − i|. */
template <typename F>
inline void
forEachHexOExit(Index N, Index w, Cycle tau, F &&f)
{
    forEachHexBandPosition(N, w, 1, tau - (2 * w - 2), f);
}

/**
 * Execute one band mat-mul problem on the hexagonal array, feeding
 * each cycle's stream events from the closed-form schedule and the
 * bands' raw storage.
 *
 * @param inputValue Scalar(Index i, Index j): the I-band value of
 *        position (i, j); called exactly once per in-band position,
 *        in nondecreasing injection-time order.
 * @param onOutput void(Index i, Index j, Scalar v, Cycle exit): the
 *        O-band value of (i, j) left the array after cycle `exit`.
 *
 * The callables are template parameters so that the per-event
 * routing inlines into the cycle loop.
 */
template <typename InputFn, typename OutputFn>
HexRunResult
runHexBandMatMul(const HexBandSpec &spec, InputFn &&inputValue,
                 OutputFn &&onOutput)
{
    spec.validate();
    const Index w = spec.w();
    const Index N = spec.order();
    // Row-major band storage (Band::raw()): Ā(i, k) at i·w + (k − i),
    // B̄(k, j) at k·w + (j − k) + w − 1.
    const Scalar *a = spec.abar->raw();
    const Scalar *b = spec.bbar->raw();
    HexArray array(w);

    const Cycle horizon = hexHorizon(N, w);

    HexRunResult res;
    for (Cycle tau = 0; tau <= horizon; ++tau) {
        forEachHexAIn(N, w, tau, [&](Index i, Index k) {
            array.setAIn(k - i, Sample::of(a[i * w + (k - i)]));
        });
        forEachHexBIn(N, w, tau, [&](Index k, Index j) {
            array.setBIn(k - j, Sample::of(b[k * w + (j - k) + w - 1]));
        });
        forEachHexCIn(N, w, tau, [&](Index i, Index j) {
            array.setCIn(j - i, Sample::of(inputValue(i, j)));
        });

        array.step();

        forEachHexOExit(N, w, tau, [&](Index i, Index j) {
            Sample s = array.cOut(j - i);
            SAP_ASSERT(s.valid, "missing output at (", i, ",", j,
                       ") cycle ", tau);
            onOutput(i, j, s.value, tau);
            res.lastExit = tau;
        });
    }

    res.totalCycles = horizon + 1;
    res.firstMac = array.firstMacCycle();
    res.stats.peCount = array.peCount();
    res.stats.usefulMacs = array.usefulMacs();
    // The paper's step count: from the first useful MAC to the
    // delivery of the last output through the exit-edge register
    // (one cycle after its final hop), both inclusive. Under this
    // convention the measurement reproduces T = 3w·p̄n̄m̄ + 4w − 5
    // exactly for every shape (see EXPERIMENTS.md).
    res.stats.cycles = (res.lastExit + 1) - res.firstMac + 1;
    return res;
}

} // namespace sap

#endif // SAP_SIM_HEX_DRIVER_HH
