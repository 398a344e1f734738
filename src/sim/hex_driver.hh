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

#include <utility>

#include "analysis/metrics.hh"
#include "base/logging.hh"
#include "base/types.hh"
#include "mat/band.hh"
#include "sim/cycle_csr.hh"
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

/**
 * Precomputed per-cycle I/O event lists of one (Ā, B̄) pair: which
 * a/b values enter which ports and which c positions enter/exit, by
 * cycle. Everything here depends only on the bands (never on E or
 * the feedback values), so a reusable plan builds the schedule once
 * and every execution streams it. Each stream is one CSR table
 * (sim/cycle_csr.hh); within a cycle, events keep ascending (i, k)
 * or (i, j) order.
 */
struct HexIoSchedule
{
    struct AEvent
    {
        Index port;   ///< row (a) or column (b) edge port
        Scalar value; ///< band element
    };
    struct CEvent
    {
        Index i, j; ///< scalar O/I-band position
    };

    Cycle horizon = -1; ///< last scheduled cycle
    CycleCsr<AEvent> aEvents; ///< a(i, k) at τ = i + 2k, row k−i
    CycleCsr<AEvent> bEvents; ///< b(k, j) at τ = 2k + j, column k−j
    CycleCsr<CEvent> cEvents; ///< I-band injections
    CycleCsr<CEvent> oEvents; ///< O-band extractions (exit order)

    /** Build from the band pair (validated like HexBandSpec). */
    static HexIoSchedule build(const Band<Scalar> &abar,
                               const Band<Scalar> &bbar);
};

/**
 * Execute one band mat-mul problem on the hexagonal array with a
 * prebuilt event schedule.
 *
 * @param inputValue Scalar(Index i, Index j): the I-band value of
 *        position (i, j); called exactly once per in-band position,
 *        in nondecreasing injection-time order.
 * @param onOutput void(Index i, Index j, Scalar v, Cycle exit): the
 *        O-band value of (i, j) left the array after cycle `exit`.
 * @pre @p sched was built from @p spec's bands (spot-checked by
 *      shape assertions).
 *
 * The callables are template parameters so that the per-event
 * routing inlines into the cycle loop.
 */
template <typename InputFn, typename OutputFn>
HexRunResult
runHexBandMatMul(const HexIoSchedule &sched, const HexBandSpec &spec,
                 InputFn &&inputValue, OutputFn &&onOutput)
{
    spec.validate();
    const Index w = spec.w();
    const Index N = spec.order();
    SAP_ASSERT(sched.horizon == 3 * (N - 1) + 2 * w - 2,
               "schedule was built for a different problem");
    HexArray array(w);

    const Cycle horizon = sched.horizon;

    HexRunResult res;
    for (Cycle tau = 0; tau <= horizon; ++tau) {
        for (const HexIoSchedule::AEvent *ev = sched.aEvents.begin(tau);
             ev != sched.aEvents.end(tau); ++ev)
            array.setAIn(ev->port, Sample::of(ev->value));
        for (const HexIoSchedule::AEvent *ev = sched.bEvents.begin(tau);
             ev != sched.bEvents.end(tau); ++ev)
            array.setBIn(ev->port, Sample::of(ev->value));
        for (const HexIoSchedule::CEvent *ev = sched.cEvents.begin(tau);
             ev != sched.cEvents.end(tau); ++ev)
            array.setCIn(ev->j - ev->i,
                         Sample::of(inputValue(ev->i, ev->j)));

        array.step();

        for (const HexIoSchedule::CEvent *ev = sched.oEvents.begin(tau);
             ev != sched.oEvents.end(tau); ++ev) {
            Sample s = array.cOut(ev->j - ev->i);
            SAP_ASSERT(s.valid, "missing output at (", ev->i, ",",
                       ev->j, ") cycle ", tau);
            onOutput(ev->i, ev->j, s.value, tau);
            res.lastExit = tau;
        }
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

/** Same, building the event schedule from @p spec's bands first. */
template <typename InputFn, typename OutputFn>
HexRunResult
runHexBandMatMul(const HexBandSpec &spec, InputFn &&inputValue,
                 OutputFn &&onOutput)
{
    spec.validate();
    return runHexBandMatMul(
        HexIoSchedule::build(*spec.abar, *spec.bbar), spec,
        std::forward<InputFn>(inputValue),
        std::forward<OutputFn>(onOutput));
}

} // namespace sap

#endif // SAP_SIM_HEX_DRIVER_HH
