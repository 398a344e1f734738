#include "sim/linear_driver.hh"

#include "base/logging.hh"
#include "sim/delay_line.hh"
#include "sim/linear_array.hh"

namespace sap {

void
BandMatVecSpec::validate() const
{
    SAP_ASSERT(abar != nullptr, "spec has no band matrix");
    SAP_ASSERT(abar->sub() == 0,
               "mat-vec band must be upper-triangular banded");
    Index w_ = w();
    SAP_ASSERT(abar->cols() == abar->rows() + w_ - 1,
               "band shape must be rows x (rows + w - 1), got ",
               abar->rows(), "x", abar->cols());
    SAP_ASSERT(xbar.size() == abar->cols(), "x̄ length ", xbar.size(),
               " != band cols ", abar->cols());
    SAP_ASSERT(static_cast<Index>(bIsExternal.size()) == rows(),
               "bIsExternal size mismatch");
    SAP_ASSERT(static_cast<Index>(yIsFinal.size()) == rows(),
               "yIsFinal size mismatch");
    SAP_ASSERT(externalB.size() == rows(), "externalB size mismatch");
    // The first scalar row can never be fed back (nothing precedes it).
    for (Index i = 0; i < std::min(rows(), w_); ++i)
        SAP_ASSERT(bIsExternal[i],
                   "row ", i, " wants feedback before any output");
}

namespace {

/**
 * Per-lane bookkeeping for (possibly interleaved) execution. A lane
 * runs band rows [row0, row0 + rows) of its spec; its lane-local
 * row i is band row row0 + i.
 */
struct Lane
{
    Lane(const BandMatVecSpec &s, Index off, Index first, Index count,
         Scalar *out, bool rec = false)
        : spec(&s), offset(off), row0(first), rows(count), ybar(out),
          record(rec)
    {
    }

    const BandMatVecSpec *spec;
    Index offset;             // cycle offset of this lane (0 or 1)
    Index row0;               // first band row
    Index rows;               // band rows run by this lane
    Scalar *ybar;             // ȳ of lane-local row i goes to ybar[i]
    Cycle observedDelay = -1; // measured feedback delay
    Cycle lastOutput = -1;    // completion cycle (0-based)
    Trace trace;
    bool record;
};

/** A lane over the whole band of @p spec, collecting into @p ybar. */
Lane
wholeLane(const BandMatVecSpec &spec, Index offset, Vec<Scalar> &ybar,
          bool record)
{
    ybar = Vec<Scalar>(spec.rows());
    return Lane(spec, offset, 0, spec.rows(), ybar.raw(), record);
}

/**
 * Shared execution engine for one or two interleaved lanes. With
 * @p pairs_ok set, also checks after every cycle that no PE pair
 * (2g, 2g+1) had both cells busy, clearing it on the first conflict.
 */
void
runLanes(Lane *lanes, std::size_t lane_count, LinearArray &array,
         DelayLine &fb_line, bool *pairs_ok = nullptr)
{
    const Index w = array.size();

    Cycle horizon = 0;
    for (std::size_t l = 0; l < lane_count; ++l) {
        Cycle last = 2 * (lanes[l].rows - 1) + 2 * w - 2 +
                     lanes[l].offset;
        horizon = std::max(horizon, last);
    }

    Sample fb_pending = Sample::bubble();
    for (Cycle tau = 0; tau <= horizon; ++tau) {
        for (std::size_t l = 0; l < lane_count; ++l) {
            Lane &lane = lanes[l];
            const BandMatVecSpec &spec = *lane.spec;
            const Index row0 = lane.row0;
            const Index rows = lane.rows;
            const Index cols = rows + w - 1;
            const Cycle t = tau - lane.offset;

            // x stream: x_j enters PE 0 at t = 2j.
            if (t >= 0 && t % 2 == 0 && t / 2 < cols) {
                Index j = t / 2;
                array.setXIn(Sample::of(spec.xbar[row0 + j]));
                if (lane.record)
                    lane.trace.add(tau, Port::XIn, j,
                                   spec.xbar[row0 + j]);
            }

            // y stream: b̄_i enters PE w-1 at t = 2i + w - 1.
            Cycle ty = t - (w - 1);
            if (ty >= 0 && ty % 2 == 0 && ty / 2 < rows) {
                Index i = ty / 2;
                if (spec.bIsExternal[row0 + i]) {
                    array.setYIn(Sample::of(spec.externalB[row0 + i]));
                    if (lane.record)
                        lane.trace.add(tau, Port::BIn, i,
                                       spec.externalB[row0 + i]);
                } else {
                    SAP_ASSERT(fb_pending.valid,
                               "feedback bubble at row ", i,
                               " cycle ", tau);
                    array.setYIn(fb_pending);
                    // ȳ_{i-w} was computed at 2(i-w)+2w-2 (+offset);
                    // it re-enters (as a wire input) now.
                    Cycle computed = 2 * (i - w) + 2 * w - 2 +
                                     lane.offset;
                    Cycle delay = tau - computed - 1;
                    if (lane.observedDelay < 0)
                        lane.observedDelay = delay;
                    SAP_ASSERT(lane.observedDelay == delay,
                               "feedback delay must be constant");
                    if (lane.record)
                        lane.trace.add(tau, Port::FbIn, i,
                                       fb_pending.value);
                }
            }

            // a coefficients: a(i, i+d) of the lane's own rows
            // into PE w−1−d, read from the row-major band storage
            // (Band::raw()) at (row0 + i)·w + d.
            const Scalar *a = spec.abar->raw() + row0 * w;
            forEachLinearFiring(w, rows, t, [&](Index p, Index i) {
                array.setAIn(p, Sample::of(a[i * w + (w - 1 - p)]));
            });
        }

        array.step();
        if (pairs_ok && *pairs_ok) {
            const std::uint8_t *busy = array.lastActivity().data();
            for (Index c = 0; c + 1 < w; c += 2) {
                if (busy[c] && busy[c + 1]) {
                    *pairs_ok = false;
                    break;
                }
            }
        }
        Sample out = array.yOut();

        for (std::size_t l = 0; l < lane_count; ++l) {
            Lane &lane = lanes[l];
            const Cycle t = tau - lane.offset;
            Cycle to = t - (2 * w - 2);
            if (to >= 0 && to % 2 == 0 && to / 2 < lane.rows) {
                Index i = to / 2;
                SAP_ASSERT(out.valid, "missing output for row ", i,
                           " at cycle ", tau);
                lane.ybar[i] = out.value;
                lane.lastOutput = tau;
                if (lane.record)
                    lane.trace.add(tau, Port::YOut, i, out.value);
            }
        }

        // Feedback path: everything that leaves the array enters the
        // register chain; the schedule decides what gets reused.
        fb_pending = fb_line.shift(out);
    }
}

/** Stats and feedback measurements of one lane. */
LinearRunResult
makeResult(Lane &lane, Vec<Scalar> &&ybar, const LinearArray &array,
           Index fb_regs)
{
    LinearRunResult res;
    res.ybar = std::move(ybar);
    res.stats.cycles = lane.lastOutput + 1; // 0-based -> step count
    res.stats.peCount = array.size();
    // Every in-band element fires exactly one MAC.
    res.stats.usefulMacs = lane.rows * array.size();
    res.observedFeedbackDelay = lane.observedDelay;
    res.feedbackRegisters = fb_regs;
    res.trace = std::move(lane.trace);
    return res;
}

/** One problem on a fresh array, optionally checking PE pairs. */
LinearRunResult
runSingle(const BandMatVecSpec &spec, bool record_trace,
          bool *pairs_ok)
{
    spec.validate();
    const Index w = spec.w();
    LinearArray array(w);
    DelayLine fb_line(w);

    Vec<Scalar> ybar;
    Lane lane = wholeLane(spec, 0, ybar, record_trace);
    runLanes(&lane, 1, array, fb_line, pairs_ok);

    SAP_ASSERT(array.usefulMacs() == spec.rows() * w,
               "MAC count mismatch: ", array.usefulMacs(), " vs ",
               spec.rows() * w);
    return makeResult(lane, std::move(ybar), array, fb_line.depth());
}

} // namespace

LinearRunResult
runBandMatVec(const BandMatVecSpec &spec, bool record_trace)
{
    return runSingle(spec, record_trace, nullptr);
}

LinearRunResult
runBandMatVecCheckingPairs(const BandMatVecSpec &spec,
                           bool &conflictFree)
{
    conflictFree = true;
    return runSingle(spec, false, &conflictFree);
}

InterleavedRunResult
runInterleaved(const BandMatVecSpec &first, const BandMatVecSpec &second)
{
    first.validate();
    second.validate();
    SAP_ASSERT(first.w() == second.w(),
               "interleaved problems must share the array size");
    const Index w = first.w();
    LinearArray array(w);
    DelayLine fb_line(w);

    Vec<Scalar> y1, y2;
    Lane lanes[2] = {wholeLane(first, 0, y1, false),
                     wholeLane(second, 1, y2, false)};
    runLanes(lanes, 2, array, fb_line);

    InterleavedRunResult res;
    res.first = makeResult(lanes[0], std::move(y1), array,
                           fb_line.depth());
    res.second = makeResult(lanes[1], std::move(y2), array,
                            fb_line.depth());
    res.combined.cycles =
        std::max(lanes[0].lastOutput, lanes[1].lastOutput) + 1;
    res.combined.peCount = w;
    res.combined.usefulMacs = array.usefulMacs();
    SAP_ASSERT(res.combined.usefulMacs ==
                   (first.rows() + second.rows()) * w,
               "interleaved MAC count mismatch");
    return res;
}

LinearRunResult
runSplitBandMatVec(const BandMatVecSpec &spec, Index cut)
{
    spec.validate();
    const Index w = spec.w();
    const Index rows = spec.rows();
    SAP_ASSERT(cut > 0 && cut < rows, "split row ", cut,
               " outside (0, ", rows, ")");
    // The second lane starts a fresh feedback chain, exactly like
    // the first row of a whole problem.
    for (Index i = cut; i < std::min(rows, cut + w); ++i)
        SAP_ASSERT(spec.bIsExternal[i],
                   "row ", i, " wants feedback before any output");
    LinearArray array(w);
    DelayLine fb_line(w);

    Vec<Scalar> ybar(rows);
    Lane lanes[2] = {Lane(spec, 0, 0, cut, ybar.raw()),
                     Lane(spec, 1, cut, rows - cut, ybar.raw() + cut)};
    runLanes(lanes, 2, array, fb_line);

    LinearRunResult res = makeResult(lanes[0], std::move(ybar), array,
                                     fb_line.depth());
    res.stats.cycles =
        std::max(lanes[0].lastOutput, lanes[1].lastOutput) + 1;
    res.stats.usefulMacs = array.usefulMacs();
    SAP_ASSERT(res.stats.usefulMacs == rows * w,
               "interleaved MAC count mismatch");
    return res;
}

} // namespace sap
