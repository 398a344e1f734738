/**
 * @file
 * Tests of the cycle-accurate hexagonal array, the band mat-mul
 * driver, the spiral feedback topology (Fig. 5), the paper's time
 * formula T = 3w·p̄n̄m̄ + 4w − 5, the feedback delay classes and the
 * memory-element claims.
 */

#include <gtest/gtest.h>

#include "analysis/formulas.hh"
#include "dbt/matmul_plan.hh"
#include "mat/generate.hh"
#include "mat/ops.hh"
#include "sim/hex_array.hh"
#include "sim/hex_driver.hh"
#include "sim/spiral_feedback.hh"

namespace sap {
namespace {

TEST(HexArray, SinglePeMac)
{
    HexArray arr(1);
    arr.setAIn(0, Sample::of(3));
    arr.setBIn(0, Sample::of(4));
    arr.setCIn(0, Sample::of(10));
    arr.step();
    EXPECT_TRUE(arr.cOut(0).valid);
    EXPECT_EQ(arr.cOut(0).value, 22);
    EXPECT_EQ(arr.usefulMacs(), 1);
    EXPECT_EQ(arr.firstMacCycle(), 0);
}

TEST(HexArray, CPassesThroughWithoutOperands)
{
    HexArray arr(3);
    arr.setCIn(0, Sample::of(7)); // enters PE (0,0)
    arr.step();
    arr.step();
    arr.step();
    // After 3 steps it sits at the exit PE (2,2) unchanged.
    EXPECT_TRUE(arr.cOut(0).valid);
    EXPECT_EQ(arr.cOut(0).value, 7);
    EXPECT_EQ(arr.usefulMacs(), 0);
}

TEST(HexArray, DiagonalTransitTime)
{
    // A c item on diagonal δ traverses w − |δ| PEs.
    const Index w = 4;
    for (Index delta : {-3, -1, 0, 2, 3}) {
        HexArray arr(w);
        arr.setCIn(delta, Sample::of(5));
        Index hops = w - (delta >= 0 ? delta : -delta);
        for (Index t = 0; t < hops; ++t) {
            arr.step();
            if (t < hops - 1) {
                EXPECT_FALSE(arr.cOut(delta).valid)
                    << "delta=" << delta << " t=" << t;
            }
        }
        EXPECT_TRUE(arr.cOut(delta).valid) << "delta=" << delta;
    }
}

/** Run a plain band product O = band(Ā·B̄) + I through the driver. */
struct PlainHex
{
    Band<Scalar> abar;
    Band<Scalar> bbar;
    Dense<Scalar> iband;   // full-matrix holder of the I band
    Dense<Scalar> oband;   // collected outputs
    HexRunResult result;

    PlainHex(Index n_order, Index w, std::uint64_t seed)
        : abar(n_order, n_order, 0, w - 1),
          bbar(n_order, n_order, w - 1, 0),
          iband(n_order, n_order), oband(n_order, n_order)
    {
        Rng rng(seed);
        for (Index i = 0; i < n_order; ++i) {
            for (Index k = i; k <= std::min(i + w - 1, n_order - 1);
                 ++k)
                abar.ref(i, k) =
                    static_cast<Scalar>(rng.uniformInt(1, 9));
            for (Index j = std::max(Index{0}, i - w + 1); j <= i; ++j)
                bbar.ref(i, j) =
                    static_cast<Scalar>(rng.uniformInt(1, 9));
            for (Index j = std::max(Index{0}, i - w + 1);
                 j <= std::min(n_order - 1, i + w - 1); ++j)
                iband(i, j) = static_cast<Scalar>(rng.uniformInt(1, 9));
        }

        HexBandSpec spec;
        spec.abar = &abar;
        spec.bbar = &bbar;
        result = runHexBandMatMul(
            spec, [this](Index i, Index j) { return iband(i, j); },
            [this](Index i, Index j, Scalar v, Cycle) {
                oband(i, j) = v;
            });
    }
};

TEST(HexSchedule, AlignmentInvariantHoldsForEveryTriple)
{
    // Schedule invariant from hex_array.hh: at PE (r, q) on cycle τ
    // the streams can only combine samples of the unique triple
    // (i, j, k) with k−i = r, k−j = q, i+j+k = τ−(w−1). Inject a
    // single (a, b, c) triple at the documented edge entry times and
    // verify that the MAC fires exactly once, exactly at
    // τ = i+j+k+(w−1), and that the sum exits on diagonal j−i after
    // cycle i+j+min(i,j)+2w−2.
    const Index w = 3, n = 5;
    for (Index i = 0; i < n; ++i) {
        for (Index j = 0; j < n; ++j) {
            for (Index k = std::max(i, j);
                 k < std::min(n, std::min(i, j) + w); ++k) {
                const Cycle a_tau = i + 2 * k;
                const Cycle b_tau = 2 * k + j;
                const Cycle c_tau = i + j + std::max(i, j) + w - 1;
                const Cycle mac_tau = i + j + k + w - 1;
                const Cycle exit_tau =
                    i + j + std::min(i, j) + 2 * w - 2;
                const Index delta = j - i;

                HexArray arr(w);
                for (Cycle tau = 0; tau <= exit_tau; ++tau) {
                    if (tau == a_tau)
                        arr.setAIn(k - i, Sample::of(3));
                    if (tau == b_tau)
                        arr.setBIn(k - j, Sample::of(5));
                    if (tau == c_tau)
                        arr.setCIn(delta, Sample::of(100));
                    arr.step();
                    if (tau < exit_tau) {
                        EXPECT_FALSE(arr.cOut(delta).valid)
                            << "early exit at tau=" << tau << " for ("
                            << i << "," << j << "," << k << ")";
                    }
                }
                ASSERT_EQ(arr.usefulMacs(), 1)
                    << "(" << i << "," << j << "," << k << ")";
                EXPECT_EQ(arr.firstMacCycle(), mac_tau)
                    << "(" << i << "," << j << "," << k << ")";
                ASSERT_TRUE(arr.cOut(delta).valid);
                EXPECT_EQ(arr.cOut(delta).value, 115);
            }
        }
    }
}

TEST(HexSchedule, MisalignedOperandsNeverMac)
{
    // Corollary of the alignment invariant: operands injected one
    // cycle off the schedule can never meet, so no MAC may fire.
    const Index w = 3, i = 1, j = 2, k = 2;
    HexArray arr(w);
    const Cycle a_tau = i + 2 * k + 1; // one cycle late
    const Cycle b_tau = 2 * k + j;
    const Cycle c_tau = i + j + std::max(i, j) + w - 1;
    for (Cycle tau = 0; tau <= 4 * w + 12; ++tau) {
        if (tau == a_tau)
            arr.setAIn(k - i, Sample::of(3));
        if (tau == b_tau)
            arr.setBIn(k - j, Sample::of(5));
        if (tau == c_tau)
            arr.setCIn(j - i, Sample::of(100));
        arr.step();
    }
    EXPECT_EQ(arr.usefulMacs(), 0);
}

TEST(HexSchedule, ClosedFormsCoverEveryBandPositionOnce)
{
    // The closed-form enumerators must name every stream item exactly
    // once, at the cycle hex_driver.hh documents — a(i,k) at i+2k on
    // row k−i, b(k,j) at 2k+j on column k−j, c(i,j) in at
    // i+j+max(i,j)+w−1 and out at i+j+min(i,j)+2w−2 — never outside
    // [0, horizon], and within a cycle in ascending i (a, c, o) or
    // ascending j (b). Shapes include w = 1, N = 1 and N < w.
    for (Index w : {1, 2, 3, 5, 8}) {
        for (Index order : {Index{1}, w - 1, w, w + 1, 2 * w + 1,
                            4 * w - 1}) {
            if (order < 1)
                continue;
            SCOPED_TRACE(testing::Message() << "w=" << w
                                            << " N=" << order);
            const Cycle horizon = hexHorizon(order, w);
            ASSERT_EQ(horizon, 3 * (order - 1) + 2 * w - 2);
            Band<Scalar> abar(order, order, 0, w - 1);
            Band<Scalar> bbar(order, order, w - 1, 0);

            Dense<Scalar> a_seen(order, order), b_seen(order, order);
            Dense<Scalar> c_seen(order, order), o_seen(order, order);
            // Cycles past both ends must stay empty.
            for (Cycle t = -3 * w - 3; t <= horizon + 3 * w + 3; ++t) {
                const bool inside = t >= 0 && t <= horizon;
                Index prev = -1;
                forEachHexAIn(order, w, t, [&](Index i, Index k) {
                    ASSERT_TRUE(inside) << "t=" << t;
                    ASSERT_TRUE(abar.inBand(i, k)) << i << "," << k;
                    EXPECT_EQ(t, i + 2 * k);
                    EXPECT_GT(i, prev) << "a order at t=" << t;
                    prev = i;
                    a_seen(i, k) += 1;
                });
                prev = -1;
                forEachHexBIn(order, w, t, [&](Index k, Index j) {
                    ASSERT_TRUE(inside) << "t=" << t;
                    ASSERT_TRUE(bbar.inBand(k, j)) << k << "," << j;
                    EXPECT_EQ(t, 2 * k + j);
                    EXPECT_GT(j, prev) << "b order at t=" << t;
                    prev = j;
                    b_seen(k, j) += 1;
                });
                auto in_io = [&](Index i, Index j) {
                    return i >= 0 && j >= 0 && i < order &&
                           j < order && j - i > -w && j - i < w;
                };
                prev = -1;
                forEachHexCIn(order, w, t, [&](Index i, Index j) {
                    ASSERT_TRUE(inside) << "t=" << t;
                    ASSERT_TRUE(in_io(i, j)) << i << "," << j;
                    EXPECT_EQ(t, i + j + std::max(i, j) + w - 1);
                    EXPECT_GT(i, prev) << "c order at t=" << t;
                    prev = i;
                    c_seen(i, j) += 1;
                });
                prev = -1;
                forEachHexOExit(order, w, t, [&](Index i, Index j) {
                    ASSERT_TRUE(inside) << "t=" << t;
                    ASSERT_TRUE(in_io(i, j)) << i << "," << j;
                    EXPECT_EQ(t, i + j + std::min(i, j) + 2 * w - 2);
                    EXPECT_GT(i, prev) << "o order at t=" << t;
                    prev = i;
                    o_seen(i, j) += 1;
                });
            }

            for (Index i = 0; i < order; ++i) {
                for (Index j = 0; j < order; ++j) {
                    const bool in_io = j - i > -w && j - i < w;
                    EXPECT_EQ(c_seen(i, j), in_io ? 1 : 0)
                        << "c(" << i << "," << j << ")";
                    EXPECT_EQ(o_seen(i, j), in_io ? 1 : 0)
                        << "o(" << i << "," << j << ")";
                    EXPECT_EQ(a_seen(i, j), abar.inBand(i, j) ? 1 : 0)
                        << "a(" << i << "," << j << ")";
                    EXPECT_EQ(b_seen(i, j), bbar.inBand(i, j) ? 1 : 0)
                        << "b(" << i << "," << j << ")";
                }
            }
        }
    }
}

TEST(HexDriver, PlainBandProductMatchesOracle)
{
    for (Index w : {1, 2, 3, 4}) {
        for (Index order : {w, 2 * w + 1, 3 * w}) {
            PlainHex p(order, w, 70 + w * 10 + order);
            Dense<Scalar> expect =
                add(matMul(p.abar.toDense(), p.bbar.toDense()),
                    p.iband);
            // Outputs cover exactly the 2w−1 band; outside stays 0.
            for (Index i = 0; i < order; ++i) {
                for (Index j = 0; j < order; ++j) {
                    Index dlt = j - i;
                    if (dlt >= -(w - 1) && dlt <= w - 1) {
                        EXPECT_EQ(p.oband(i, j), expect(i, j))
                            << i << "," << j << " w=" << w;
                    } else {
                        EXPECT_EQ(p.oband(i, j), 0.0);
                    }
                }
            }
        }
    }
}

TEST(SpiralTopology, LoopsHaveExactlyWPes)
{
    // Fig. 5: the main diagonal self-loop and every sub/super pair
    // loop contain exactly w PEs.
    for (Index w : {1, 2, 3, 5, 8}) {
        SpiralFeedback fb(w);
        EXPECT_EQ(fb.loopCount(), w);
        for (Index loop = 0; loop < w; ++loop)
            EXPECT_EQ(fb.loopPeCount(loop), w)
                << "w=" << w << " loop=" << loop;
    }
}

TEST(SpiralTopology, PairingIsDeltaMinusW)
{
    const Index w = 5;
    for (Index delta = 1; delta < w; ++delta)
        EXPECT_EQ(SpiralFeedback::loopOf(w, delta),
                  SpiralFeedback::loopOf(w, delta - w));
    EXPECT_EQ(SpiralFeedback::loopOf(w, 0), 0);
}

/** Parameterized full-plan correctness on the hex array. */
class HexPlanCorrectness
    : public ::testing::TestWithParam<
          std::tuple<Index, Index, Index, Index>>
{};

TEST_P(HexPlanCorrectness, CycleSimEqualsOracle)
{
    auto [n, p, m, w] = GetParam();
    Dense<Scalar> a = randomIntDense(n, p, 80 + n * 3 + p + m + w);
    Dense<Scalar> b = randomIntDense(p, m, 81 + n + p * 5 + m + w);
    Dense<Scalar> e = randomIntDense(n, m, 82 + n + p + m * 7 + w);

    MatMulPlan plan(a, b, w);
    MatMulPlanResult r = plan.run(e);
    EXPECT_EQ(maxAbsDiff(r.c, matMulAdd(a, b, e)), 0.0)
        << "n=" << n << " p=" << p << " m=" << m << " w=" << w;
    EXPECT_TRUE(r.feedback->topologyRespected());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HexPlanCorrectness,
    ::testing::Values(
        std::make_tuple(1, 1, 1, 1), std::make_tuple(2, 2, 2, 2),
        std::make_tuple(4, 4, 4, 2), std::make_tuple(6, 6, 9, 3),
        std::make_tuple(3, 3, 3, 3), std::make_tuple(6, 3, 3, 3),
        std::make_tuple(3, 6, 3, 3), std::make_tuple(3, 3, 6, 3),
        std::make_tuple(6, 4, 8, 2), std::make_tuple(5, 7, 4, 3),
        std::make_tuple(9, 6, 6, 3), std::make_tuple(8, 8, 8, 4)));

TEST(HexPlan, TimeFormulaHolds)
{
    // T = 3w·p̄n̄m̄ + 4w − 5, measured from first MAC to last exit.
    for (Index w : {1, 2, 3, 4}) {
        for (Index nbar : {1, 2}) {
            for (Index pbar : {1, 2}) {
                for (Index mbar : {1, 2, 3}) {
                    Dense<Scalar> a = randomIntDense(nbar * w, pbar * w,
                                                     90 + w);
                    Dense<Scalar> b = randomIntDense(pbar * w, mbar * w,
                                                     91 + w);
                    MatMulPlan plan(a, b, w);
                    MatMulPlanResult r =
                        plan.run(Dense<Scalar>(nbar * w, mbar * w));
                    EXPECT_EQ(r.stats.cycles,
                              formulas::tMatMul(w, pbar, nbar, mbar))
                        << "w=" << w << " n̄=" << nbar << " p̄=" << pbar
                        << " m̄=" << mbar;
                }
            }
        }
    }
}

TEST(HexPlan, RegularFeedbackDelaysMatchPaper)
{
    // Regular pair delays equal w; main-diagonal delays equal 2w.
    for (Index w : {2, 3, 4}) {
        Dense<Scalar> a = randomIntDense(2 * w, 2 * w, 95 + w);
        Dense<Scalar> b = randomIntDense(2 * w, 2 * w, 96 + w);
        MatMulPlan plan(a, b, w);
        MatMulPlanResult r = plan.run(Dense<Scalar>(2 * w, 2 * w));
        const SpiralFeedback &fb = *r.feedback;
        ASSERT_FALSE(fb.mainDiagDelays().empty());
        for (Cycle dly : fb.mainDiagDelays())
            EXPECT_EQ(dly, 2 * w);
        ASSERT_FALSE(fb.pairDelays().empty());
        for (Cycle dly : fb.pairDelays())
            EXPECT_EQ(dly, formulas::hexRegularDelay(w));
    }
}

TEST(HexPlan, IrregularDelaysMatchDerivedFormulas)
{
    // Our schedule realizes the two irregular classes with delays
    //   U/L chain restart: 3w(n̄−1)p̄ + w
    //   L-last (C_{n̄−1,0}): 3w·n̄p̄(m̄−1) + w
    // (equal to the paper's 6(w−1)(n̄−1)p̄+w and 6n̄p̄(m̄−1)(w−1)+w at
    // w = 2; see EXPERIMENTS.md for the convention discussion).
    const Index w = 2, nbar = 3, pbar = 2, mbar = 3;
    Dense<Scalar> a = randomIntDense(nbar * w, pbar * w, 97);
    Dense<Scalar> b = randomIntDense(pbar * w, mbar * w, 98);
    MatMulPlan plan(a, b, w);
    MatMulPlanResult r = plan.run(Dense<Scalar>(nbar * w, mbar * w));
    const SpiralFeedback &fb = *r.feedback;

    Cycle restart = 3 * w * (nbar - 1) * pbar + w;
    Cycle llast = 3 * w * nbar * pbar * (mbar - 1) + w;
    ASSERT_FALSE(fb.irregularDelays().empty());
    for (Cycle dly : fb.irregularDelays())
        EXPECT_TRUE(dly == restart || dly == llast) << dly;
    // Both classes occur.
    EXPECT_NE(std::count(fb.irregularDelays().begin(),
                         fb.irregularDelays().end(), restart), 0);
    EXPECT_NE(std::count(fb.irregularDelays().begin(),
                         fb.irregularDelays().end(), llast), 0);
    // At w = 2 the paper's published expressions coincide exactly.
    EXPECT_EQ(restart, formulas::hexDelayU0j(w, nbar, pbar));
    EXPECT_EQ(llast, formulas::hexDelayLlast(w, nbar, pbar, mbar));
}

TEST(HexPlan, UtilizationApproachesOneThird)
{
    const Index w = 2;
    Dense<Scalar> a = randomIntDense(8, 8, 99);
    Dense<Scalar> b = randomIntDense(8, 8, 100);
    MatMulPlan plan(a, b, w); // p̄n̄m̄ = 64
    MatMulPlanResult r = plan.run(Dense<Scalar>(8, 8));
    double e_formula = formulas::eMatMul(w, 4, 4, 4);
    EXPECT_GT(r.stats.utilization(), 0.8 * e_formula);
    EXPECT_LT(r.stats.utilization(), 1.0 / 3.0 + 0.02);
}

TEST(HexPlan, MemoryElementsScaleAsPaperClaims)
{
    // Regular storage: main-diagonal loop holds ~2w values, pair
    // loops ~w; the irregular pool grows as Θ(w²).
    for (Index w : {2, 3, 4}) {
        Index size = 2 * w;
        Dense<Scalar> a = randomIntDense(size, size, 101 + w);
        Dense<Scalar> b = randomIntDense(size, 3 * w, 102 + w);
        MatMulPlan plan(a, b, w);
        MatMulPlanResult r =
            plan.run(Dense<Scalar>(size, 3 * w));
        const SpiralFeedback &fb = *r.feedback;
        // A delay of D cycles implemented as a register chain needs
        // at most D registers; peaks cannot exceed the delay bound
        // and must stay within the paper's published counts.
        EXPECT_LE(fb.peakRegularOccupancy(0),
                  formulas::hexMemMainDiag(w));
        EXPECT_GE(fb.peakRegularOccupancy(0), 1);
        for (Index loop = 1; loop < w; ++loop) {
            EXPECT_LE(fb.peakRegularOccupancy(loop),
                      formulas::hexMemSubDiag(w) + 1)
                << "w=" << w << " loop=" << loop;
        }
    }
}

TEST(HexPlan, BlockLevelAndCycleLevelAgree)
{
    Dense<Scalar> a = randomIntDense(6, 6, 103);
    Dense<Scalar> b = randomIntDense(6, 9, 104);
    Dense<Scalar> e = randomIntDense(6, 9, 105);
    MatMulPlan plan(a, b, 3);
    EXPECT_EQ(maxAbsDiff(plan.run(e).c, plan.runBlockLevel(e).c), 0.0);
}

} // namespace
} // namespace sap
