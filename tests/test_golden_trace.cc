/**
 * @file
 * Golden-trace regression tests: the port-level schedules of checked-
 * in CSV traces (tests/data/) are re-simulated and diffed, so any
 * change to the linear array's I/O schedule shows up as a reviewable
 * CSV diff instead of a silent behavior shift.
 *
 * The workloads avoid RNG entirely (coordinate-coded matrices,
 * index-derived vectors): the goldens are identical on every
 * platform and standard library.
 *
 * The hexagonal array has no port trace, so its golden pins the
 * run's observable outcome instead: the bits of C, the measured
 * stats, and every feedback delay and storage peak the spiral
 * harness records (a text file, one quantity per line).
 *
 * Regenerating after an *intentional* schedule change:
 *   SAP_REGEN_GOLDEN=1 ./build/tests/test_golden_trace
 * then review and commit the rewritten files under tests/data/.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "dbt/matmul_plan.hh"
#include "engine/registry.hh"
#include "mat/generate.hh"
#include "sim/trace.hh"

#ifndef SAP_TEST_DATA_DIR
#error "SAP_TEST_DATA_DIR must point at tests/data"
#endif

namespace sap {
namespace {

/** Deterministic mat-vec plan for one golden shape. */
EnginePlan
goldenPlan(Index n, Index m, Index w)
{
    Dense<Scalar> a = coordinateCoded(n, m);
    Vec<Scalar> x(m), b(n);
    for (Index i = 0; i < m; ++i)
        x[i] = static_cast<Scalar>(i + 1);
    for (Index i = 0; i < n; ++i)
        b[i] = static_cast<Scalar>(100 + i);
    EnginePlan plan = EnginePlan::matVec(a, x, b, w);
    plan.recordTrace = true;
    return plan;
}

/**
 * Deterministic trisolve plan: unit diagonal and small RNG-free
 * coefficients keep every intermediate an exact (and small)
 * integer on every platform.
 */
EnginePlan
goldenTriPlan(Index n, Index w)
{
    Dense<Scalar> l(n, n);
    for (Index i = 0; i < n; ++i) {
        for (Index j = 0; j < i; ++j)
            l(i, j) = static_cast<Scalar>((i + j) % 3 + 1);
        l(i, i) = 1;
    }
    Vec<Scalar> b(n);
    for (Index i = 0; i < n; ++i)
        b[i] = static_cast<Scalar>(i + 1);
    EnginePlan plan = EnginePlan::triSolve(l, b, w);
    plan.recordTrace = true;
    return plan;
}

/** Deterministic mesh mat-mul plan (coordinate-coded operands). */
EnginePlan
goldenMeshPlan(Index n, Index p, Index m, Index w)
{
    Dense<Scalar> e(n, m);
    for (Index i = 0; i < n; ++i)
        for (Index j = 0; j < m; ++j)
            e(i, j) = static_cast<Scalar>(10 * (i + 1) + j);
    EnginePlan plan = EnginePlan::matMul(
        coordinateCoded(n, p), coordinateCoded(p, m), e, w);
    plan.recordTrace = true;
    return plan;
}

void
checkGoldenTrace(const std::string &file, const std::string &engine,
                 const EnginePlan &plan)
{
    const std::string path =
        std::string(SAP_TEST_DATA_DIR) + "/" + file;
    EngineRunResult r = makeEngine(engine)->run(plan);
    ASSERT_FALSE(r.trace.empty());

    if (std::getenv("SAP_REGEN_GOLDEN") != nullptr) {
        std::ofstream os(path);
        ASSERT_TRUE(os.good()) << "cannot write " << path;
        writeCsv(os, r.trace);
    }

    std::ifstream is(path);
    ASSERT_TRUE(is.good())
        << "missing golden " << path
        << " (generate with SAP_REGEN_GOLDEN=1)";
    std::stringstream buf;
    buf << is.rdbuf();
    Trace golden = traceFromCsv(buf.str());

    TraceDiff diff = diffTraces(golden, r.trace);
    EXPECT_TRUE(diff.identical)
        << diff.mismatches << " schedule mismatches vs " << file
        << "; first: "
        << (diff.lines.empty() ? std::string("?") : diff.lines[0]);
}

void
checkGolden(const std::string &file, Index n, Index m, Index w)
{
    checkGoldenTrace(file, "linear", goldenPlan(n, m, w));
}

TEST(GoldenTrace, LinearW3Square)
{
    // The paper's worked example shape: 6×6 on a w=3 array.
    checkGolden("trace_linear_w3_n6_m6.csv", 6, 6, 3);
}

TEST(GoldenTrace, LinearW4PaddedRectangular)
{
    // Non-multiple dimensions exercise the zero-padding schedule.
    checkGolden("trace_linear_w4_n5_m13.csv", 5, 13, 4);
}

TEST(GoldenTrace, TriW3Padded)
{
    // n = 7 on a w = 3 array: three diagonal blocks, padded last
    // block, two panel updates between them.
    checkGoldenTrace("trace_tri_w3_n7.csv", "tri",
                     goldenTriPlan(7, 3));
}

TEST(GoldenTrace, MeshW2PaddedRectangular)
{
    // 4×5·5×3 on a 2×2 mesh: all three block counts differ and the
    // padding path is exercised.
    checkGoldenTrace("trace_mesh_w2_n4_p5_m3.csv", "mesh",
                     goldenMeshPlan(4, 5, 3, 2));
}

/**
 * Real-valued, RNG-free operand: every element is a correctly
 * rounded quotient, so the bits are the same on every IEEE-754
 * platform and the golden pins the accumulation order exactly.
 */
Dense<Scalar>
goldenRealDense(Index rows, Index cols, Index salt)
{
    Dense<Scalar> d(rows, cols);
    for (Index i = 0; i < rows; ++i)
        for (Index j = 0; j < cols; ++j)
            d(i, j) = static_cast<Scalar>(
                          (13 * i + 7 * j + salt) % 17 - 8) / 7.0;
    return d;
}

/** One "name v0 v1 ..." line of the hex golden. */
template <typename T>
void
putList(std::ostream &os, const char *name, const std::vector<T> &v)
{
    os << name << ' ' << v.size();
    for (const T &x : v)
        os << ' ' << x;
    os << '\n';
}

/** The observable outcome of one hex plan run, as golden text. */
std::string
renderHexRun(const MatMulPlanResult &r, Index w)
{
    std::ostringstream os;
    os << "c " << r.c.rows() << ' ' << r.c.cols() << '\n';
    for (Index i = 0; i < r.c.rows(); ++i) {
        for (Index j = 0; j < r.c.cols(); ++j) {
            std::uint64_t bits;
            std::memcpy(&bits, &r.c(i, j), sizeof bits);
            char hex[17];
            std::snprintf(hex, sizeof hex, "%016" PRIx64, bits);
            os << (j == 0 ? "" : " ") << hex;
        }
        os << '\n';
    }
    os << "stats.cycles " << r.stats.cycles << '\n';
    os << "stats.peCount " << r.stats.peCount << '\n';
    os << "stats.usefulMacs " << r.stats.usefulMacs << '\n';
    os << "totalCycles " << r.totalCycles << '\n';
    const SpiralFeedback &fb = *r.feedback;
    putList(os, "mainDiagDelays", fb.mainDiagDelays());
    putList(os, "pairDelays", fb.pairDelays());
    putList(os, "irregularDelays", fb.irregularDelays());
    std::vector<Index> peaks;
    for (Index loop = 0; loop < w; ++loop)
        peaks.push_back(fb.peakRegularOccupancy(loop));
    putList(os, "peakRegularOccupancy", peaks);
    os << "peakIrregularOccupancy " << fb.peakIrregularOccupancy()
       << '\n';
    os << "transferCount " << fb.transferCount() << '\n';
    return os.str();
}

TEST(GoldenTrace, HexW3Padded)
{
    // 5×4·4×7 on a 3×3 hex array: n̄ = 2, p̄ = 2, m̄ = 3, so every
    // dimension is padded and both irregular feedback classes occur.
    const Index w = 3;
    MatMulPlan plan(goldenRealDense(5, 4, 1), goldenRealDense(4, 7, 5),
                    w);
    const std::string got =
        renderHexRun(plan.run(goldenRealDense(5, 7, 11)), w);

    const std::string path =
        std::string(SAP_TEST_DATA_DIR) + "/golden_hex_w3_n5_p4_m7.txt";
    if (std::getenv("SAP_REGEN_GOLDEN") != nullptr) {
        std::ofstream os(path);
        ASSERT_TRUE(os.good()) << "cannot write " << path;
        os << got;
    }
    std::ifstream is(path);
    ASSERT_TRUE(is.good())
        << "missing golden " << path
        << " (generate with SAP_REGEN_GOLDEN=1)";
    std::stringstream buf;
    buf << is.rdbuf();

    std::istringstream want_lines(buf.str()), got_lines(got);
    std::string want_line, got_line;
    int line = 0;
    while (std::getline(want_lines, want_line)) {
        ++line;
        ASSERT_TRUE(std::getline(got_lines, got_line))
            << "run ends before golden line " << line;
        EXPECT_EQ(got_line, want_line) << "golden line " << line;
    }
    EXPECT_FALSE(std::getline(got_lines, got_line))
        << "run has lines past the golden's " << line;
}

} // namespace
} // namespace sap
