#include "engine/engine.hh"

#include "analysis/formulas.hh"
#include "base/error.hh"
#include "base/logging.hh"
#include "base/math_util.hh"
#include "baseline/block_no_feedback.hh"
#include "dbt/matmul_plan.hh"
#include "dbt/matvec_plan.hh"
#include "engine/registry.hh"
#include "sim/mesh_array.hh"
#include "solve/trisolve_plan.hh"

namespace sap {

std::string
problemKindName(ProblemKind k)
{
    switch (k) {
      case ProblemKind::MatVec:
        return "matvec";
      case ProblemKind::MatMul:
        return "matmul";
      case ProblemKind::TriSolve:
        return "trisolve";
    }
    SAP_PANIC("unknown ProblemKind ", static_cast<int>(k));
}

std::string
execModeName(ExecMode m)
{
    switch (m) {
      case ExecMode::Simulate:
        return "simulate";
      case ExecMode::Fast:
        return "fast";
      case ExecMode::Validate:
        return "validate";
    }
    SAP_PANIC("unknown ExecMode ", static_cast<int>(m));
}

bool
parseExecMode(const std::string &name, ExecMode *out)
{
    if (name == "simulate")
        *out = ExecMode::Simulate;
    else if (name == "fast")
        *out = ExecMode::Fast;
    else if (name == "validate")
        *out = ExecMode::Validate;
    else
        return false;
    return true;
}

EnginePlan
EnginePlan::matVec(Dense<Scalar> a, Vec<Scalar> x, Vec<Scalar> b,
                   Index w)
{
    EnginePlan p;
    p.kind = ProblemKind::MatVec;
    p.a = std::move(a);
    p.x = std::move(x);
    p.b = std::move(b);
    p.w = w;
    p.validate();
    return p;
}

EnginePlan
EnginePlan::matMul(Dense<Scalar> a, Dense<Scalar> bmat, Dense<Scalar> e,
                   Index w)
{
    EnginePlan p;
    p.kind = ProblemKind::MatMul;
    p.a = std::move(a);
    p.bmat = std::move(bmat);
    p.e = std::move(e);
    p.w = w;
    p.validate();
    return p;
}

EnginePlan
EnginePlan::matMul(Dense<Scalar> a, Dense<Scalar> bmat, Index w)
{
    Dense<Scalar> zero(a.rows(), bmat.cols());
    return matMul(std::move(a), std::move(bmat), std::move(zero), w);
}

EnginePlan
EnginePlan::triSolve(Dense<Scalar> l, Vec<Scalar> b, Index w)
{
    EnginePlan p;
    p.kind = ProblemKind::TriSolve;
    p.a = std::move(l);
    p.b = std::move(b);
    p.w = w;
    p.validate();
    return p;
}

std::string
EnginePlan::check() const
{
    if (w < 1)
        return "array size w must be >= 1";
    if (a.rows() <= 0 || a.cols() <= 0)
        return "empty matrix A";
    if (kind == ProblemKind::MatVec) {
        if (x.size() != a.cols())
            return "x length " + std::to_string(x.size()) +
                   " != A cols " + std::to_string(a.cols());
        if (b.size() != a.rows())
            return "b length " + std::to_string(b.size()) +
                   " != A rows " + std::to_string(a.rows());
    } else if (kind == ProblemKind::MatMul) {
        if (bmat.rows() != a.cols())
            return "B rows " + std::to_string(bmat.rows()) +
                   " != A cols " + std::to_string(a.cols());
        if (e.rows() != a.rows() || e.cols() != bmat.cols())
            return "E shape " + std::to_string(e.rows()) + "x" +
                   std::to_string(e.cols()) + " != " +
                   std::to_string(a.rows()) + "x" +
                   std::to_string(bmat.cols());
    } else {
        if (a.rows() != a.cols())
            return "L must be square, got " +
                   std::to_string(a.rows()) + "x" +
                   std::to_string(a.cols());
        if (b.size() != a.rows())
            return "b length " + std::to_string(b.size()) +
                   " != order " + std::to_string(a.rows());
        for (Index i = 0; i < a.rows(); ++i)
            if (a(i, i) == 0)
                return "zero diagonal at " + std::to_string(i);
    }
    if (mode == ExecMode::Fast && recordTrace)
        return "recordTrace requires simulate or validate mode";
    return {};
}

void
EnginePlan::validate() const
{
    std::string error = check();
    if (!error.empty())
        throw EngineError(error);
}

EngineInputs
EngineInputs::matVec(Vec<Scalar> x, Vec<Scalar> b)
{
    EngineInputs in;
    in.x = std::move(x);
    in.b = std::move(b);
    return in;
}

EngineInputs
EngineInputs::matMul(Dense<Scalar> e)
{
    EngineInputs in;
    in.e = std::move(e);
    return in;
}

EngineInputs
EngineInputs::triSolve(Vec<Scalar> b)
{
    EngineInputs in;
    in.b = std::move(b);
    return in;
}

EngineInputs
EngineInputs::of(const EnginePlan &plan)
{
    EngineInputs in;
    if (plan.kind == ProblemKind::MatVec) {
        in.x = plan.x;
        in.b = plan.b;
    } else if (plan.kind == ProblemKind::MatMul) {
        in.e = plan.e;
    } else {
        in.b = plan.b;
    }
    in.recordTrace = plan.recordTrace;
    in.mode = plan.mode;
    return in;
}

PreparedPlan::PreparedPlan(const EnginePlan &plan)
    : kind_(plan.kind), w_(plan.w), rows_(plan.a.rows()),
      cols_(plan.a.cols()),
      out_cols_(plan.kind == ProblemKind::MatMul ? plan.bmat.cols() : 0)
{
}

bool
PreparedPlan::sameShape(const EnginePlan &plan) const
{
    return plan.kind == kind_ && plan.w == w_ && plan.a.rows() == rows_ &&
           plan.a.cols() == cols_ &&
           (kind_ != ProblemKind::MatMul ||
            (plan.bmat.rows() == cols_ && plan.bmat.cols() == out_cols_));
}

void
PreparedPlan::validateInputs(const EngineInputs &in) const
{
    if (kind_ == ProblemKind::MatVec) {
        SAP_ASSERT(in.x.size() == cols_, "x length ", in.x.size(),
                   " != bound A cols ", cols_);
        SAP_ASSERT(in.b.size() == rows_, "b length ", in.b.size(),
                   " != bound A rows ", rows_);
    } else if (kind_ == ProblemKind::MatMul) {
        SAP_ASSERT(in.e.rows() == rows_ && in.e.cols() == out_cols_,
                   "E shape ", in.e.rows(), "x", in.e.cols(),
                   " != bound C shape ", rows_, "x", out_cols_);
    } else {
        SAP_ASSERT(in.b.size() == rows_, "b length ", in.b.size(),
                   " != bound order ", rows_);
    }
}

namespace {

/**
 * Fallback prepared representation: the whole EnginePlan, so that
 * engines which only implement run() still speak the prepared
 * protocol (they re-transform per request, but behave identically).
 */
class GenericPrepared : public PreparedPlan
{
  public:
    explicit GenericPrepared(const EnginePlan &p)
        : PreparedPlan(p), plan(p)
    {
    }

    bool
    bindsSameOperands(const EnginePlan &p) const override
    {
        return sameShape(p) && sameDenseBytes(plan.a, p.a) &&
               (p.kind != ProblemKind::MatMul ||
                sameDenseBytes(plan.bmat, p.bmat));
    }

    EnginePlan plan;
};

/** The linear family's prepared artifact: the DBT mat-vec plan. */
class MatVecPrepared : public PreparedPlan
{
  public:
    explicit MatVecPrepared(const EnginePlan &p)
        : PreparedPlan(p), plan(p.a, p.w)
    {
    }

    bool
    bindsSameOperands(const EnginePlan &p) const override
    {
        return sameShape(p) && plan.transform().holdsBytesOf(p.a);
    }

    MatVecPlan plan;
};

/** The hex family's prepared artifact: the DBT mat-mul plan. */
class MatMulPrepared : public PreparedPlan
{
  public:
    explicit MatMulPrepared(const EnginePlan &p)
        : PreparedPlan(p), plan(p.a, p.bmat, p.w)
    {
    }

    bool
    bindsSameOperands(const EnginePlan &p) const override
    {
        return sameShape(p) &&
               plan.transform().aBlocks().holdsBytesOf(p.a) &&
               plan.transform().bBlocks().holdsBytesOf(p.bmat);
    }

    MatMulPlan plan;
};

/** The mesh engine's prepared artifact: padded block partitions. */
class MeshPrepared : public PreparedPlan
{
  public:
    explicit MeshPrepared(const EnginePlan &p)
        : PreparedPlan(p), plan(p.a, p.bmat, p.w)
    {
    }

    bool
    bindsSameOperands(const EnginePlan &p) const override
    {
        return sameShape(p) && plan.holdsBytesOf(p.a, p.bmat);
    }

    MeshMatMulPlan plan;
};

/** The tri engine's prepared artifact: panels + diagonal blocks. */
class TriSolvePrepared : public PreparedPlan
{
  public:
    explicit TriSolvePrepared(const EnginePlan &p)
        : PreparedPlan(p), plan(p.a, p.w)
    {
    }

    /** L's entries right of the diagonal blocks are not part of the
     *  binding: the plan does not store them and the solve never
     *  reads them, so L's differing only there share one plan
     *  (TriSolvePlan::holdsBytesOf). */
    bool
    bindsSameOperands(const EnginePlan &p) const override
    {
        return sameShape(p) && plan.holdsBytesOf(p.a);
    }

    TriSolvePlan plan;
};

/** The no-feedback baseline's prepared artifact: per-block plans. */
class NoFeedbackPrepared : public PreparedPlan
{
  public:
    explicit NoFeedbackPrepared(const EnginePlan &p)
        : PreparedPlan(p), plan(p.a, p.w)
    {
    }

    bool
    bindsSameOperands(const EnginePlan &p) const override
    {
        return sameShape(p) && plan.holdsBytesOf(p.a);
    }

    BlockNoFeedbackPlan plan;
};

/** Checked downcast of a prepared plan to an engine's own type. */
template <typename T>
const T &
preparedAs(const PreparedPlan &prepared, const char *engine)
{
    const T *p = dynamic_cast<const T *>(&prepared);
    SAP_ASSERT(p != nullptr, engine,
               " engine got a foreign prepared plan");
    return *p;
}

/**
 * Validate-mode diff: every field an engine reports must agree
 * between the simulated and the fast execution — results bit-exactly
 * (the semantics path replays the array's accumulation order, so
 * even floating-point workloads must match to the last bit), stats
 * because the fast path derives them from the closed-form step
 * counts the sims are asserted against. Traces are exempt (fast mode
 * never produces one) and so is the feedback measurement object.
 */
void
diffOrThrow(const std::string &engine, const EngineRunResult &sim,
            const EngineRunResult &fast)
{
    auto fail = [&](const char *field) {
        throw EngineError("validate mode: " + engine +
                          " fast path diverged from the simulator in "
                          "field '" + field + "'");
    };
    if (fast.y.size() != sim.y.size() || !(fast.y == sim.y))
        fail("y");
    if (fast.c.rows() != sim.c.rows() ||
        fast.c.cols() != sim.c.cols() || !(fast.c == sim.c))
        fail("c");
    if (fast.stats.cycles != sim.stats.cycles)
        fail("stats.cycles");
    if (fast.stats.peCount != sim.stats.peCount)
        fail("stats.peCount");
    if (fast.stats.usefulMacs != sim.stats.usefulMacs)
        fail("stats.usefulMacs");
    if (fast.totalCycles != sim.totalCycles)
        fail("totalCycles");
    if (fast.feedbackDelay != sim.feedbackDelay)
        fail("feedbackDelay");
    if (fast.feedbackRegisters != sim.feedbackRegisters)
        fail("feedbackRegisters");
    if (fast.conflictFree != sim.conflictFree)
        fail("conflictFree");
    if (fast.topologyRespected != sim.topologyRespected)
        fail("topologyRespected");
}

/**
 * The per-engine mode switch: every engine's runPrepared() body is a
 * (sim, fast) lambda pair behind this dispatcher. Fast mode cannot
 * trace — the semantics path has no cycle timeline — so the
 * combination is rejected rather than silently dropping events.
 */
template <typename SimFn, typename FastFn>
EngineRunResult
dispatchMode(ExecMode mode, const std::string &engine,
             bool record_trace, const SimFn &sim, const FastFn &fast)
{
    switch (mode) {
      case ExecMode::Simulate:
        return sim();
      case ExecMode::Fast:
        if (record_trace)
            throw EngineError(
                engine +
                ": recordTrace requires simulate or validate mode");
        return fast();
      case ExecMode::Validate: {
        EngineRunResult s = sim();
        EngineRunResult f = fast();
        diffOrThrow(engine, s, f);
        return s;
      }
    }
    SAP_PANIC("unknown ExecMode ", static_cast<int>(mode));
}

} // namespace

std::shared_ptr<const PreparedPlan>
SystolicEngine::prepare(const EnginePlan &plan) const
{
    SAP_ASSERT(plan.kind == kind(), name(), " engine needs a ",
               problemKindName(kind()), " plan");
    return std::make_shared<GenericPrepared>(plan);
}

EngineRunResult
SystolicEngine::runPrepared(const PreparedPlan &prepared,
                            const EngineInputs &in) const
{
    const GenericPrepared &g =
        preparedAs<GenericPrepared>(prepared, name().c_str());
    prepared.validateInputs(in);
    EnginePlan request = g.plan;
    if (request.kind == ProblemKind::MatVec) {
        request.x = in.x;
        request.b = in.b;
    } else if (request.kind == ProblemKind::MatMul) {
        request.e = in.e;
    } else {
        request.b = in.b;
    }
    request.recordTrace = in.recordTrace;
    request.mode = in.mode;
    return run(request);
}

std::vector<EngineRunResult>
SystolicEngine::runMany(const EnginePlan &plan,
                        const std::vector<EngineInputs> &inputs) const
{
    std::shared_ptr<const PreparedPlan> prepared = prepare(plan);
    return runManyPrepared(*prepared, inputs);
}

std::vector<EngineRunResult>
SystolicEngine::runManyPrepared(
    const PreparedPlan &prepared,
    const std::vector<EngineInputs> &inputs) const
{
    std::vector<EngineRunResult> out;
    out.reserve(inputs.size());
    for (const EngineInputs &in : inputs)
        out.push_back(runPrepared(prepared, in));
    return out;
}

namespace {

/** y = A·x + b on the plain contraflow array. */
class LinearEngine : public SystolicEngine
{
  public:
    std::string name() const override { return "linear"; }
    ProblemKind kind() const override { return ProblemKind::MatVec; }
    std::string
    description() const override
    {
        return "contraflow linear array with w-register feedback";
    }

    std::shared_ptr<const PreparedPlan>
    prepare(const EnginePlan &plan) const override
    {
        SAP_ASSERT(plan.kind == kind(), "linear engine needs a "
                   "matvec plan");
        return std::make_shared<MatVecPrepared>(plan);
    }

    EngineRunResult
    runPrepared(const PreparedPlan &prepared,
                const EngineInputs &in) const override
    {
        const MatVecPrepared &p =
            preparedAs<MatVecPrepared>(prepared, "linear");
        prepared.validateInputs(in);
        auto fill = [](MatVecPlanResult r) {
            EngineRunResult out;
            out.y = std::move(r.y);
            out.stats = r.stats;
            out.totalCycles = r.stats.cycles;
            out.trace = std::move(r.trace);
            out.feedbackDelay = r.observedFeedbackDelay;
            out.feedbackRegisters = r.feedbackRegisters;
            return out;
        };
        return dispatchMode(
            in.mode, "linear", in.recordTrace,
            [&] { return fill(p.plan.run(in.x, in.b, in.recordTrace)); },
            [&] { return fill(p.plan.runSemantics(in.x, in.b)); });
    }

    EngineRunResult
    run(const EnginePlan &plan) const override
    {
        return runPrepared(*prepare(plan), EngineInputs::of(plan));
    }
};

/** Linear engine with 2:1 PE grouping (A = ⌈w/2⌉ physical PEs). */
class GroupedEngine : public SystolicEngine
{
  public:
    std::string name() const override { return "grouped"; }
    ProblemKind kind() const override { return ProblemKind::MatVec; }
    std::string
    description() const override
    {
        return "linear array with 2:1 PE grouping";
    }

    std::shared_ptr<const PreparedPlan>
    prepare(const EnginePlan &plan) const override
    {
        SAP_ASSERT(plan.kind == kind(), "grouped engine needs a "
                   "matvec plan");
        return std::make_shared<MatVecPrepared>(plan);
    }

    EngineRunResult
    runPrepared(const PreparedPlan &prepared,
                const EngineInputs &in) const override
    {
        const MatVecPrepared &p =
            preparedAs<MatVecPrepared>(prepared, "grouped");
        prepared.validateInputs(in);
        auto fill = [&p](GroupedRunResult r) {
            EngineRunResult out;
            out.y = p.plan.transform().extractY(r.logical.ybar);
            out.stats = r.grouped;
            out.totalCycles = r.grouped.cycles;
            out.trace = std::move(r.logical.trace);
            out.feedbackDelay = r.logical.observedFeedbackDelay;
            out.feedbackRegisters = r.logical.feedbackRegisters;
            out.conflictFree = r.conflictFree;
            return out;
        };
        return dispatchMode(
            in.mode, "grouped", in.recordTrace,
            [&] { return fill(p.plan.runGroupedPlan(in.x, in.b)); },
            [&] { return fill(p.plan.runGroupedSemantics(in.x, in.b)); });
    }

    EngineRunResult
    run(const EnginePlan &plan) const override
    {
        return runPrepared(*prepare(plan), EngineInputs::of(plan));
    }
};

/** Linear engine with the split-problem interleaving booster. */
class OverlappedEngine : public SystolicEngine
{
  public:
    std::string name() const override { return "overlapped"; }
    ProblemKind kind() const override { return ProblemKind::MatVec; }
    std::string
    description() const override
    {
        return "linear array, split problem interleaved on "
               "alternate cycles";
    }

    std::shared_ptr<const PreparedPlan>
    prepare(const EnginePlan &plan) const override
    {
        SAP_ASSERT(plan.kind == kind(), "overlapped engine needs a "
                   "matvec plan");
        // The split cuts between block rows; an input, not a bug.
        if (plan.w <= 0 || plan.a.rows() <= plan.w)
            throw EngineError("overlapped engine needs at least two "
                              "block rows (rows > w)");
        return std::make_shared<MatVecPrepared>(plan);
    }

    EngineRunResult
    runPrepared(const PreparedPlan &prepared,
                const EngineInputs &in) const override
    {
        const MatVecPrepared &p =
            preparedAs<MatVecPrepared>(prepared, "overlapped");
        prepared.validateInputs(in);
        auto fill = [](MatVecPlanResult r) {
            EngineRunResult out;
            out.y = std::move(r.y);
            out.stats = r.stats;
            out.totalCycles = r.stats.cycles;
            out.feedbackDelay = r.observedFeedbackDelay;
            out.feedbackRegisters = r.feedbackRegisters;
            return out;
        };
        return dispatchMode(
            in.mode, "overlapped", in.recordTrace,
            [&] { return fill(p.plan.runOverlapped(in.x, in.b)); },
            [&] {
                return fill(p.plan.runOverlappedSemantics(in.x, in.b));
            });
    }

    EngineRunResult
    run(const EnginePlan &plan) const override
    {
        return runPrepared(*prepare(plan), EngineInputs::of(plan));
    }
};

/**
 * C = A·B + E on the hexagonal array with spiral feedback. The
 * "spiral" variant additionally treats a topology violation as a
 * hard failure instead of a reported flag.
 */
class HexEngine : public SystolicEngine
{
  public:
    explicit HexEngine(bool strict) : strict_(strict) {}

    std::string name() const override { return strict_ ? "spiral" : "hex"; }
    ProblemKind kind() const override { return ProblemKind::MatMul; }
    std::string
    description() const override
    {
        return strict_
            ? "hexagonal array, spiral feedback topology audited"
            : "hexagonal array with spiral feedback";
    }

    std::shared_ptr<const PreparedPlan>
    prepare(const EnginePlan &plan) const override
    {
        SAP_ASSERT(plan.kind == kind(), name(), " engine needs a "
                   "matmul plan");
        return std::make_shared<MatMulPrepared>(plan);
    }

    EngineRunResult
    runPrepared(const PreparedPlan &prepared,
                const EngineInputs &in) const override
    {
        const MatMulPrepared &p =
            preparedAs<MatMulPrepared>(prepared, name().c_str());
        prepared.validateInputs(in);
        auto fill = [this](MatMulPlanResult r) {
            EngineRunResult out;
            out.c = std::move(r.c);
            out.stats = r.stats;
            out.totalCycles = r.totalCycles;
            out.feedback = r.feedback;
            out.topologyRespected =
                !r.feedback || r.feedback->topologyRespected();
            if (strict_)
                SAP_ASSERT(out.topologyRespected,
                           "spiral feedback topology violated");
            return out;
        };
        return dispatchMode(
            in.mode, name(), in.recordTrace,
            [&] { return fill(p.plan.run(in.e)); },
            [&] { return fill(p.plan.runSemantics(in.e)); });
    }

    EngineRunResult
    run(const EnginePlan &plan) const override
    {
        return runPrepared(*prepare(plan), EngineInputs::of(plan));
    }

  private:
    bool strict_;
};

/** C = A·B + E on the 2D output-stationary mesh. */
class MeshEngine : public SystolicEngine
{
  public:
    std::string name() const override { return "mesh"; }
    ProblemKind kind() const override { return ProblemKind::MatMul; }
    std::string
    description() const override
    {
        return "output-stationary w×w mesh, C resident in the PEs";
    }

    std::shared_ptr<const PreparedPlan>
    prepare(const EnginePlan &plan) const override
    {
        SAP_ASSERT(plan.kind == kind(), "mesh engine needs a "
                   "matmul plan");
        return std::make_shared<MeshPrepared>(plan);
    }

    EngineRunResult
    runPrepared(const PreparedPlan &prepared,
                const EngineInputs &in) const override
    {
        const MeshPrepared &p =
            preparedAs<MeshPrepared>(prepared, "mesh");
        prepared.validateInputs(in);
        auto fill = [](MeshRunResult r) {
            EngineRunResult out;
            out.c = std::move(r.c);
            out.stats = r.stats;
            out.totalCycles = r.stats.cycles;
            out.trace = std::move(r.trace);
            return out;
        };
        return dispatchMode(
            in.mode, "mesh", in.recordTrace,
            [&] { return fill(p.plan.run(in.e, in.recordTrace)); },
            [&] { return fill(p.plan.runSemantics(in.e)); });
    }

    EngineRunResult
    run(const EnginePlan &plan) const override
    {
        return runPrepared(*prepare(plan), EngineInputs::of(plan));
    }
};

/** L·y = b via blocked forward substitution on the array pair. */
class TriEngine : public SystolicEngine
{
  public:
    std::string name() const override { return "tri"; }
    ProblemKind kind() const override { return ProblemKind::TriSolve; }
    std::string
    description() const override
    {
        return "blocked forward substitution: panels on the linear "
               "array, diagonal blocks on the back-substitution "
               "array";
    }

    std::shared_ptr<const PreparedPlan>
    prepare(const EnginePlan &plan) const override
    {
        SAP_ASSERT(plan.kind == kind(), "tri engine needs a "
                   "trisolve plan");
        return std::make_shared<TriSolvePrepared>(plan);
    }

    EngineRunResult
    runPrepared(const PreparedPlan &prepared,
                const EngineInputs &in) const override
    {
        const TriSolvePrepared &p =
            preparedAs<TriSolvePrepared>(prepared, "tri");
        prepared.validateInputs(in);
        auto fill = [](TriSolvePlanResult r) {
            EngineRunResult out;
            out.y = std::move(r.y);
            out.stats = r.stats;
            out.totalCycles = r.stats.cycles;
            out.trace = std::move(r.trace);
            return out;
        };
        return dispatchMode(
            in.mode, "tri", in.recordTrace,
            [&] { return fill(p.plan.run(in.b, in.recordTrace)); },
            [&] { return fill(p.plan.runSemantics(in.b)); });
    }

    EngineRunResult
    run(const EnginePlan &plan) const override
    {
        return runPrepared(*prepare(plan), EngineInputs::of(plan));
    }
};

/** The paper's straw man: per-block runs, host accumulation. */
class NoFeedbackEngine : public SystolicEngine
{
  public:
    std::string name() const override { return "no-feedback"; }
    ProblemKind kind() const override { return ProblemKind::MatVec; }
    std::string
    description() const override
    {
        return "baseline: isolated per-block array runs, partial "
               "results accumulated on the host (no feedback)";
    }

    std::shared_ptr<const PreparedPlan>
    prepare(const EnginePlan &plan) const override
    {
        SAP_ASSERT(plan.kind == kind(), "no-feedback engine needs a "
                   "matvec plan");
        return std::make_shared<NoFeedbackPrepared>(plan);
    }

    EngineRunResult
    runPrepared(const PreparedPlan &prepared,
                const EngineInputs &in) const override
    {
        const NoFeedbackPrepared &p =
            preparedAs<NoFeedbackPrepared>(prepared, "no-feedback");
        prepared.validateInputs(in);
        auto fill = [](BlockNoFeedbackResult r) {
            EngineRunResult out;
            out.y = std::move(r.y);
            out.stats = r.stats;
            out.totalCycles = r.stats.cycles;
            // No feedback loop exists; the defaults (delay −1, zero
            // registers) are the honest report.
            return out;
        };
        return dispatchMode(
            in.mode, "no-feedback", in.recordTrace,
            [&] { return fill(p.plan.run(in.x, in.b)); },
            [&] { return fill(p.plan.runSemantics(in.x, in.b)); });
    }

    EngineRunResult
    run(const EnginePlan &plan) const override
    {
        return runPrepared(*prepare(plan), EngineInputs::of(plan));
    }
};

} // namespace

void
registerBuiltinEngines()
{
    registerEngine("linear", [] {
        return std::make_unique<LinearEngine>();
    });
    registerEngine("grouped", [] {
        return std::make_unique<GroupedEngine>();
    });
    registerEngine("overlapped", [] {
        return std::make_unique<OverlappedEngine>();
    });
    registerEngine("no-feedback", [] {
        return std::make_unique<NoFeedbackEngine>();
    });
    registerEngine("hex", [] {
        return std::make_unique<HexEngine>(/*strict=*/false);
    });
    registerEngine("spiral", [] {
        return std::make_unique<HexEngine>(/*strict=*/true);
    });
    registerEngine("mesh", [] {
        return std::make_unique<MeshEngine>();
    });
    registerEngine("tri", [] {
        return std::make_unique<TriEngine>();
    });
}

} // namespace sap
