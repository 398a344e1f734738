/**
 * @file
 * The unified engine layer: one `run(plan) -> EngineRunResult` API
 * that drives every systolic topology in the repository.
 *
 * Motivation: tests, benchmarks, and examples used to hand-roll a
 * driver loop per topology (build a MatVecPlan here, a MatMulPlan
 * there, wire the grouped harness somewhere else). The engine hides
 * that behind a single interface so that cross-topology comparisons
 * run every array under identical golden-model checks, and so new
 * topologies plug in by registering a factory (see registry.hh).
 *
 * An EnginePlan carries a *problem* (y = A·x + b, C = A·B + E, or
 * the §4 triangular system L·y = b) plus array options; an engine
 * consumes plans whose kind it supports and returns results,
 * measured statistics, the port-level Trace, and topology-specific
 * audit data (feedback delays, PE grouping realizability, spiral
 * topology compliance).
 */

#ifndef SAP_ENGINE_ENGINE_HH
#define SAP_ENGINE_ENGINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/metrics.hh"
#include "base/types.hh"
#include "mat/dense.hh"
#include "mat/vector.hh"
#include "sim/spiral_feedback.hh"
#include "sim/trace.hh"

namespace sap {

/** Which algebraic problem a plan describes. */
enum class ProblemKind
{
    MatVec,   ///< y = A·x + b on a linear-array family engine
    MatMul,   ///< C = A·B + E on a hexagonal/mesh family engine
    TriSolve, ///< L·y = b on the back-substitution array pair (§4)
};

/** Printable kind name ("matvec" / "matmul" / "trisolve"). */
std::string problemKindName(ProblemKind k);

/**
 * How an engine executes a plan.
 *
 * The cycle simulators *measure* the paper's claims; the semantics
 * path (src/semantics/) *replays* each engine's DBT operation order
 * as blocked host arithmetic, bit-identical to the array, with the
 * cycle statistics supplied by the closed-form step counts
 * (analysis/formulas.hh) that PR 4 asserted against measurement.
 */
enum class ExecMode : std::uint8_t
{
    Simulate = 0, ///< cycle-accurate simulation (the default)
    Fast = 1,     ///< semantics replay + formula-derived stats
    Validate = 2, ///< run both, diff every reported field, return sim
};

/** Printable mode name ("simulate" / "fast" / "validate"). */
std::string execModeName(ExecMode m);

/**
 * Parse a mode name as printed by execModeName().
 * @return true and set @p out on success; false on an unknown name.
 */
bool parseExecMode(const std::string &name, ExecMode *out);

/**
 * A size-independent problem instance plus array options: the single
 * input type of every engine.
 *
 * Exactly one operand set is meaningful, selected by `kind`:
 * (a, x, b) for MatVec, (a, bmat, e) for MatMul, (a, b) for
 * TriSolve (a = the lower-triangular L, b = the right-hand side).
 * Use the named factories; they validate shapes eagerly.
 */
struct EnginePlan
{
    ProblemKind kind = ProblemKind::MatVec;

    Dense<Scalar> a; ///< the matrix A (any shape; DBT reshapes it);
                     ///< for TriSolve, the square lower-triangular L

    // MatVec operands (b doubles as the TriSolve right-hand side).
    Vec<Scalar> x; ///< input vector (length a.cols())
    Vec<Scalar> b; ///< additive vector / trisolve rhs (length a.rows())

    // MatMul operands.
    Dense<Scalar> bmat; ///< matrix B (a.cols() × m)
    Dense<Scalar> e;    ///< additive matrix E (a.rows() × m)

    Index w = 4; ///< fixed systolic array size
    /**
     * Record port-level events into EngineRunResult::trace.
     * Supported by the "linear", "tri", and "mesh" engines; the
     * other topologies return an empty trace regardless. Tracing
     * requires cycle-level execution: combining recordTrace with
     * ExecMode::Fast is rejected (EngineError) instead of silently
     * returning an empty trace.
     */
    bool recordTrace = false;
    /** Execution mode (see ExecMode). */
    ExecMode mode = ExecMode::Simulate;

    /** Plan for y = A·x + b. */
    static EnginePlan matVec(Dense<Scalar> a, Vec<Scalar> x,
                             Vec<Scalar> b, Index w);

    /** Plan for C = A·B + E. */
    static EnginePlan matMul(Dense<Scalar> a, Dense<Scalar> bmat,
                             Dense<Scalar> e, Index w);

    /** Plan for C = A·B (E = 0). */
    static EnginePlan matMul(Dense<Scalar> a, Dense<Scalar> bmat,
                             Index w);

    /**
     * Plan for L·y = b with L = @p l lower-triangular (square,
     * nonzero diagonal; elements above the diagonal are ignored).
     */
    static EnginePlan triSolve(Dense<Scalar> l, Vec<Scalar> b,
                               Index w);

    /**
     * Shape consistency checks, reported instead of fatal: returns
     * an empty string when the plan is well-formed, else a
     * human-readable reason. The serve layer reuses this so the
     * library and request validation seams cannot drift.
     */
    std::string check() const;

    /** As check(), but throws EngineError on a malformed plan. */
    void validate() const;
};

/**
 * Everything an engine reports back from one execution.
 *
 * `y` is filled for MatVec plans, `c` for MatMul plans. Audit
 * fields default to their vacuous-pass values so callers can assert
 * them uniformly across topologies.
 */
struct EngineRunResult
{
    Vec<Scalar> y;    ///< MatVec/TriSolve result (length a.rows())
    Dense<Scalar> c;  ///< MatMul result (a.rows() × bmat.cols())

    RunStats stats;          ///< measured cycles/PEs/MACs
    Cycle totalCycles = 0;   ///< raw edge-to-edge cycles (if distinct)
    /** Port events; only populated by engines that support tracing
     *  (see EnginePlan::recordTrace). */
    Trace trace;

    /** Observed feedback delay in cycles (linear family; paper: w). */
    Cycle feedbackDelay = -1;
    /** Registers in the feedback chain (linear family; paper: w). */
    Index feedbackRegisters = 0;

    /** Grouped engine: no cycle had both cells of a group busy. */
    bool conflictFree = true;
    /** Spiral engine: every transfer stayed inside its loop. */
    bool topologyRespected = true;
    /** Hex/spiral feedback measurements (null for linear family). */
    std::shared_ptr<SpiralFeedback> feedback;
};

/**
 * The per-request operands streamed through a prepared plan: the
 * data that varies between requests against the same matrix.
 *
 * Exactly one operand set is meaningful, selected by the kind of the
 * prepared plan the inputs are run against: (x, b) for MatVec, e for
 * MatMul (the matmul plan binds both A and B; the additive E is the
 * streamable operand), b for TriSolve (the plan binds L; the
 * right-hand side streams).
 */
struct EngineInputs
{
    Vec<Scalar> x;    ///< MatVec input vector
    Vec<Scalar> b;    ///< MatVec additive vector / TriSolve rhs
    Dense<Scalar> e;  ///< MatMul additive matrix
    /** Record port events (engines that support tracing only). */
    bool recordTrace = false;
    /** Execution mode for this request (see ExecMode). */
    ExecMode mode = ExecMode::Simulate;

    /** Inputs for one y = A·x + b request. */
    static EngineInputs matVec(Vec<Scalar> x, Vec<Scalar> b);

    /** Inputs for one C = A·B + E request. */
    static EngineInputs matMul(Dense<Scalar> e);

    /** Inputs for one L·y = b request. */
    static EngineInputs triSolve(Vec<Scalar> b);

    /** The streamable operands of a full plan (copies them out). */
    static EngineInputs of(const EnginePlan &plan);
};

/**
 * An engine's reusable, matrix-bound artifact: the DBT-transformed
 * plan, detached from the per-request operands.
 *
 * Produced by SystolicEngine::prepare() and consumed by
 * runPrepared(); the serving layer caches these by matrix
 * fingerprint (serve/plan_cache.hh) so repeated requests against the
 * same matrix skip the dense→band rebuild entirely.
 *
 * Prepared plans are immutable after construction and safe to share
 * across threads.
 */
class PreparedPlan
{
  public:
    virtual ~PreparedPlan() = default;

    /** Which problem kind the plan was built for. */
    ProblemKind kind() const { return kind_; }
    /** Array size the plan was built for. */
    Index w() const { return w_; }
    /** Rows of the bound matrix A. */
    Index rows() const { return rows_; }
    /** Cols of the bound matrix A. */
    Index cols() const { return cols_; }
    /** MatMul: cols of the bound matrix B (0 for MatVec). */
    Index outCols() const { return out_cols_; }

    /** Shape-check @p in against the bound matrix (asserts). */
    void validateInputs(const EngineInputs &in) const;

    /**
     * True when this plan was prepared from exactly the bound
     * operands of @p plan (A, and B for MatMul) at the same kind and
     * w. The plan's own storage is the ground truth: the request's
     * bytes are compared run by run with where the DBT placed them,
     * so a plan cache needs no copy of the operands to confirm a
     * digest match. Bytes, not values: a NaN matches its own bit
     * pattern and −0.0 does not match +0.0 (sameDenseBytes).
     */
    virtual bool bindsSameOperands(const EnginePlan &plan) const = 0;

  protected:
    /** Capture the shape contract of @p plan. */
    explicit PreparedPlan(const EnginePlan &plan);

    /** True when @p plan has this plan's kind, w and bound operand
     *  shapes: the precondition of every bindsSameOperands compare. */
    bool sameShape(const EnginePlan &plan) const;

  private:
    ProblemKind kind_;
    Index w_;
    Index rows_;
    Index cols_;
    Index out_cols_;
};

/**
 * Interface every topology implements.
 *
 * Engines are stateless: run(), prepare(), and runPrepared() may be
 * called concurrently from multiple threads, each call builds its
 * own simulator.
 */
class SystolicEngine
{
  public:
    virtual ~SystolicEngine() = default;

    /** Registry name ("linear", "grouped", "overlapped",
     *  "no-feedback", "hex", "spiral", "mesh", "tri"). */
    virtual std::string name() const = 0;

    /** Which problem kind this engine consumes. */
    virtual ProblemKind kind() const = 0;

    /** One-line human description for --help style listings. */
    virtual std::string description() const = 0;

    /**
     * Execute @p plan on this topology, honoring plan.mode: Simulate
     * runs the cycle-accurate array, Fast replays the same operation
     * order as blocked host arithmetic (bit-identical results,
     * formula-derived cycle stats, never a trace), Validate runs
     * both and throws EngineError on any reported-field mismatch.
     *
     * @pre plan.kind == kind() (asserted).
     * @throws EngineError for Fast mode combined with recordTrace,
     *         or a Validate-mode diff failure.
     */
    virtual EngineRunResult run(const EnginePlan &plan) const = 0;

    /**
     * Build the reusable matrix-bound artifact for @p plan: the DBT
     * transform plus all routing, without executing anything. The
     * built-in topologies override this to return their transformed
     * plan; the default wraps the EnginePlan itself so that any
     * engine (including externally registered ones that only
     * implement run()) supports the prepared-execution protocol.
     *
     * @pre plan.kind == kind() (asserted).
     */
    virtual std::shared_ptr<const PreparedPlan>
    prepare(const EnginePlan &plan) const;

    /**
     * Execute one request through a previously prepared plan.
     *
     * @pre @p prepared came from this engine's prepare() (or, for
     *      the linear family, any engine sharing its prepared
     *      representation); asserted via a checked downcast.
     * @pre @p in matches the prepared plan's shape contract.
     */
    virtual EngineRunResult
    runPrepared(const PreparedPlan &prepared,
                const EngineInputs &in) const;

    /**
     * Batched execution: prepare @p plan once and stream every
     * element of @p inputs through it. The plan's own operand
     * fields (x/b/e) are ignored; only its matrix and options bind.
     *
     * This is the amortization primitive the serving layer is built
     * on: for R requests against one matrix it performs one
     * dense→band transform instead of R.
     */
    std::vector<EngineRunResult>
    runMany(const EnginePlan &plan,
            const std::vector<EngineInputs> &inputs) const;

    /**
     * Stream every element of @p inputs through one already-prepared
     * plan, in order: the streaming half of runMany(), for callers
     * that fetched (or cached) the prepared plan themselves — the
     * batched serve/batch.hh runMany() streams its cache-fetched
     * plans through this. The serving shard's batch path streams
     * per-request instead, because it interleaves validation and
     * stats between runs.
     *
     * @pre @p prepared came from this engine's prepare().
     * @pre Every input matches the prepared plan's shape contract.
     */
    std::vector<EngineRunResult>
    runManyPrepared(const PreparedPlan &prepared,
                    const std::vector<EngineInputs> &inputs) const;
};

} // namespace sap

#endif // SAP_ENGINE_ENGINE_HH
