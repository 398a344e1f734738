/**
 * @file
 * Cycle-accurate model of a 2D output-stationary mesh (the
 * TPU/Gemmini-style dataflow) for matrix-matrix multiplication — the
 * natural contrast point to the paper's band-interleaved hexagonal
 * array: C stays resident in the PEs instead of circulating through
 * feedback loops.
 *
 * Geometry: w×w inner-product PEs on a rectangular grid.
 *
 *   a  ->  PE(r,0) .. PE(r,w-1)   (a moves west-to-east along row r)
 *   b  |   PE(0,q) .. PE(w-1,q)   (b moves north-to-south along col q)
 *   c  stays in PE(r,q) as an accumulator
 *
 * Per cycle each PE computes c += a·b when both streams carry valid
 * samples; both streams advance one PE per cycle. Drivers skew row r
 * by r cycles and column q by q cycles so that A(i,t) and B(t,j)
 * meet at PE (i,j) on cycle t + i + j; consecutive t's pack
 * back-to-back (no contraflow spacing), which is why mesh
 * utilization approaches 1 as the reduction length grows:
 * e = p̄w / (p̄w + 2(w−1)) for one output block.
 *
 * Size-independence comes from the same block decomposition as the
 * DBT layer (MeshMatMulPlan below): C_ij = E_ij + Σ_k A_ik·B_kj,
 * one streaming pass per w×w output block with the k-blocks
 * concatenated. Accumulator preload/drain is host access to the
 * stationary registers and is not cycle-modeled; cycles count the
 * streaming passes only (T = n̄m̄(p̄w + 2(w−1)), formulas::tMesh).
 */

#ifndef SAP_SIM_MESH_ARRAY_HH
#define SAP_SIM_MESH_ARRAY_HH

#include <vector>

#include "analysis/metrics.hh"
#include "mat/dense.hh"
#include "mat/vector.hh"
#include "sim/sample.hh"
#include "sim/trace.hh"

namespace sap {

/** The output-stationary w×w mesh. */
class MeshArray
{
  public:
    /** @param w Mesh side (w×w PEs). */
    explicit MeshArray(Index w);

    /** Mesh side. */
    Index size() const { return w_; }
    /** Total PE count A = w². */
    Index peCount() const { return w_ * w_; }

    /** Present the a sample entering row @p r (edge PE (r, 0)). */
    void setAIn(Index r, Sample s);
    /** Present the b sample entering column @p q (edge PE (0, q)). */
    void setBIn(Index q, Sample s);

    /** Advance one clock cycle (compute, then shift both streams). */
    void step();

    /** Preload the accumulator of PE (r, q) (host access). */
    void loadC(Index r, Index q, Scalar v);

    /** Read the accumulator of PE (r, q) (host access). */
    Scalar c(Index r, Index q) const;

    /** Cycles executed. */
    Cycle now() const { return now_; }
    /** Total valid multiply-accumulates performed. */
    Index usefulMacs() const { return useful_macs_; }

  private:
    std::size_t idx(Index r, Index q) const
    {
        return static_cast<std::size_t>(r * w_ + q);
    }

    Index w_;
    Cycle now_ = 0;
    Index useful_macs_ = 0;

    std::vector<Scalar> acc_;   ///< stationary accumulators
    std::vector<Sample> a_reg_; ///< a at output of PE (r,q), moves east
    std::vector<Sample> b_reg_; ///< b at output of PE (r,q), moves south
    std::vector<Sample> a_in_;  ///< per-row a inputs this cycle
    std::vector<Sample> b_in_;  ///< per-column b inputs this cycle
};

/** Result of a planned mesh matrix-multiply execution. */
struct MeshRunResult
{
    /** The final C = A·B + E (n×m). */
    Dense<Scalar> c;
    /** Measured execution statistics. */
    RunStats stats;
    /** Port trace when requested. */
    Trace trace;
};

/**
 * Reusable execution plan for C = A·B + E on the mesh: binds (A, B)
 * like the hexagonal MatMulPlan, streams any number of E's.
 *
 * The matrix-bound artifact is the pair of zero-padded block
 * partitions plus the (trivial, skew-only) feed schedule; the
 * serving layer caches it under the same digest scheme as the other
 * topologies.
 *
 * Thread-compatibility: const member functions are safe to call
 * concurrently (each run builds its own mesh).
 */
class MeshMatMulPlan
{
  public:
    /**
     * @param a Matrix A (n×p).
     * @param b Matrix B (p×m).
     * @param w Mesh side.
     */
    MeshMatMulPlan(const Dense<Scalar> &a, const Dense<Scalar> &b,
                   Index w);

    /** Block counts n̄, p̄, m̄ = ceil(n/w), ceil(p/w), ceil(m/w). */
    Index nbar() const { return nbar_; }
    /** @copydoc nbar() */
    Index pbar() const { return pbar_; }
    /** @copydoc nbar() */
    Index mbar() const { return mbar_; }

    /** True when this plan binds exactly the bytes of @p a and @p b
     *  (sameRowBytes against the unpadded corners of the padded
     *  copies; the padding is not read). */
    bool holdsBytesOf(const Dense<Scalar> &a,
                      const Dense<Scalar> &b) const;

    /**
     * Execute C = A·B + E.
     *
     * @param e Additive matrix (n×m).
     * @param record_trace Record port events (a/b injections with
     *        flattened padded-matrix indices, accumulator preload as
     *        CIn and drain as COut) on the global cycle timeline.
     */
    MeshRunResult run(const Dense<Scalar> &e,
                      bool record_trace = false) const;

    /**
     * Semantics replay of run() (src/semantics/): per-block
     * accumulation in stream order, bit-identical C, stats from
     * analysis/formulas.hh, no trace.
     */
    MeshRunResult runSemantics(const Dense<Scalar> &e) const;

  private:
    Index w_;
    Index n_, p_, m_;
    Index nbar_, pbar_, mbar_;
    Dense<Scalar> a_padded_;
    Dense<Scalar> b_padded_;
};

} // namespace sap

#endif // SAP_SIM_MESH_ARRAY_HH
