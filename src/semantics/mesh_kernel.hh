/**
 * @file
 * Semantics replay of the output-stationary mesh: C += A·B over the
 * padded reduction, every output summing its `acc + a·b` terms in
 * stream order (ascending t), exactly as PE (r, q) sees the skewed
 * a/b streams meet.
 *
 * Output-stationary outputs never read each other, so the kernel
 * holds a tile of C (a few rows by a few vector lanes of columns)
 * in registers across the whole reduction: each step t broadcasts
 * the tile rows' a(i, t) and multiplies them into the contiguous
 * row t of the padded B. The tile is loaded once and stored once,
 * so the loop is bound by floating-point throughput, not by loads
 * and stores of C. Rows and columns that do not fill a tile run a
 * plain row sweep with the same expression.
 *
 * Every output still gets a rounded multiply then a rounded add per
 * step, in ascending t, including the padded steps (adding the
 * (+0)·(+0) product turns a −0 preload into +0 in the array too),
 * so the result is bit-identical to MeshArray. The library builds
 * with -ffp-contract=off, so `acc + a·b` is never fused into an FMA.
 *
 * One template, two instantiations: a portable one (2 lanes, what
 * any x86-64 or other target runs) and, on x86-64, an AVX2 one
 * (4 lanes) compiled for that ISA alone. meshKernel() picks between
 * them once per process by CPUID; both are exposed so tests can hold
 * each to the simulator.
 */

#ifndef SAP_SEMANTICS_MESH_KERNEL_HH
#define SAP_SEMANTICS_MESH_KERNEL_HH

#include "base/types.hh"

namespace sap {

/**
 * Signature of every mesh kernel instantiation: C[0:n, 0:m] += A·B
 * over the padded reduction, in place.
 *
 * @param n, m Rows and columns of C (the unpadded output).
 * @param ptot Padded reduction length p̄·w.
 * @param ldb Leading dimension of @p b (its padded column count).
 * @param a Padded A, at least n rows of ptot (leading dim ptot).
 * @param b Padded B, ptot rows of ldb ≥ m.
 * @param c In: the preload E. Out: C. n×m, leading dimension m.
 */
using MeshKernelFn = void (*)(Index n, Index m, Index ptot, Index ldb,
                              const Scalar *a, const Scalar *b,
                              Scalar *c);

/** The portable instantiation (2 lanes); runs on any target. */
void meshKernelPortable(Index n, Index m, Index ptot, Index ldb,
                        const Scalar *a, const Scalar *b, Scalar *c);

/** The AVX2 instantiation (4 lanes), or nullptr when this build is
 *  not for x86-64 or the CPU lacks AVX2. */
MeshKernelFn meshKernelAvx2();

/** The kernel the Fast path runs: the AVX2 instantiation when
 *  meshKernelAvx2() has one, else the portable one, chosen once. */
void meshKernel(Index n, Index m, Index ptot, Index ldb,
                const Scalar *a, const Scalar *b, Scalar *c);

} // namespace sap

#endif // SAP_SEMANTICS_MESH_KERNEL_HH
