#include "semantics/mesh_kernel.hh"

#include <cstring>

namespace sap {

namespace {

typedef Scalar Lanes2 __attribute__((vector_size(2 * sizeof(Scalar))));
#if defined(__x86_64__)
typedef Scalar Lanes4 __attribute__((vector_size(4 * sizeof(Scalar))));
#endif

/**
 * C[i0:i1, j0:j1] += A·B over the padded reduction, one C row at a
 * time, one step t at a time: the tails a tile does not cover.
 */
inline __attribute__((always_inline)) void
rowSweep(Index i0, Index i1, Index j0, Index j1, Index m, Index ptot,
         Index ldb, const Scalar *a, const Scalar *b, Scalar *c)
{
    for (Index i = i0; i < i1; ++i) {
        Scalar *__restrict crow = c + i * m;
        const Scalar *arow = a + i * ptot;
        for (Index t = 0; t < ptot; ++t) {
            const Scalar at = arow[t];
            const Scalar *brow = b + t * ldb;
            for (Index j = j0; j < j1; ++j)
                crow[j] = crow[j] + at * brow[j];
        }
    }
}

/**
 * The register-tiled sweep: R rows × NV vectors of V lanes of C per
 * tile, held in registers over all ptot steps. Always inlined, so
 * each entry point compiles it for its own target ISA.
 */
template <typename V, int R, int NV>
inline __attribute__((always_inline)) void
tiledSweep(Index n, Index m, Index ptot, Index ldb, const Scalar *a,
           const Scalar *b, Scalar *c)
{
    constexpr Index kLanes = sizeof(V) / sizeof(Scalar);
    constexpr Index kCols = NV * kLanes;
    const Index nt = n - n % R, mt = m - m % kCols;
    // Column strips outermost: one strip of B (ptot × kCols) stays
    // in L1 while every row tile streams past it.
    for (Index j0 = 0; j0 < mt; j0 += kCols) {
        for (Index i0 = 0; i0 < nt; i0 += R) {
            Scalar *ctile = c + i0 * m + j0;
            const Scalar *atile = a + i0 * ptot;
            V acc[R][NV];
#pragma GCC unroll 16
            for (int r = 0; r < R; ++r)
#pragma GCC unroll 16
                for (int v = 0; v < NV; ++v)
                    std::memcpy(&acc[r][v], ctile + r * m + v * kLanes,
                                sizeof(V));
            for (Index t = 0; t < ptot; ++t) {
                const Scalar *brow = b + t * ldb + j0;
                V bt[NV];
#pragma GCC unroll 16
                for (int v = 0; v < NV; ++v)
                    std::memcpy(&bt[v], brow + v * kLanes, sizeof(V));
#pragma GCC unroll 16
                for (int r = 0; r < R; ++r) {
                    const Scalar at = atile[r * ptot + t];
#pragma GCC unroll 16
                    for (int v = 0; v < NV; ++v)
                        acc[r][v] = acc[r][v] + at * bt[v];
                }
            }
#pragma GCC unroll 16
            for (int r = 0; r < R; ++r)
#pragma GCC unroll 16
                for (int v = 0; v < NV; ++v)
                    std::memcpy(ctile + r * m + v * kLanes, &acc[r][v],
                                sizeof(V));
        }
    }
    rowSweep(0, nt, mt, m, m, ptot, ldb, a, b, c);
    rowSweep(nt, n, 0, m, m, ptot, ldb, a, b, c);
}

#if defined(__x86_64__)
/** 6 rows × 2 vectors: 12 accumulators, 2 B vectors and the
 *  broadcast fill 15 of the 16 ymm registers without a spill. */
__attribute__((target("avx2"))) void
meshKernelAvx2Impl(Index n, Index m, Index ptot, Index ldb,
                   const Scalar *a, const Scalar *b, Scalar *c)
{
    tiledSweep<Lanes4, 6, 2>(n, m, ptot, ldb, a, b, c);
}
#endif

} // namespace

/** 2 rows × 4 vectors: 8 accumulators, 4 B vectors and the broadcast
 *  in the 16 xmm registers; it measured faster than 4 rows × 2. */
void
meshKernelPortable(Index n, Index m, Index ptot, Index ldb,
                   const Scalar *a, const Scalar *b, Scalar *c)
{
    tiledSweep<Lanes2, 2, 4>(n, m, ptot, ldb, a, b, c);
}

MeshKernelFn
meshKernelAvx2()
{
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx2"))
        return meshKernelAvx2Impl;
#endif
    return nullptr;
}

void
meshKernel(Index n, Index m, Index ptot, Index ldb, const Scalar *a,
           const Scalar *b, Scalar *c)
{
    static const MeshKernelFn kernel =
        meshKernelAvx2() ? meshKernelAvx2() : meshKernelPortable;
    kernel(n, m, ptot, ldb, a, b, c);
}

} // namespace sap
