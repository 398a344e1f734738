/**
 * @file
 * Matrix identity fingerprints for the serving layer.
 *
 * The plan cache (serve/plan_cache.hh) keys transformed plans by the
 * *content* of the operand matrices, not by object identity, so two
 * clients submitting the same A hit one cached plan. Digests are
 * 64-bit xxHash64 hashes over the raw element bytes, seeded with the
 * shape: four 64-bit lanes take 32 bytes per step, so a 256² operand
 * hashes at memory speed. They are an index, not a proof — the cache
 * always confirms a digest match by comparing the request's bytes
 * with the cached plan's own storage
 * (PreparedPlan::bindsSameOperands), so a hash collision costs a
 * probe, never a wrong plan.
 *
 * Contract: a digest is a routing and cache hint internal to one
 * build. Nothing persists it, and no two builds need agree on it: a
 * gateway and a backend from different builds disagree only on which
 * backend and cache slot a matrix lands in, so they lose cache hits,
 * never correctness (PlanCache::firstMatch checks every bound
 * operand byte the plan holds).
 */

#ifndef SAP_SERVE_FINGERPRINT_HH
#define SAP_SERVE_FINGERPRINT_HH

#include <cstdint>
#include <functional>
#include <string>

#include "base/types.hh"
#include "mat/dense.hh"
#include "mat/vector.hh"

namespace sap {

/** 64-bit content digest. */
using Digest = std::uint64_t;

/** Hash of the raw element bytes of @p a, seeded with its shape. */
Digest fingerprintDense(const Dense<Scalar> &a);

/**
 * fingerprintDense over @p rows × @p cols Scalars stored row-major at
 * @p elems, wherever they live — a wire payload's operand bytes
 * hash in place, bit-equal to fingerprintDense of a Dense holding
 * the same elements.
 */
Digest fingerprintDenseBytes(const void *elems, Index rows, Index cols);

/** Hash of the raw element bytes of @p v, seeded with its length. */
Digest fingerprintVec(const Vec<Scalar> &v);

/** Hash of the bytes of @p s. */
Digest fingerprintString(const std::string &s);

/** Order-dependent combination of two digests. */
Digest combineDigests(Digest seed, Digest next);

/**
 * Injectable dense-matrix hash, so tests can force collisions and
 * verify that the cache disambiguates distinct matrices.
 */
using DenseHashFn = std::function<Digest(const Dense<Scalar> &)>;

} // namespace sap

#endif // SAP_SERVE_FINGERPRINT_HH
