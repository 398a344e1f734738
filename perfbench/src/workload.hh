/**
 * @file
 * The benchmark's workloads and the request pool each one draws
 * from.
 *
 * A workload is a traffic mix: a list of request classes (engine,
 * problem kind, size, array width) served in equal shares, the
 * execution mode, how many distinct matrices each class cycles over,
 * and the fixed open-loop arrival rate. Everything a run sends is
 * built here, at set-up, from the seed alone: the operands, the
 * encoded SUBMIT payloads, the host-oracle answers and the RunStats
 * the engine reports for each request. The load generator only
 * replays this pool, in pool order, so the same seed always yields
 * the same request stream.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/metrics.hh"
#include "net/protocol.hh"
#include "serve/fingerprint.hh"
#include "serve/shard.hh"

namespace perfbench {

/** One request class of a mix: served in an equal share. */
struct RequestClass
{
    std::string engine;
    sap::ProblemKind kind = sap::ProblemKind::MatVec;
    /** Square problem order (A is n×n; mat-mul B and E too). */
    sap::Index n = 0;
    sap::Index w = 0;

    /** "linear matvec 64 w=8". */
    std::string label() const;
};

/** A named traffic mix (see the file comment). */
struct WorkloadSpec
{
    std::string name;
    std::vector<RequestClass> classes;
    /** Distinct bound matrices per class. */
    int matricesPerClass = 1;
    /** Operand variants (x/b/e) per matrix. */
    int variantsPerMatrix = 1;
    /** Fast for the hot mixes; Simulate for the cold one. */
    sap::ExecMode mode = sap::ExecMode::Fast;
    /** Every validateEvery-th matrix of a class is served in
     *  Validate mode instead (0 = never). */
    int validateEvery = 0;
    /** Poisson arrival rate of the open loop, requests/s. */
    double openRateRps = 0;
};

/** The workloads, in BENCHMARK.json order. */
const std::vector<WorkloadSpec> &workloads();

/** The named workload, or null. */
const WorkloadSpec *findWorkload(const std::string &name);

/** One pre-built request with everything needed to check it. */
struct PooledRequest
{
    /** Index into WorkloadSpec::classes. */
    int cls = 0;
    sap::ServeRequest req;
    /** Encoded SUBMIT payload (frame header added at send time). */
    std::vector<std::uint8_t> payload;
    sap::Digest digest = 0;
    /** Host-oracle answer: y for mat-vec and trisolve, c for
     *  mat-mul. */
    sap::Vec<sap::Scalar> goldY;
    sap::Dense<sap::Scalar> goldC;
    /** What the engine reports for this request (cycles T, PEs,
     *  useful MACs). */
    sap::RunStats stats;
};

/** The whole stream: cycled in order by every load phase. */
struct Pool
{
    const WorkloadSpec *spec = nullptr;
    std::vector<PooledRequest> reqs;

    /** Mean over the mix (equal class shares) of the per-request PE
     *  utilization e. */
    double meanUtilization() const;
    /** FNV-1a over every payload in stream order. */
    std::uint64_t streamDigest() const;
};

/**
 * Build the pool for @p spec from @p seed. Pool index i belongs to
 * class i mod C, so consecutive requests cycle through the classes
 * and every class gets an equal share of any window of the stream.
 * Aborts (SAP_FATAL) if the oracle cannot be exact.
 */
Pool buildPool(const WorkloadSpec &spec, std::uint64_t seed);

/** Dense-equivalent multiply-accumulates of one request. */
double denseMacs(const RequestClass &c);

/** Bytes a kernel must at least move for one request: every
 *  operand read once plus the result written once, 8 bytes per
 *  element (computed from operand sizes, not measured). */
double operandBytes(const RequestClass &c);

/**
 * Check one wire response against the pooled request: ok, result
 * bit-exact against the host oracle, and simCycles equal to the
 * engine's RunStats.cycles. @p why (optional) gets the reason.
 */
bool checkResponse(const PooledRequest &p, const sap::WireResponse &r,
                   std::string *why);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
