/**
 * @file
 * Consistent-hash routing of plan digests onto shards.
 *
 * The cluster pins every matrix to exactly one shard so its prepared
 * plan is built once, cached once, and never contended across
 * shards. Routing must therefore be (a) deterministic — any router
 * with the same configuration, in any process, maps a key to the
 * same shard — and (b) stable under resizing: growing an
 * installation from N to N+1 arrays should re-home only ~1/(N+1) of
 * the matrices, not reshuffle everything the way modulo routing
 * does.
 *
 * Classic consistent hashing provides both: each shard contributes a
 * fixed set of virtual nodes to a 64-bit hash ring, and a key is
 * owned by the shard of the first ring point at or clockwise-after
 * it. Ring points depend only on (shard index, vnode index), so the
 * ring is reproducible from the options alone.
 *
 * Known limitation: that also makes two rings with the same shard
 * count identical. The gateway's ring over backends and each
 * backend's Cluster ring over its shards are built the same way, so
 * with as many shards per backend as backends a digest routed to
 * backend k lands on shard k there too (2 × 2: 100% of 100 000
 * digests), and the other shards of every backend stay idle.
 * Salting one ring spreads the load but brings twice the plan-cache
 * slots alive; the fix needs its own change with a memory plan
 * (ROADMAP.md, "Two-tier routing correlation").
 */

#ifndef SAP_CLUSTER_ROUTER_HH
#define SAP_CLUSTER_ROUTER_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "serve/fingerprint.hh"

namespace sap {

/** Deterministic digest → shard map on a consistent-hash ring. */
class ConsistentHashRouter
{
  public:
    /** Virtual nodes per shard; more = smoother key distribution. */
    static constexpr std::size_t kDefaultVirtualNodes = 64;

    /**
     * @param shards Number of shards (>= 1).
     * @param virtual_nodes_per_shard Ring points per shard (>= 1).
     */
    explicit ConsistentHashRouter(
        std::size_t shards,
        std::size_t virtual_nodes_per_shard = kDefaultVirtualNodes);

    /** Owning shard of @p key, in [0, shardCount()). */
    std::size_t shardFor(Digest key) const;

    std::size_t shardCount() const { return shards_; }

    std::size_t
    virtualNodesPerShard() const
    {
        return vnodes_per_shard_;
    }

  private:
    std::size_t shards_;
    std::size_t vnodes_per_shard_;
    /** (ring point, shard), sorted by ring point. */
    std::vector<std::pair<Digest, std::size_t>> ring_;
};

} // namespace sap

#endif // SAP_CLUSTER_ROUTER_HH
