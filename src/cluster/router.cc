#include "cluster/router.hh"

#include <algorithm>
#include <string>

#include "base/logging.hh"

namespace sap {

namespace {

/**
 * splitmix64 finalizer. Plan digests are folded together by the
 * weak combineDigests mix, so plans differing in one component can
 * land in a narrow arc of the ring, which would starve shards of
 * ring coverage. Mixing every ring point and lookup key
 * through a full-avalanche finalizer spreads them uniformly without
 * giving up determinism.
 */
Digest
mix64(Digest x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Ring point of one (shard, vnode): a string digest, so the ring
 *  depends only on the indices and is reproducible everywhere. */
Digest
ringPoint(std::size_t shard, std::size_t vnode)
{
    return mix64(fingerprintString(
        "shard-" + std::to_string(shard) + "/vnode-" +
        std::to_string(vnode)));
}

} // namespace

ConsistentHashRouter::ConsistentHashRouter(
    std::size_t shards, std::size_t virtual_nodes_per_shard)
    : shards_(shards), vnodes_per_shard_(virtual_nodes_per_shard)
{
    SAP_ASSERT(shards_ >= 1, "router needs at least one shard");
    SAP_ASSERT(vnodes_per_shard_ >= 1,
               "router needs at least one virtual node per shard");
    ring_.reserve(shards_ * vnodes_per_shard_);
    for (std::size_t s = 0; s < shards_; ++s)
        for (std::size_t v = 0; v < vnodes_per_shard_; ++v)
            ring_.emplace_back(ringPoint(s, v), s);
    // Ties (identical ring points from different shards) resolve to
    // the lower shard index, deterministically.
    std::sort(ring_.begin(), ring_.end());
}

std::size_t
ConsistentHashRouter::shardFor(Digest key) const
{
    // First ring point at or clockwise-after the (mixed) key; wrap
    // to the ring's start past the last point.
    const Digest point = mix64(key);
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(), point,
        [](const std::pair<Digest, std::size_t> &entry, Digest k) {
            return entry.first < k;
        });
    if (it == ring_.end())
        it = ring_.begin();
    return it->second;
}

} // namespace sap
