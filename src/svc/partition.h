// Bit-space partitioning for the distributed campaign fabric.
//
// A sharded campaign splits the one-shot run's injection universe — the
// deterministic bit order campaign_universe produces from (device, sample,
// seed) — into contiguous [begin, end) position ranges. Every worker draws
// its assigned range locally (the sample's draws stop at the range end), so
// the shards partition the one-shot run exactly: disjoint, covering, and in
// the same per-bit order. That is what makes the merged campaign provably
// bit-identical — counters sum and the order-independent sensitive-set
// digest XORs across ranges to the one-shot digest.
#pragma once

#include <vector>

#include "common/types.h"

namespace vscrub {

/// One contiguous shard of the injection universe, [begin, end) positions
/// in the campaign's deterministic universe order.
struct BitRange {
  u64 begin = 0;
  u64 end = 0;
  u64 size() const { return end - begin; }
};

/// Splits [0, universe) into at most `shards` contiguous near-equal ranges
/// (the first `universe % shards` ranges are one position larger). Fewer
/// ranges come back when the universe is smaller than the shard count;
/// an empty universe yields no ranges. Throws Error when shards == 0.
std::vector<BitRange> partition_universe(u64 universe, u64 shards);

}  // namespace vscrub
