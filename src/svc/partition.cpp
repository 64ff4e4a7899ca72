#include "svc/partition.h"

#include <algorithm>

#include "common/log.h"

namespace vscrub {

std::vector<BitRange> partition_universe(u64 universe, u64 shards) {
  VSCRUB_CHECK(shards > 0, "partition: shard count must be positive");
  std::vector<BitRange> ranges;
  const u64 n = std::min(shards, universe);
  if (n == 0) return ranges;
  ranges.reserve(n);
  const u64 base = universe / n;
  const u64 extra = universe % n;
  u64 begin = 0;
  for (u64 i = 0; i < n; ++i) {
    const u64 size = base + (i < extra ? 1 : 0);
    ranges.push_back(BitRange{begin, begin + size});
    begin += size;
  }
  return ranges;
}

}  // namespace vscrub
