#include "svc/partition.h"

#include <algorithm>

#include "common/log.h"
#include "fabric/config_space.h"
#include "svc/requests.h"

namespace vscrub {

u64 campaign_universe_size(const std::string& device,
                           const CampaignOptions& options) {
  return universe_size(ConfigSpace(device_by_name(device)).total_bits(),
                       options);
}

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
