// Campaign checkpoint/resume: the chunk scheduler's progress (done bitmap +
// the tally of the done chunks) as a CRC-protected "VSCK5" byte record, so a
// campaign stopped mid-run — killed, cancelled, preempted, or a fabric range
// whose worker died — restarts from its last checkpoint instead of from bit
// zero. The record is encoded once per save; where it goes (a file, a
// preempted job's memory, a coordinator) is the caller's business. The
// fingerprint binds a checkpoint to the exact (device, design, options,
// chunking) it was taken under — any mismatch and the campaign silently
// starts fresh.
#pragma once

#include <vector>

#include "seu/campaign.h"

namespace vscrub {

struct CampaignCheckpoint {
  u64 fingerprint = 0;
  u64 total_injections = 0;  ///< size of the bit universe
  u64 chunk_size = 0;        ///< resolved chunk size the bitmap is indexed by
  std::vector<u8> done;      ///< chunk done bitmap, bit c = chunk c finished
  CampaignTally tally;       ///< over the done chunks only
};

/// Identity of a campaign for checkpoint-compatibility purposes: device
/// geometry, design, bit universe, resolved chunking, and every option that
/// changes per-injection outcomes or accounting.
u64 campaign_fingerprint(const PlacedDesign& design,
                         const CampaignOptions& options, u64 total_injections,
                         u64 chunk_size);

/// The checkpoint as one sealed VSCK5 record.
std::vector<u8> encode_campaign_checkpoint(const CampaignCheckpoint& ck);

/// Decodes a record; returns false when it carries a different magic (an
/// older VSCK version or a foreign record: not this campaign's checkpoint).
/// Throws Error on a corrupted (truncated, CRC-failing or oversized) record.
bool decode_campaign_checkpoint(std::vector<u8> record,
                                CampaignCheckpoint* ck);

}  // namespace vscrub
