// Report writers for campaign results: the paper's flow logs discrepancies
// to files and builds per-bit correlation tables offline (§III-A); these
// emitters produce machine-readable CSV and human-readable summaries.
#pragma once

#include <string>

#include "report/json.h"
#include "seu/campaign.h"

namespace vscrub {

/// CSV of every sensitive bit: column,frame,offset,linear,persistent,
/// first_error_cycle,error_output_mask. This is the "correlation table"
/// relating bitstream locations to output errors (§III-A).
std::string correlation_table_csv(const ConfigSpace& space,
                                  const CampaignResult& result);

/// One-paragraph human-readable summary.
std::string campaign_summary(const CampaignResult& result);

/// The u64 report counters the fabric merge sums across ranges; the other
/// u64 fields are device_bits (one range's) and sensitive_digest (XORed).
inline constexpr const char* kSummedCampaignCounters[] = {
    "injections", "failures", "persistent", "pruned", "resumed_injections",
    "gang_runs", "gang_lanes", "gang_fallbacks", "cache_hits", "cache_misses",
    "cache_stores", "remote_hits", "remote_publishes", "sensitive_bits",
};

/// The campaign result as a versioned JSON report ("kind": "campaign"),
/// through the shared report/json serializer.
JsonReport campaign_report_json(const PlacedDesign& design,
                                const CampaignResult& result);

/// The recampaign result ("kind": "recampaign"): every campaign field plus
/// the frame delta, verdict reuse rate and speedup vs the prior run.
JsonReport recampaign_report_json(const PlacedDesign& design,
                                  const RecampaignResult& rr);

/// Writes `text` to `path` (write_file_atomic; throws Error on failure).
void write_text_file(const std::string& text, const std::string& path);

}  // namespace vscrub
