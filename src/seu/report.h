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
