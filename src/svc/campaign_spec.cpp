#include "svc/campaign_spec.h"

#include <cstdlib>

namespace vscrub {
namespace {

constexpr unsigned kRun = kSpecCampaign | kSpecForward;
constexpr unsigned kMissionKinds = kSpecMission | kSpecFleet;

std::vector<SpecRow> build_spec() {
  return {
      {Param::kDesign, "design", SpecType::kString, "lfsrmult", "<design>",
       "design generator (see `vscrubctl designs`)",
       kRun | kSpecPositional},
      {Param::kDevice, "device", SpecType::kString, "campaign", "D",
       "device geometry (see `vscrubctl devices`)", kRun | kMissionKinds},
      {Param::kSample, "sample", SpecType::kU64, "20000", "N",
       "sample N random bits (default 20000)", kRun},
      {Param::kExhaustive, "exhaustive", SpecType::kBool, "", "",
       "inject every configuration bit", kRun},
      {Param::kSeed, "seed", SpecType::kU64, "99", "S",
       "random seed (default 99; mission 4242, fleet base seed 1)",
       kRun | kMissionKinds},
      {Param::kChunk, "chunk", SpecType::kU64, "0", "N",
       "bits per scheduler chunk (0 = auto)", kRun},
      {Param::kPersistence, "persistence", SpecType::kBool, "", "",
       "classify persistent vs transient failures", kRun},
      {Param::kNoPrune, "no_prune", SpecType::kBool, "", "",
       "disable influence-set pruning", kRun},
      {Param::kNoGang, "no_gang", SpecType::kBool, "", "",
       "scalar injections only (no bit-sliced gang engine)", kRun},
      {Param::kHours, "hours", SpecType::kDouble, "24", "H",
       "mission duration (default 24)", kMissionKinds},
      {Param::kMissions, "missions", SpecType::kU64, "8", "N",
       "fleet missions (default 8)", kSpecFleet},
      {Param::kFlare, "flare", SpecType::kBool, "", "",
       "solar-flare environment", kMissionKinds},
      {Param::kScrubFaults, "scrub_faults", SpecType::kBool, "", "",
       "enable scrub-datapath fault models", kMissionKinds},
      {Param::kScrubPolicy, "scrub_policy", SpecType::kString, "", "NAME",
       "scrub policy (see `vscrubctl policies`); fleet: comma list or "
       "'all' to race them",
       kMissionKinds},
      {Param::kTenant, "tenant", SpecType::kString, "", "NAME",
       "fair-share tenant identity for this submission "
       "(default: per-connection)",
       kRun | kMissionKinds | kSpecServed},
  };
}

}  // namespace

std::string SpecRow::flag() const {
  std::string out = "--" + name;
  for (char& c : out) {
    if (c == '_') c = '-';
  }
  return out;
}

const std::vector<SpecRow>& campaign_spec() {
  static const std::vector<SpecRow> rows = build_spec();
  return rows;
}

const SpecRow& spec_row(Param p) {
  return campaign_spec()[static_cast<std::size_t>(p)];
}

std::string spec_string(const FlatJson& params, Param p) {
  const SpecRow& row = spec_row(p);
  return params.get_string(row.name, row.dflt);
}

u64 spec_u64(const FlatJson& params, Param p) {
  const SpecRow& row = spec_row(p);
  return params.get_u64(row.name, std::strtoull(row.dflt.c_str(), nullptr, 10));
}

u64 spec_u64(const FlatJson& params, Param p, u64 dflt) {
  return params.get_u64(spec_row(p).name, dflt);
}

bool spec_bool(const FlatJson& params, Param p) {
  return params.get_bool(spec_row(p).name);
}

double spec_double(const FlatJson& params, Param p) {
  const SpecRow& row = spec_row(p);
  return params.get_double(row.name, std::strtod(row.dflt.c_str(), nullptr));
}

void spec_set(JsonReport& to, const SpecRow& row, const std::string& text) {
  switch (row.type) {
    case SpecType::kString:
      to.set_string(row.name, text);
      break;
    case SpecType::kU64:
      to.set_u64(row.name, std::strtoull(text.c_str(), nullptr, 10));
      break;
    case SpecType::kBool:
      to.set_bool(row.name, text == "true" || text == "1");
      break;
    case SpecType::kDouble:
      to.set(row.name, std::strtod(text.c_str(), nullptr));
      break;
  }
}

}  // namespace vscrub
