// The campaign parameter set, declared once. Each row names one request
// parameter (underscored, as it travels in a VSRP1 payload) with its type,
// default, help text and the request kinds it applies to. The vscrubctl
// flags (`--` + the name in kebab case), the command line -> request
// renderer (core/cli.cpp), the served readers (svc/requests.cpp) and the
// fabric's shard forwarding (svc/fabric.cpp) are all derived from it, so
// a one-shot run, a served request and a sharded one read the same words.
// Transport-only fields (range_*, ship_checkpoints, resume_checkpoint,
// remote_store_socket, progress*) stay outside.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"
#include "report/json.h"
#include "svc/protocol.h"

namespace vscrub {

enum class SpecType { kString, kU64, kBool, kDouble };

/// A row's scope: a bit set of where the parameter applies.
enum SpecScope : unsigned {
  kSpecCampaign = 1u << 0,    ///< campaign and recampaign requests
  kSpecMission = 1u << 1,     ///< mission requests
  kSpecFleet = 1u << 2,       ///< fleet requests
  kSpecForward = 1u << 3,     ///< forwarded to fabric shards (fleet-submit)
  kSpecServed = 1u << 4,      ///< wire-only: no one-shot flag
  kSpecPositional = 1u << 5,  ///< given as the design argument, not a flag
};

/// Every parameter, in table order.
enum class Param {
  kDesign, kDevice, kSample, kExhaustive, kSeed, kChunk,  // the campaign
  kPersistence, kNoPrune,                                 // injection
  kNoGang,                                                // gang engine
  kHours, kMissions, kFlare, kScrubFaults, kScrubPolicy,  // missions
  kTenant,                                                // scheduling
};

struct SpecRow {
  Param id;
  std::string name;        ///< request name, underscored (no_prune)
  SpecType type;
  std::string dflt;        ///< default as text ("" for booleans and none)
  std::string value_name;  ///< "N", "D", ... (empty for booleans)
  std::string help;
  unsigned scope;          ///< SpecScope bits

  /// The vscrubctl spelling: "--" plus the name in kebab case.
  std::string flag() const;
};

/// The table, one row per Param in enum order.
const std::vector<SpecRow>& campaign_spec();
const SpecRow& spec_row(Param p);

/// Typed readers: the request's value, else the row default (or `dflt` —
/// the per-kind seed defaults of missions and fleets).
std::string spec_string(const FlatJson& params, Param p);
u64 spec_u64(const FlatJson& params, Param p);
u64 spec_u64(const FlatJson& params, Param p, u64 dflt);
bool spec_bool(const FlatJson& params, Param p);
double spec_double(const FlatJson& params, Param p);

/// Sets the row in `to` from its text form (a command-line value, or a raw
/// FlatJson value), typed by the row; a boolean is "true" or "1".
void spec_set(JsonReport& to, const SpecRow& row, const std::string& text);

}  // namespace vscrub
