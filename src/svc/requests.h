// Request execution for the vscrubd serving layer: maps a decoded VSRP1
// work request (campaign / recampaign / mission / fleet) onto the same
// library calls the vscrubctl one-shot commands make, against the service's
// shared thread pool and process-wide verdict store. Keeping this a pure
// params -> report function (no sockets, no queues) is what lets the tests
// prove a served request is bit-identical to the equivalent CLI run.
#pragma once

#include <atomic>
#include <memory>
#include <string>

#include "fabric/geometry.h"
#include "netlist/netlist.h"
#include "report/json.h"
#include "seu/campaign.h"
#include "svc/protocol.h"
#include "system/fleet.h"

namespace vscrub {

class VerdictStore;

/// The built-in design generators by CLI name (lfsr, mult, vmult, counter,
/// multadd, lfsrmult, fir, selfcheck, bram). Throws Error on an unknown name.
Netlist design_by_name(const std::string& name);

/// The device geometries by CLI name (campaign, xcv50, xcv100, xcv300,
/// xcv1000, tiny:RxC). R and C are decimal digits only, at most the
/// XCV1000's 64 rows and 96 columns, at least 4 each, and R a multiple of 4.
/// Throws Error on an unknown or malformed name.
DeviceGeometry device_by_name(const std::string& name);

/// The compiled design for (design, device), compiled once per process and
/// memoized; its fixed products (golden trace, key plans, ...) come from its
/// DesignBaseline (seu/design_baseline.h). Throws Error on an unknown design
/// or device name.
std::shared_ptr<const PlacedDesign> request_design(const std::string& design,
                                                   const std::string& device);

/// What a mission or fleet request executes against (its sensitivity
/// campaign included). All pointers are borrowed and may be null: a null
/// store disables verdict caching, a null pool gives the campaign its own
/// workers, a null cancelled flag makes the request uncancellable. A served
/// campaign's executor sets these and its other hooks on the CampaignOptions
/// it builds (CampaignService::run_local).
struct RequestContext {
  VerdictStore* store = nullptr;
  ThreadPool* pool = nullptr;
  const std::atomic<bool>* cancelled = nullptr;
};

/// The gang width a campaign runs at on every path unless `no_gang` is set:
/// the host engine's width (512 on AVX-512, 256 elsewhere). Width never
/// changes verdicts — the differential suite proves that.
u32 served_gang_width_default();

/// A campaign/recampaign request's options: its campaign-spec parameters
/// with the row defaults, its fabric range and its progress cadence (a
/// served campaign's cancel-poll cadence too). No hooks: the caller adds
/// its own. The one-shot commands and the fabric build theirs here too.
CampaignOptions campaign_options_from(const FlatJson& params);

/// Runs a campaign or (`delta`) recampaign request on its memoized design
/// with the options its executor built; a recampaign needs options.store.
JsonReport run_campaign_request(const FlatJson& params,
                                const CampaignOptions& options, bool delta);

/// Flies a mission request: lfsrmult on the request's device, judged
/// against its sensitivity campaign (on the context's pool and store), with
/// the request's payload settings. `options` brings the caller's metrics and
/// trace sinks and returns the settings the mission flew with.
MissionReport fly_mission(const FlatJson& params, const RequestContext& ctx,
                          PayloadOptions& options);

/// A fleet request's seed sweep over `threads` workers: run_fleet, or —
/// when scrub_policy names several policies (or "all") — run_policy_race,
/// whose entries are then non-empty.
struct FleetRun {
  FleetOptions options;
  FleetResult fleet;
  PolicyRaceResult race;
};
FleetRun fly_fleet(const FlatJson& params, const RequestContext& ctx,
                   u32 threads);

/// Executes a mission or fleet request and returns its report (the same
/// JSON the corresponding `vscrubctl <op> --json` writes). Throws Error on
/// any other kind, bad parameters or an unexecutable request; the service
/// turns that into a typed kError reply. Mission and fleet requests only
/// honor a cancel that lands before they start.
JsonReport execute_request(FrameKind kind, const FlatJson& params,
                           const RequestContext& ctx);

}  // namespace vscrub
