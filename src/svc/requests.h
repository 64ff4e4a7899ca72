// Request execution for the vscrubd serving layer: maps a decoded VSRP1
// work request (campaign / recampaign / mission / fleet) onto the same
// library calls the vscrubctl one-shot commands make, against the service's
// shared thread pool and process-wide verdict store. Keeping this a pure
// params -> report function (no sockets, no queues) is what lets the tests
// prove a served request is bit-identical to the equivalent CLI run.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "fabric/geometry.h"
#include "netlist/netlist.h"
#include "report/json.h"
#include "seu/campaign.h"
#include "svc/protocol.h"
#include "system/fleet.h"

namespace vscrub {

struct CacheKeyPlan;
class VerdictStore;

/// The built-in design generators by CLI name (lfsr, mult, vmult, counter,
/// multadd, lfsrmult, fir, selfcheck, bram). Throws Error on an unknown name.
Netlist design_by_name(const std::string& name);

/// The device geometries by CLI name (campaign, xcv50, xcv100, xcv300,
/// xcv1000, tiny:RxC). Throws Error on an unknown name.
DeviceGeometry device_by_name(const std::string& name);

/// A served request's compiled design and, when asked for, its cache-key
/// plan, both from the process-wide memo.
struct RequestDesign {
  std::shared_ptr<const PlacedDesign> design;
  /// build_cache_key_plan(*design, InjectionOptions{}.with_persistence(p)):
  /// requests vary no other verdict-affecting injection option. Null when
  /// no plan was asked for, or when the memo was full (the campaign then
  /// builds its own).
  std::shared_ptr<const CacheKeyPlan> key_plan;
};

/// The compiled design for (design, device) — compiled once per process
/// and memoized — plus, when `plan_persistence` is set, its cache-key plan
/// for that persistence setting, built once per entry and shared by every
/// later request. Throws Error on an unknown design or device name.
RequestDesign request_design(const std::string& design,
                             const std::string& device,
                             std::optional<bool> plan_persistence = std::nullopt);

/// Everything a request executes against. All pointers are borrowed and may
/// be null: a null store disables verdict caching (and fails recampaigns), a
/// null pool gives the campaign its own workers, a null cancelled flag makes
/// the request uncancellable.
struct RequestContext {
  VerdictStore* store = nullptr;
  ThreadPool* pool = nullptr;
  const std::atomic<bool>* cancelled = nullptr;
  /// Chunk-complete telemetry hook (campaign/recampaign only); the service
  /// forwards these as kProgress frames. May be empty.
  std::function<void(const CampaignProgress&)> on_progress;
  /// Preemption hook, polled with chunks_done at every chunk boundary the
  /// progress callback sees. Returning true stops the campaign exactly like
  /// a cancel — at the boundary, writing its checkpoint — but the service
  /// requeues the job instead of delivering the interrupted report, and the
  /// next dispatch resumes from the checkpoint bit-identically. May be empty.
  std::function<bool(u64)> preempt_poll;
  /// When set, campaigns checkpoint here (VSCK) so a cancelled, preempted or
  /// hard-stopped request leaves a resumable trail. Empty = no checkpoints.
  std::string checkpoint_path;
  /// Checkpoint cadence in chunks (0 = the campaign default).
  u64 checkpoint_every_chunks = 0;
  /// Fires after every checkpoint save (periodic and final); the fabric
  /// worker ships the fresh VSCK bytes to its coordinator from here. May be
  /// empty.
  std::function<void()> on_checkpoint;
  /// Second-tier verdict source behind the local store (borrowed, may be
  /// null): the fabric wires the coordinator's store in here so workers
  /// reuse each other's verdicts.
  RemoteVerdictClient* remote_store = nullptr;
};

/// The gang width a campaign runs at on every path unless `no_gang` is set:
/// the host engine's width (512 on AVX-512, 256 elsewhere). Width never
/// changes verdicts — the differential suite proves that.
u32 served_gang_width_default();

/// A campaign/recampaign request's options: its campaign-spec parameters
/// with the row defaults, its fabric range, and the context's wiring. The
/// one-shot commands build theirs here too.
CampaignOptions campaign_options_from(const FlatJson& params,
                                      const RequestContext& ctx);

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

/// Executes one work request and returns its report (the same JSON the
/// corresponding `vscrubctl <op> --json` writes). `kind` must be one of
/// kCampaign/kRecampaign/kMission/kFleet. Throws Error on bad parameters or
/// an unexecutable request; the service turns that into a typed kError reply.
/// Cancellation is polled at chunk boundaries for campaign kinds; mission and
/// fleet requests only honor a cancel that lands before they start.
JsonReport execute_request(FrameKind kind, const FlatJson& params,
                           const RequestContext& ctx);

}  // namespace vscrub
