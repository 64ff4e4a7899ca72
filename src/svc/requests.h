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
#include <string>
#include <vector>

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
  /// a cancel — at the boundary, saving its checkpoint — but the service
  /// requeues the job instead of delivering the interrupted report, and the
  /// next dispatch resumes from that checkpoint bit-identically. May be
  /// empty.
  std::function<bool(u64)> preempt_poll;
  /// When set, campaigns also write each checkpoint here (VSCK), so a
  /// cancelled or hard-stopped request leaves a resumable file. Empty = no
  /// checkpoint file.
  std::string checkpoint_path;
  /// Checkpoint cadence in chunks (0 = the campaign default).
  u64 checkpoint_every_chunks = 0;
  /// Gets every checkpoint record (periodic and final): a preempting
  /// service keeps the last one with the job, a fabric worker ships it to
  /// its coordinator. Setting it turns checkpointing on. May be empty.
  std::function<void(const std::vector<u8>&)> on_checkpoint;
  /// A VSCK record to resume from (a preempted job's last save, or a
  /// coordinator's blob). Empty = resume from checkpoint_path, if any.
  std::vector<u8> resume_checkpoint;
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
