// Umbrella header and top-level convenience API.
//
// A downstream user's flow:
//
//   #include "core/vscrub.h"
//   using namespace vscrub;
//
//   Workbench bench(device_xcv100ish());
//   PlacedDesign design = bench.compile(designs::lfsr_cluster(4));
//   CampaignResult camp = bench.campaign(design, {.sample_bits = 50'000});
//   // camp.sensitivity(), camp.persistence_ratio(), ...
//
// The individual module headers remain the richer API; Workbench wires the
// common paths together.
#pragma once

#include "bist/bist.h"
#include "bitstream/codebook.h"
#include "bitstream/image_io.h"
#include "bitstream/selectmap.h"
#include "designs/test_designs.h"
#include "halflatch/raddrc.h"
#include "netlist/builder.h"
#include "netlist/drc.h"
#include "netlist/legalize.h"
#include "netlist/refsim.h"
#include "netlist/tmr.h"
#include "netlist/verilog.h"
#include "pnr/pnr.h"
#include "radiation/beam.h"
#include "radiation/environment.h"
#include "radiation/heavy_ion.h"
#include "scrub/scrubber.h"
#include "seu/campaign.h"
#include "seu/report.h"
#include "sim/harness.h"
#include "system/fleet.h"
#include "system/ground_link.h"
#include "system/payload.h"

namespace vscrub {

/// Library version.
const char* version();

/// Workbench API version. Bumped to 4 with the session-oriented service
/// API: ServiceSession::submit() returns a JobHandle (poll/wait/cancel,
/// streaming events), and call() is submit + wait;
/// ServerOptions/ServiceOptions merged into one validated ServiceConfig
/// (svc/config.h) with fair-share scheduling (--sched-weight) and campaign
/// preemption (--preempt) knobs; the served gang width is the host
/// engine's. Served results stay bit-identical to v3 — the
/// wire protocol, report schemas and campaign semantics are unchanged.
///
/// v3 (ScrubPolicy redesign): pluggable scrub policy objects, the
/// RepairMode enum replacing the repair bool pair, the fleet policy race.
inline constexpr int kWorkbenchApiVersion = 4;

class Workbench {
 public:
  explicit Workbench(DeviceGeometry geom)
      : space_(std::make_shared<const ConfigSpace>(std::move(geom))) {}

  const std::shared_ptr<const ConfigSpace>& space() const { return space_; }
  const DeviceGeometry& geometry() const { return space_->geometry(); }

  /// Compile a netlist onto this workbench's device.
  PlacedDesign compile(Netlist netlist, const PnrOptions& options = {}) const {
    return ::vscrub::compile(
        std::make_shared<const Netlist>(std::move(netlist)), space_, options);
  }

  /// Run an SEU injection campaign. Pass options.with_cache(dir) to answer
  /// injections from (and persist fresh verdicts to) a content-addressed
  /// verdict store — warm-cache results are bit-identical to cold runs.
  CampaignResult campaign(const PlacedDesign& design,
                          const CampaignOptions& options = {}) const {
    return run_campaign(design, options);
  }

  /// Delta re-campaign against the prior run recorded in the verdict store:
  /// diffs the design's frames against the stored manifest, re-injects only
  /// bits whose content-addressed key moved, replays the rest, and reports
  /// the reuse rate and speedup vs the prior run. `options.cache_dir` is
  /// filled from `cache_dir` here.
  RecampaignResult recampaign(const PlacedDesign& design, std::string cache_dir,
                              CampaignOptions options = {}) const {
    options.cache_dir = std::move(cache_dir);
    return run_recampaign(design, options);
  }

  /// Build a scrubber for a compiled design over a live fabric and a golden
  /// flash store (the paper's Fig. 4 detect/repair flow).
  Scrubber scrub(const PlacedDesign& design, FabricSim& sim, FlashStore& flash,
                 const ScrubberOptions& options = {}) const {
    return Scrubber(design, sim, flash, options);
  }

  /// Proton-beam validation session for a compiled design (§III-B).
  BeamSession beam_session(const PlacedDesign& design,
                           const BeamOptions& options = {}) const {
    return BeamSession(design, options);
  }

  /// Orbital mission simulator: boards of identical devices flying `design`
  /// under an orbit environment, judged against the campaign's sensitivity
  /// map (see CampaignResult::sensitive_set).
  Payload mission(const PlacedDesign& design, PayloadOptions options,
                  std::unordered_set<u64> sensitive_bits) const {
    return Payload(design, std::move(options), std::move(sensitive_bits));
  }

  /// Monte-Carlo seed sweep: N independent missions across the thread pool,
  /// aggregated into availability confidence intervals and latency
  /// percentiles. Deterministic for any thread count.
  FleetResult fleet(const PlacedDesign& design,
                    const std::unordered_set<u64>& sensitive_bits,
                    const FleetOptions& options = {}) const {
    return run_fleet(design, sensitive_bits, options);
  }

  /// The scrub-policy laboratory (v3): the same seed sweep raced once per
  /// policy, yielding per-policy availability/MTTR/bandwidth curves.
  PolicyRaceResult policy_race(const PlacedDesign& design,
                               const std::unordered_set<u64>& sensitive_bits,
                               const PolicyRaceOptions& options = {}) const {
    return run_policy_race(design, sensitive_bits, options);
  }

  struct BistReport {
    WireTestResult wire;
    ClbBistResult clb;
    bool pass() const { return wire.pass() && !clb.error_detected; }
  };
  /// On-orbit permanent-fault self-test (§II-B): the wire-walk test plus a
  /// compiled CLB LFSR-cascade pattern, each on a fresh fabric carrying
  /// `faults` (empty = health check of a pristine device).
  BistReport bist(const std::vector<FabricSim::PermanentFault>& faults = {},
                  u64 clb_cycles = 400) const {
    BistReport report;
    {
      FabricSim fabric(space_);
      for (const auto& f : faults) fabric.inject_permanent_fault(f);
      report.wire = run_wire_test(space_, fabric);
    }
    {
      const PlacedDesign pattern = compile(bist_clb_cascade(6, 20));
      FabricSim fabric(space_);
      for (const auto& f : faults) fabric.inject_permanent_fault(f);
      report.clb = run_clb_bist(pattern, fabric, clb_cycles);
    }
    return report;
  }

  /// Half-latch dependency DRC for a compiled design (§III-C).
  RadDrcReport raddrc(const PlacedDesign& design) const {
    return raddrc_analyze(design);
  }

 private:
  std::shared_ptr<const ConfigSpace> space_;
};

}  // namespace vscrub
