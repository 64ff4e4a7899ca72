#include "svc/requests.h"

#include <charconv>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "designs/test_designs.h"
#include "pnr/pnr.h"
#include "radiation/environment.h"
#include "seu/report.h"
#include "sim/simd.h"
#include "store/verdict_store.h"
#include "svc/campaign_spec.h"
#include "system/fleet.h"

namespace vscrub {

Netlist design_by_name(const std::string& name) {
  if (name == "lfsr") return designs::lfsr_cluster(2);
  if (name == "mult") return designs::mult_tree(10);
  if (name == "vmult") return designs::vmult(8);
  if (name == "counter") return designs::counter_adder(16);
  if (name == "multadd") return designs::multiply_add(8);
  if (name == "lfsrmult") return designs::lfsr_multiplier(10);
  if (name == "fir") return designs::fir_preproc(4);
  if (name == "selfcheck") return designs::selfcheck_dsp(8, 5);
  if (name == "bram") return designs::bram_selftest(2);
  throw Error("unknown design '" + name + "' (see `vscrubctl designs`)");
}

DeviceGeometry device_by_name(const std::string& name) {
  for (const NamedDevice& d : device_catalog()) {
    if (name == d.name) return d.geometry;
  }
  if (name.rfind("tiny:", 0) == 0) {
    // Device names come from clients: R and C are whole decimal fields (no
    // sign, no trailing text) of at most the XCV1000's 64x96.
    unsigned rows = 0, cols = 0;
    const char* end = name.data() + name.size();
    const auto r = std::from_chars(name.data() + 5, end, rows);
    const bool has_x = r.ec == std::errc{} && r.ptr != end && *r.ptr == 'x';
    const auto c = has_x ? std::from_chars(r.ptr + 1, end, cols) : r;
    if (!has_x || c.ec != std::errc{} || c.ptr != end || rows > 64 ||
        cols > 96) {
      throw Error("bad device '" + name + "' (tiny:RxC, at most 64x96)");
    }
    return device_tiny(static_cast<u16>(rows), static_cast<u16>(cols), 2);
  }
  throw Error("unknown device '" + name + "' (see `vscrubctl devices`)");
}

/// Compiled designs are pure functions of (design, device), and campaigns
/// only ever read them (fault injection works on copies of the golden
/// bitstream), so the daemon memoizes place-and-route process-wide: a warm
/// served request pays a map lookup, not a compile. The cache is capped —
/// parameterized `tiny:RxC` device names are unbounded — and overflow simply
/// compiles without inserting.
std::shared_ptr<const PlacedDesign> request_design(const std::string& design,
                                                   const std::string& device) {
  static std::mutex cache_mutex;
  static std::map<std::pair<std::string, std::string>,
                  std::shared_ptr<const PlacedDesign>>
      cache;
  constexpr std::size_t kMaxCachedDesigns = 16;
  const std::pair<std::string, std::string> key{design, device};
  {
    std::lock_guard lock(cache_mutex);
    if (const auto it = cache.find(key); it != cache.end()) return it->second;
  }
  auto compiled = std::make_shared<const PlacedDesign>(
      compile(std::make_shared<const Netlist>(design_by_name(design)),
              std::make_shared<const ConfigSpace>(device_by_name(device)), {}));
  std::lock_guard lock(cache_mutex);
  if (cache.size() >= kMaxCachedDesigns && !cache.contains(key)) {
    return compiled;
  }
  // A racing compile may have beaten us; share theirs.
  return cache.emplace(key, std::move(compiled)).first->second;
}

CampaignOptions campaign_options_from(const FlatJson& params) {
  CampaignOptions options =
      CampaignOptions{}
          .with_injection(
              InjectionOptions{}
                  .with_persistence(spec_bool(params, Param::kPersistence))
                  .with_pruning(!spec_bool(params, Param::kNoPrune))
                  .with_gang_width(spec_bool(params, Param::kNoGang)
                                       ? 1u
                                       : served_gang_width_default()))
          .with_chunk_size(spec_u64(params, Param::kChunk));
  if (spec_bool(params, Param::kExhaustive)) {
    options.with_exhaustive();
  } else {
    options.with_sample(spec_u64(params, Param::kSample),
                        spec_u64(params, Param::kSeed));
  }
  // Fabric range restriction: [range_begin, range_end) over the campaign's
  // deterministic universe order. range_end == 0 means the whole universe.
  const u64 range_end = params.get_u64("range_end", 0);
  if (range_end > 0) {
    options.with_range(params.get_u64("range_begin", 0), range_end);
  }
  options.progress_every_chunks = params.get_u64("progress_every_chunks", 8);
  return options;
}

u32 served_gang_width_default() { return preferred_gang_width(); }

JsonReport run_campaign_request(const FlatJson& params,
                                const CampaignOptions& options, bool delta) {
  VSCRUB_CHECK(!delta || options.store != nullptr,
               "recampaign requests need a server started with --cache-dir");
  const auto design = request_design(spec_string(params, Param::kDesign),
                                     spec_string(params, Param::kDevice));
  if (delta) {
    return recampaign_report_json(*design, run_recampaign(*design, options));
  }
  return campaign_report_json(*design, run_campaign(*design, options));
}

namespace {

/// The environment (scaled from the paper's XCV1000 rate to this device)
/// and the scrub-datapath fault models of a mission or fleet request.
void apply_mission_params(const FlatJson& params, PayloadOptions& options,
                          u64 total_bits) {
  options.environment = spec_bool(params, Param::kFlare)
                            ? OrbitEnvironment::leo_solar_flare()
                            : OrbitEnvironment::leo_quiet();
  options.environment.upset_rate_per_bit_s *=
      static_cast<double>(kXcv1000PaperBits) / static_cast<double>(total_bits);
  if (spec_bool(params, Param::kScrubFaults)) {
    // Paper-plausible fault rates for the scrub datapath and golden store.
    options.scrub.link_faults = ScrubLinkFaults::leo_profile();
    options.flash_faults = FlashFaultModel::leo_profile();
  }
}

/// The mission and fleet design: lfsrmult on the request's device.
std::shared_ptr<const PlacedDesign> mission_design(const FlatJson& params) {
  return request_design("lfsrmult", spec_string(params, Param::kDevice));
}

/// The sensitivity campaign missions are judged against — shared pool and
/// store, so concurrent mission requests for the same device reuse each
/// other's verdicts instead of re-simulating the map.
CampaignResult mission_sensitivity_campaign(const PlacedDesign& design,
                                            const RequestContext& ctx) {
  CampaignOptions copts;
  copts.sample_bits = 10000;
  if (ctx.store != nullptr) copts.with_shared_store(ctx.store);
  if (ctx.pool != nullptr) copts.with_shared_pool(ctx.pool);
  const std::atomic<bool>* cancelled = ctx.cancelled;
  copts.with_progress([cancelled](const CampaignProgress&) {
    return cancelled == nullptr || !cancelled->load(std::memory_order_relaxed);
  });
  return run_campaign(design, copts);
}

JsonReport run_mission_request(const FlatJson& params,
                               const RequestContext& ctx) {
  MetricsRegistry metrics;
  PayloadOptions options;
  options.metrics = &metrics;
  fly_mission(params, ctx, options);
  return mission_report_json(metrics);
}

JsonReport run_fleet_request(const FlatJson& params,
                             const RequestContext& ctx) {
  const FleetRun run =
      fly_fleet(params, ctx, static_cast<u32>(params.get_u64("threads", 0)));
  return run.race.entries.empty() ? fleet_report_json(run.fleet)
                                  : policy_race_report_json(run.race);
}

}  // namespace

MissionReport fly_mission(const FlatJson& params, const RequestContext& ctx,
                          PayloadOptions& options) {
  const auto shared = mission_design(params);
  const PlacedDesign& design = *shared;
  const CampaignResult camp = mission_sensitivity_campaign(design, ctx);
  apply_mission_params(params, options, design.space->total_bits());
  const std::string policy = spec_string(params, Param::kScrubPolicy);
  if (!policy.empty()) options.scrub.policy = make_scrub_policy(policy);
  options.seed = spec_u64(params, Param::kSeed, 4242);
  Payload payload(design, options, camp.sensitive_set(design));
  return payload.run_mission(SimTime::hours(spec_double(params, Param::kHours)));
}

FleetRun fly_fleet(const FlatJson& params, const RequestContext& ctx,
                   u32 threads) {
  const auto shared = mission_design(params);
  const PlacedDesign& design = *shared;
  const CampaignResult camp = mission_sensitivity_campaign(design, ctx);
  FleetRun run;
  FleetOptions& options = run.options;
  options.missions = static_cast<u32>(spec_u64(params, Param::kMissions));
  options.base_seed = spec_u64(params, Param::kSeed, 1);
  options.threads = threads;
  options.duration = SimTime::hours(spec_double(params, Param::kHours));
  apply_mission_params(params, options.payload, design.space->total_bits());
  // Same grammar as `vscrubctl fleet --scrub-policy`: one name sets the
  // sweep's policy; a comma list or "all" races them.
  const std::vector<std::string> policies =
      parse_scrub_policy_list(spec_string(params, Param::kScrubPolicy));
  if (policies.size() > 1) {
    PolicyRaceOptions ro;
    ro.policies = policies;
    ro.fleet = options;
    run.race = run_policy_race(design, camp.sensitive_set(design), ro);
    return run;
  }
  if (policies.size() == 1) {
    options.payload.scrub.policy = make_scrub_policy(policies[0]);
  }
  run.fleet = run_fleet(design, camp.sensitive_set(design), options);
  return run;
}

JsonReport execute_request(FrameKind kind, const FlatJson& params,
                           const RequestContext& ctx) {
  switch (kind) {
    case FrameKind::kMission: return run_mission_request(params, ctx);
    case FrameKind::kFleet: return run_fleet_request(params, ctx);
    default:
      throw Error(std::string("not a mission or fleet request: ") +
                  frame_kind_name(kind));
  }
}

}  // namespace vscrub
