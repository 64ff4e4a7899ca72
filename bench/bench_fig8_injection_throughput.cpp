// E8 — §III-A / Fig. 8: fault-injection throughput.
//
// Paper numbers reproduced:
//   * "a single bit can be modified and loaded in 100 us";
//   * one corrupt/observe/repair loop iteration takes ~214 us;
//   * "exhaustively test the entire bitstream of 5.8 million bits in 20
//     minutes";
//   * "many orders of magnitude speed-up over purely software techniques" —
//     here inverted: we report how much slower our software fabric model is
//     than the modeled SLAAC-1V hardware, which is exactly the speed-up a
//     hardware testbed buys.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <vector>

#include "bench_util.h"
#include "seu/design_baseline.h"
#include "sim/gang_sim.h"

namespace vscrub::bench {
namespace {

void run_report() {
  std::printf("\nE8 — injection throughput (Fig. 8 loop)\n");
  rule();

  // Modeled SLAAC-1V timing on the real-geometry device.
  const auto big = compile(designs::counter_adder(4), device_xcv1000ish());
  SeuInjector big_injector(big, {});
  const double iter_us = big_injector.modeled_iteration_time().us();
  const double bits = static_cast<double>(big.space->total_bits());
  std::printf("XCV1000-class device: %.2f M configuration bits "
              "(paper: 5.8 M)\n", bits / 1e6);
  std::printf("modeled loop iteration: %.0f us  (paper: ~214 us)\n", iter_us);
  std::printf("modeled single-bit modify+load: %.0f us  (paper: ~100 us)\n",
              SelectMapTiming::pci_profile()
                  .frame_op(big.space->geometry().clb_frame_bytes())
                  .us());
  std::printf("exhaustive campaign, modeled: %.1f minutes  (paper: ~20 min)\n",
              bits * iter_us / 60e6);

  // Software wall-clock on the campaign device: the scalar loop and the
  // host's gang engine (512 lanes on AVX-512, 256 portable lanes elsewhere),
  // over the identical sampled workload. Sensitive-bit recording stays on so
  // both digests can be compared: the speedup is only a valid claim if the
  // verdicts are bit-identical.
  Workbench bench(campaign_device());
  const PlacedDesign design = bench.compile(designs::mult_tree(8));

  // Per-design set-up, before any campaign touches the design: SeuInjector
  // plus its gang engine, then the verdict-store key plan. The first of each
  // builds the design's DesignBaseline products (configured fabric, golden
  // trace, observability map, eval plan; the key plan's golden-run probe);
  // later ones borrow them.
  const auto ms_since = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  const auto injector_setup_ms = [&design, &ms_since] {
    const auto t0 = std::chrono::steady_clock::now();
    SeuInjector injector(design, {});
    if (!injector.gang_capable()) {
      std::printf("design is not gang-capable\n");
      return ms_since(t0);
    }
    // The engine the injector's first gang run builds.
    const DesignBaseline& baseline = injector.baseline();
    const GangSim engine(injector.design(), baseline.fabric(),
                         *baseline.plan());
    return ms_since(t0);
  };
  const auto keyplan_ms = [&design, &ms_since] {
    const auto t0 = std::chrono::steady_clock::now();
    const CacheKeyPlan plan = build_cache_key_plan(design, {});
    if (plan.frame_hashes.empty()) std::printf("empty key plan\n");
    return ms_since(t0);
  };
  const double setup_first_ms = injector_setup_ms();
  const double setup_warm_ms = injector_setup_ms();
  const double keyplan_first_ms = keyplan_ms();
  const double keyplan_warm_ms = keyplan_ms();
  // The golden eval plan the engine settles with: constant and half-latch
  // LUT inputs are folded away, so operands count live reads only.
  std::size_t plan_ops = 0, plan_lut_operands = 0;
  const auto baseline = DesignBaseline::of(design);
  if (const EvalPlan* plan = baseline->plan()) {
    plan_ops = plan->ops.size();
    for (const EvalPlan::Op& op : plan->ops) {
      if (op.kind == EvalPlan::OpKind::kLut) plan_lut_operands += op.arity;
    }
  }
  std::printf("injector + gang engine set-up: %.1f ms first, %.1f ms warm; "
              "key plan %.1f ms first, %.2f ms warm; eval plan %zu ops, %zu "
              "live LUT operands\n",
              setup_first_ms, setup_warm_ms, keyplan_first_ms, keyplan_warm_ms,
              plan_ops, plan_lut_operands);

  auto sampled = [&](u32 gang_width) {
    CampaignOptions copts;
    copts.sample_bits = 6000;
    // Fixed 2048-bit chunks keep several hundred eligible bits per batch so
    // lane occupancy reflects the engine, not the scheduler. Chunking never
    // changes results, only wall clock.
    copts.chunk_size = 2048;
    copts.injection.gang_width = gang_width;
    return run_campaign(design, copts);
  };
  const CampaignResult scalar_camp = sampled(1);
  // The gang campaign is timed as the median of kGangRuns runs in this
  // process, with the fastest and slowest beside it: one run per fresh
  // process spreads 2-3x between processes.
  constexpr std::size_t kGangRuns = 5;
  std::vector<CampaignResult> gang_camps;
  for (std::size_t i = 0; i < kGangRuns; ++i) {
    gang_camps.push_back(sampled(preferred_gang_width()));
  }
  std::sort(gang_camps.begin(), gang_camps.end(),
            [](const CampaignResult& a, const CampaignResult& b) {
              return a.wall_seconds < b.wall_seconds;
            });
  const CampaignResult& camp = gang_camps[kGangRuns / 2];
  const double scalar_us_per_bit = scalar_camp.wall_seconds * 1e6 /
                                   static_cast<double>(scalar_camp.injections);
  const double sw_us_per_bit =
      camp.wall_seconds * 1e6 / static_cast<double>(camp.injections);
  const double early_exit_rate =
      camp.phases.gang_runs > 0
          ? static_cast<double>(camp.phases.gang_early_exits) /
                static_cast<double>(camp.phases.gang_runs)
          : 0.0;
  const double lanes_per_run =
      camp.phases.gang_runs > 0
          ? static_cast<double>(camp.phases.gang_lanes) /
                static_cast<double>(camp.phases.gang_runs)
          : 0.0;
  const auto rate = [](const CampaignResult& r) {
    return static_cast<double>(r.injections) / r.wall_seconds;
  };
  // Gang-phase throughput: candidate lanes retired per second of wall clock
  // spent inside gang dispatches. The campaign-level bits/s mixes in the
  // scalar-path bits (pruned short-circuits, BRAM columns) and the
  // corrupt/repair bookkeeping, which the engine cannot touch.
  const double gang_rate =
      camp.phases.gang_s > 0.0
          ? static_cast<double>(camp.phases.gang_lanes) / camp.phases.gang_s
          : 0.0;
  const char* isa = simd_isa_name(resolve_simd_isa(SimdIsa::kAuto));
  const bool digests_match = std::all_of(
      gang_camps.begin(), gang_camps.end(), [&](const CampaignResult& r) {
        return r.sensitive_digest(design) ==
               scalar_camp.sensitive_digest(design);
      });
  rule();
  std::printf("software fabric model, scalar loop: %.0f us per injected bit "
              "(%.0f bits/s)\n",
              scalar_us_per_bit, rate(scalar_camp));
  std::printf("software fabric model, gang engine (%s, %u lanes): %.0f us per "
              "injected bit, %.0f bits/s (%.1fx; %.1f lanes/run, %.0f%% early "
              "exit, gang %.0f lanes/s); digests %s\n",
              isa, preferred_gang_width(), sw_us_per_bit, rate(camp),
              scalar_us_per_bit / sw_us_per_bit, lanes_per_run,
              early_exit_rate * 100, gang_rate,
              digests_match ? "identical" : "DIVERGED");
  std::printf("gang campaign wall clock: median %.3f s of %zu runs "
              "(min %.3f s, max %.3f s)\n",
              camp.wall_seconds, kGangRuns, gang_camps.front().wall_seconds,
              gang_camps.back().wall_seconds);
  if (sw_us_per_bit >= iter_us) {
    std::printf("hardware-testbed speed-up implied: %.0fx per bit — and the\n"
                "paper's comparison point, gate-level software simulation of\n"
                "a V1000-scale design, is orders of magnitude slower still.\n",
                sw_us_per_bit / iter_us);
  } else {
    std::printf("the ganged software model now retires a bit every %.0f us —\n"
                "%.1fx faster than the modeled %.0f us hardware iteration,\n"
                "whose loop is SelectMAP-transfer-bound, not compute-bound.\n",
                sw_us_per_bit, iter_us / sw_us_per_bit, iter_us);
  }
  std::printf("exhaustive XCV1000 campaign at software speed: %.1f minutes vs "
              "%.1f minutes in modeled hardware\n\n",
              bits * sw_us_per_bit / 60e6, bits * iter_us / 60e6);

  BenchJson json;
  json.set("injections", static_cast<double>(camp.injections));
  json.set("wall_s", camp.wall_seconds);
  json.set("wall_s_min", gang_camps.front().wall_seconds);
  json.set("wall_s_max", gang_camps.back().wall_seconds);
  json.set("gang_timed_runs", static_cast<double>(kGangRuns));
  json.set("bits_per_s",
           static_cast<double>(camp.injections) / camp.wall_seconds);
  json.set("scalar_wall_s", scalar_camp.wall_seconds);
  json.set("scalar_bits_per_s", static_cast<double>(scalar_camp.injections) /
                                    scalar_camp.wall_seconds);
  json.set("gang_runs", static_cast<double>(camp.phases.gang_runs));
  json.set("gang_lanes_per_run", lanes_per_run);
  json.set("gang_early_exit_rate", early_exit_rate);
  json.set("gang_fallbacks", static_cast<double>(camp.phases.gang_fallbacks));
  json.set("gang_width", static_cast<double>(preferred_gang_width()));
  json.set("gang_lanes_per_s", gang_rate);
  json.set("injector_setup_ms_first", setup_first_ms);
  json.set("injector_setup_ms_warm", setup_warm_ms);
  json.set("keyplan_ms_first", keyplan_first_ms);
  json.set("keyplan_ms_warm", keyplan_warm_ms);
  json.set("baseline_setup_ms_first", setup_first_ms + keyplan_first_ms);
  json.set("plan_ops", static_cast<double>(plan_ops));
  json.set("plan_lut_operands", static_cast<double>(plan_lut_operands));
  // The CI gate reads these: the host engine's campaign bits/s over the
  // scalar loop's, with both sensitive digests identical (a speedup that
  // changes verdicts is a bug, not a speedup).
  json.set("gang_speedup", rate(camp) / rate(scalar_camp));
  json.set("digest_match", digests_match ? 1.0 : 0.0);
  json.write(bench_json_path("BENCH_injection.json"));

  // Full exhaustive sweep of an XCV50-class part — the acceptance workload
  // for the incremental-repair + observability-pruning engine. Takes tens of
  // minutes of host time, so it only runs when asked:
  //   VSCRUB_E8_EXHAUSTIVE=1 ./bench_fig8_injection_throughput
  if (const char* gate = std::getenv("VSCRUB_E8_EXHAUSTIVE");
      gate != nullptr && gate[0] == '1') {
    std::printf("exhaustive XCV50-class campaign (VSCRUB_E8_EXHAUSTIVE)\n");
    rule();
    // VSCRUB_E8_GANG_WIDTH=1 runs the scalar baseline for comparison.
    u32 xgang = preferred_gang_width();
    if (const char* gw = std::getenv("VSCRUB_E8_GANG_WIDTH"); gw != nullptr) {
      xgang = static_cast<u32>(std::strtoul(gw, nullptr, 10));
    }
    Workbench xbench(device_xcv50ish());
    const PlacedDesign xdesign = xbench.compile(designs::mult_tree(8));
    const CampaignOptions xopts =
        CampaignOptions{}.with_exhaustive().with_injection(
            InjectionOptions{}.with_persistence().with_gang_width(xgang));
    const CampaignResult r = xbench.campaign(xdesign, xopts);
    // Order-independent digest of (bit, persistence) pairs: two engines
    // agree on results iff they agree on this hash.
    u64 h = 1469598103934665603ull;
    for (const auto& sb : r.sensitive_bits) {
      const u64 v =
          xdesign.space->linear_of(sb.addr) * 2 + (sb.persistent ? 1 : 0);
      h = (h ^ v) * 1099511628211ull;
    }
    std::printf("injections %llu, failures %llu, persistent %llu, pruned "
                "%llu\n",
                static_cast<unsigned long long>(r.injections),
                static_cast<unsigned long long>(r.failures),
                static_cast<unsigned long long>(r.persistent),
                static_cast<unsigned long long>(r.pruned));
    std::printf("result hash %016llx\n", static_cast<unsigned long long>(h));
    std::printf("wall %.1f s (%.1f us per bit); phases: corrupt %.1f s, run "
                "%.1f s, repair %.1f s, persistence %.1f s\n",
                r.wall_seconds,
                r.wall_seconds * 1e6 / static_cast<double>(r.injections),
                r.phases.corrupt_s, r.phases.run_s, r.phases.repair_s,
                r.phases.persist_s);
    if (r.phases.gang_runs > 0) {
      std::printf("gang: %llu runs, %.1f lanes/run, %.1f%% early exit, %llu "
                  "fallbacks\n",
                  static_cast<unsigned long long>(r.phases.gang_runs),
                  static_cast<double>(r.phases.gang_lanes) /
                      static_cast<double>(r.phases.gang_runs),
                  100.0 * static_cast<double>(r.phases.gang_early_exits) /
                      static_cast<double>(r.phases.gang_runs),
                  static_cast<unsigned long long>(r.phases.gang_fallbacks));
    }
    std::printf("\n");
    BenchJson xjson;
    xjson.set("gang_width", static_cast<double>(xgang));
    xjson.set("injections", static_cast<double>(r.injections));
    xjson.set("failures", static_cast<double>(r.failures));
    xjson.set("persistent", static_cast<double>(r.persistent));
    xjson.set("result_hash", static_cast<double>(h >> 12));  // 52-bit-safe
    xjson.set("wall_s", r.wall_seconds);
    xjson.set("bits_per_s",
              static_cast<double>(r.injections) / r.wall_seconds);
    xjson.write(bench_json_path("BENCH_injection_exhaustive.json"));
  }
}

void BM_CorruptRepairOnly(benchmark::State& state) {
  // The configuration-port half of the loop (no design execution).
  static Workbench bench(campaign_device());
  static const PlacedDesign design = bench.compile(designs::mult_tree(8));
  static FabricSim fabric(design.space);
  static bool init = [] {
    fabric.full_configure(design.bitstream);
    return true;
  }();
  (void)init;
  u64 lin = 17;
  for (auto _ : state) {
    const BitAddress addr =
        design.space->address_of_linear(lin % design.space->total_bits());
    fabric.flip_config_bit(addr);
    fabric.flip_config_bit(addr);
    lin += 7919;
  }
}
BENCHMARK(BM_CorruptRepairOnly)->Unit(benchmark::kMicrosecond);

void BM_DesignCycle(benchmark::State& state) {
  // One design clock cycle on the fabric (the observation window's unit).
  static Workbench bench(campaign_device());
  static const PlacedDesign design = bench.compile(designs::mult_tree(8));
  static FabricSim fabric(design.space);
  static DesignHarness harness(design, fabric);
  static bool init = [] {
    harness.configure();
    return true;
  }();
  (void)init;
  for (auto _ : state) {
    harness.step();
    benchmark::DoNotOptimize(harness.last_outputs());
  }
}
BENCHMARK(BM_DesignCycle)->Unit(benchmark::kMicrosecond);

void BM_FullConfigure(benchmark::State& state) {
  static Workbench bench(campaign_device());
  static const PlacedDesign design = bench.compile(designs::mult_tree(8));
  static FabricSim fabric(design.space);
  for (auto _ : state) {
    fabric.full_configure(design.bitstream);
    benchmark::DoNotOptimize(fabric.active_tile_count());
  }
}
BENCHMARK(BM_FullConfigure)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vscrub::bench

int main(int argc, char** argv) {
  vscrub::bench::run_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
