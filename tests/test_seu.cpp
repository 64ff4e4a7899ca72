#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "designs/test_designs.h"
#include "pnr/pnr.h"
#include "seu/campaign.h"
#include "seu/design_baseline.h"
#include "sim/gang_sim.h"
#include "sim/harness.h"
#include "svc/partition.h"
#include "svc/requests.h"

namespace vscrub {
namespace {

PlacedDesign small_counter() {
  return compile(designs::counter_adder(8), device_tiny(8, 8));
}

TEST(SeuInjector, PaddingBitsAreInsensitive) {
  const auto design = small_counter();
  SeuInjector injector(design, {});
  int checked = 0;
  for (u16 tb = 0; tb < kTileConfigBits && checked < 6; ++tb) {
    if (ConfigSpace::meaning_of_tile_bit(tb).kind != FieldKind::kPad) continue;
    ++checked;
    const auto r = injector.inject(design.space->address_of(TileCoord{2, 2}, tb));
    EXPECT_FALSE(r.output_error);
  }
  EXPECT_GT(checked, 0);
}

TEST(SeuInjector, RoutedWireBitsAreSensitive) {
  const auto design = small_counter();
  SeuInjector injector(design, {});
  // Flip the low bit of routed wires' OMUX codes: rerouting a live net must
  // disturb outputs for at least some of them.
  int errors = 0, tried = 0;
  for (const RoutedNet& net : design.routed_nets) {
    for (const RoutedWire& rw : net.wires) {
      if (tried >= 12) break;
      ++tried;
      const u8 wire = static_cast<u8>(static_cast<int>(rw.dir) * kWiresPerDir +
                                      rw.windex);
      const u16 tb = ConfigSpace::tile_bit_of_field(FieldKind::kOmux, wire, 0);
      const auto r = injector.inject(design.space->address_of(rw.tile, tb));
      if (r.output_error) ++errors;
    }
  }
  EXPECT_GE(errors, 4) << "rerouting live wires barely ever failed";
}

TEST(SeuInjector, InjectionIsRepeatable) {
  const auto design = small_counter();
  SeuInjector injector(design, {});
  const BitAddress addr = design.space->address_of_linear(12345);
  const auto r1 = injector.inject(addr);
  const auto r2 = injector.inject(addr);
  EXPECT_EQ(r1.output_error, r2.output_error);
  EXPECT_EQ(r1.first_error_cycle, r2.first_error_cycle);
}

TEST(SeuInjector, NoResidueAcrossThousandsOfInjections) {
  // After any injection+repair+reset sequence, a clean run must match the
  // golden trace exactly — state must never leak between injections.
  const auto design = small_counter();
  InjectionOptions opts;
  SeuInjector injector(design, opts);
  for (u64 lin = 0; lin < design.space->total_bits(); lin += 97) {
    injector.inject(design.space->address_of_linear(lin));
  }
  auto& h = injector.harness();
  h.restart();
  const auto& eff = injector.options();  // warmup may have been adapted
  for (u32 t = 0; t < eff.warmup_cycles + eff.observe_cycles; ++t) {
    h.step();
    ASSERT_EQ(h.last_outputs(), injector.golden()[t]) << "residue at " << t;
  }
}

TEST(SeuInjector, OscillatingBitLeavesNoResidueForTheNextBit) {
  // Bit 60038 of lfsrmult on the campaign device builds a loop that hits
  // the oscillation bound. Before the injector rebuilt its fabric after such
  // a run, the unsettled wire and comb values it left made each victim below
  // report an output error at cycle 8, whatever its own verdict was.
  const auto design =
      compile(designs::lfsr_multiplier(10), device_tiny(12, 16));
  const auto at = [&](u64 linear) {
    return design.space->address_of_linear(linear);
  };
  SeuInjector shared(design, {});
  for (const u64 victim : {47597u, 66326u, 34788u}) {
    SeuInjector fresh(design, {});
    const InjectionResult want = fresh.inject(at(victim));
    ASSERT_TRUE(shared.inject(at(60038)).fabric_oscillated);
    const InjectionResult got = shared.inject(at(victim));
    EXPECT_EQ(got.output_error, want.output_error) << victim;
    EXPECT_EQ(got.persistent, want.persistent) << victim;
    EXPECT_EQ(got.first_error_cycle, want.first_error_cycle) << victim;
    EXPECT_EQ(got.error_output_mask_lo, want.error_output_mask_lo) << victim;
  }
}

TEST(SeuInjector, ModeledIterationTimeNearPaper) {
  // Paper §III-A: one corrupt/observe/repair iteration takes ~214 us on the
  // SLAAC-1V (XCV1000, 156-byte frames).
  const auto design =
      compile(designs::counter_adder(4), device_xcv1000ish());
  SeuInjector injector(design, {});
  const double us = injector.modeled_iteration_time().us();
  EXPECT_NEAR(us, 214.0, 25.0);
}

TEST(Campaign, DeterministicForFixedSeeds) {
  const auto design = small_counter();
  CampaignOptions opts;
  opts.sample_bits = 1500;
  const auto r1 = run_campaign(design, opts);
  const auto r2 = run_campaign(design, opts);
  EXPECT_EQ(r1.failures, r2.failures);
  EXPECT_EQ(r1.persistent, r2.persistent);
  EXPECT_EQ(r1.sensitive_bits.size(), r2.sensitive_bits.size());
}

TEST(Campaign, SampledApproximatesExhaustive) {
  const auto design = compile(designs::counter_adder(6), device_tiny(4, 8));
  CampaignOptions exhaustive;
  exhaustive.record_sensitive_bits = false;
  const auto full = run_campaign(design, exhaustive);
  CampaignOptions sampled = exhaustive;
  sampled.sample_bits = full.device_bits / 3;
  const auto part = run_campaign(design, sampled);
  EXPECT_NEAR(part.sensitivity(), full.sensitivity(),
              3.0 * full.sensitivity() / 10.0 + 0.01);
}

TEST(Campaign, SampleWithoutReplacement) {
  const auto design = compile(designs::counter_adder(6), device_tiny(4, 8));
  CampaignOptions opts;
  opts.sample_bits = 2000;
  const auto r = run_campaign(design, opts);
  EXPECT_EQ(r.injections, 2000u);
  // Sensitive-bit addresses must be unique.
  for (std::size_t i = 1; i < r.sensitive_bits.size(); ++i) {
    EXPECT_TRUE(r.sensitive_bits[i - 1].addr < r.sensitive_bits[i].addr);
  }
}

u64 fnv_of_bits(const std::vector<u64>& bits) {
  u64 h = 0xCBF29CE484222325ULL;
  for (const u64 b : bits) {
    for (int i = 0; i < 8; ++i) {
      h ^= (b >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

TEST(Campaign, SampleOrderIsPinned) {
  // The 8,000-bit seed-41 sample of the campaign device, as the node-map
  // Fisher–Yates drew it before ranges stopped at their end. Served and
  // sharded campaigns index their references by this order.
  CampaignOptions opts = CampaignOptions{}.with_sample(8000, 41);
  opts.record_sampled_bits = true;
  opts.record_sensitive_bits = false;
  const auto r =
      run_campaign(compile(designs::lfsr_cluster(1), device_tiny(12, 16)), opts);
  ASSERT_EQ(r.sampled_bits.size(), 8000u);
  EXPECT_EQ(r.sampled_bits.front(), 123339u);
  EXPECT_EQ(r.sampled_bits.back(), 58528u);
  EXPECT_EQ(fnv_of_bits(r.sampled_bits), 15847932545971973835ULL);
}

TEST(Campaign, RangeUniverseIsTheSliceOfTheWholeUniverse) {
  const u64 total_bits = device_tiny(12, 16).total_config_bits();
  for (const bool sampled : {true, false}) {
    CampaignOptions opts;
    if (sampled) opts.with_sample(8000, 41);
    const std::vector<u64> whole = campaign_universe(total_bits, opts);
    ASSERT_EQ(whole.size(), universe_size(total_bits, opts));
    const u64 n = std::min<u64>(whole.size(), 8000);
    for (const BitRange& range : partition_universe(n, 6)) {
      CampaignOptions ranged = opts;
      ranged.with_range(range.begin, range.end);
      const std::vector<u64> slice = campaign_universe(total_bits, ranged);
      EXPECT_TRUE(std::equal(slice.begin(), slice.end(),
                             whole.begin() + static_cast<i64>(range.begin),
                             whole.begin() + static_cast<i64>(range.end)))
          << sampled << " [" << range.begin << ", " << range.end << ")";
    }
    // A range reaching past the universe is clipped to it.
    CampaignOptions tail = opts;
    tail.with_range(whole.size() - 5, whole.size() + 100);
    EXPECT_EQ(campaign_universe(total_bits, tail).size(), 5u);
  }
}

TEST(Campaign, PersistenceSeparatesDesignClasses) {
  // Paper Table II: feed-forward multiply-add has ~0% persistence; the LFSR
  // is almost entirely persistent; the counter/adder sits between.
  CampaignOptions opts;
  opts.sample_bits = 4000;
  opts.injection.classify_persistence = true;

  const auto ff = run_campaign(
      compile(designs::multiply_add(6), device_tiny(8, 12)), opts);
  const auto lfsr = run_campaign(
      compile(designs::lfsr_cluster(1), device_tiny(8, 12)), opts);

  ASSERT_GT(ff.failures, 10u);
  ASSERT_GT(lfsr.failures, 10u);
  EXPECT_LT(ff.persistence_ratio(), 0.25);
  EXPECT_GT(lfsr.persistence_ratio(), 0.75);
  EXPECT_LT(ff.persistence_ratio(), lfsr.persistence_ratio());
}

TEST(Campaign, RoutingDominatesSensitiveCrossSection) {
  const auto design = small_counter();
  CampaignOptions opts;
  opts.sample_bits = 6000;
  const auto r = run_campaign(design, opts);
  u64 routing = r.failures_by_field.count(static_cast<u8>(FieldKind::kOmux))
                    ? r.failures_by_field.at(static_cast<u8>(FieldKind::kOmux))
                    : 0;
  routing += r.failures_by_field.count(static_cast<u8>(FieldKind::kImux))
                 ? r.failures_by_field.at(static_cast<u8>(FieldKind::kImux))
                 : 0;
  ASSERT_GT(r.failures, 0u);
  EXPECT_GT(static_cast<double>(routing) / static_cast<double>(r.failures), 0.5);
}

TEST(Campaign, NormalizedSensitivityIsSizeInvariant) {
  // Paper Table I: LFSR18..72 all normalize to ~7.3-7.6%. Same family at
  // two sizes must normalize to similar values.
  CampaignOptions opts;
  opts.sample_bits = 6000;
  opts.record_sensitive_bits = false;
  const auto small =
      run_campaign(compile(designs::lfsr_cluster(1), device_tiny(12, 16)), opts);
  const auto large =
      run_campaign(compile(designs::lfsr_cluster(2), device_tiny(12, 16)), opts);
  ASSERT_GT(small.failures, 20u);
  ASSERT_GT(large.failures, 20u);
  // Raw sensitivity roughly doubles with size...
  EXPECT_GT(large.sensitivity(), small.sensitivity() * 1.4);
  // ...while normalized sensitivity stays within a factor ~1.5.
  const double ratio =
      large.normalized_sensitivity() / small.normalized_sensitivity();
  EXPECT_GT(ratio, 0.6);
  EXPECT_LT(ratio, 1.6);
}

// ---- DesignBaseline: a design's fixed products, built once per process ----

/// Asserts two fabrics agree in every value and structure array: outputs,
/// wires, FFs, half-latches, BRAM output registers, pin and wire sources and
/// every tile's decode with its derived caches.
void expect_same_fabric(const FabricSim& a, const FabricSim& b,
                        const std::string& context) {
  ASSERT_EQ(a.geometry().name, b.geometry().name) << context;
  EXPECT_EQ(a.out_values(), b.out_values()) << context;
  EXPECT_EQ(a.wire_values(), b.wire_values()) << context;
  EXPECT_EQ(a.ff_state_snapshot(), b.ff_state_snapshot()) << context;
  EXPECT_EQ(a.halflatch_values(), b.halflatch_values()) << context;
  EXPECT_EQ(a.dirty_frames(), b.dirty_frames()) << context;
  EXPECT_EQ(a.cycle_count(), b.cycle_count()) << context;
  EXPECT_EQ(a.oscillating(), b.oscillating()) << context;
  const DeviceGeometry& geom = a.geometry();
  for (u16 col = 0; col < geom.bram_columns; ++col) {
    for (u16 blk = 0; blk < geom.bram_blocks_per_column(); ++blk) {
      EXPECT_EQ(a.bram_dout(col, blk), b.bram_dout(col, blk)) << context;
    }
  }
  for (u32 t = 0; t < geom.tile_count(); ++t) {
    const FabricSim::Tile& x = a.tile_state(t);
    const FabricSim::Tile& y = b.tile_state(t);
    const std::string at = context + " tile " + std::to_string(t);
    for (int l = 0; l < kLutsPerClb; ++l) {
      ASSERT_EQ(x.lut_cells[l], y.lut_cells[l]) << at;
      ASSERT_EQ(x.lut_mode[l], y.lut_mode[l]) << at;
      ASSERT_EQ(x.lut_base_idx[l], y.lut_base_idx[l]) << at;
      ASSERT_EQ(x.lut_dyn_mask[l], y.lut_dyn_mask[l]) << at;
    }
    for (int p = 0; p < kImuxPins; ++p) {
      ASSERT_EQ(x.imux[p], y.imux[p]) << at;
      ASSERT_EQ(a.pin_source(t, static_cast<u8>(p)),
                b.pin_source(t, static_cast<u8>(p)))
          << at;
    }
    for (int w = 0; w < kWiresPerClb; ++w) {
      ASSERT_EQ(x.omux[w], y.omux[w]) << at;
      ASSERT_EQ(a.wire_source(t, static_cast<u8>(w)),
                b.wire_source(t, static_cast<u8>(w)))
          << at;
    }
    for (int f = 0; f < kFfsPerClb; ++f) {
      ASSERT_EQ(x.ff_init[f], y.ff_init[f]) << at;
      ASSERT_EQ(x.ff_used[f], y.ff_used[f]) << at;
      ASSERT_EQ(x.ff_byp[f], y.ff_byp[f]) << at;
    }
    for (int sl = 0; sl < kSlicesPerClb; ++sl) {
      ASSERT_EQ(x.clk_en[sl], y.clk_en[sl]) << at;
    }
    ASSERT_EQ(x.driven_wires, y.driven_wires) << at;
    ASSERT_EQ(x.connected_pins, y.connected_pins) << at;
    ASSERT_EQ(x.active, y.active) << at;
    ASSERT_EQ(x.has_local_feedback, y.has_local_feedback) << at;
    ASSERT_EQ(x.active_lut_mask, y.active_lut_mask) << at;
    ASSERT_EQ(x.override_mask, y.override_mask) << at;
    ASSERT_EQ(x.override_vals, y.override_vals) << at;
  }
}

/// A new fabric, full_configure() and a harness restart.
FabricSim freshly_configured(const PlacedDesign& design) {
  FabricSim sim(design.space);
  DesignHarness harness(design, sim);
  harness.configure();
  return sim;
}

/// The baseline's fabric copied plus a harness restart, as its borrowers
/// (the injector, the gang engine's decode oracle) do it.
FabricSim baseline_configured(const PlacedDesign& design) {
  FabricSim sim = DesignBaseline::of(design)->fabric();
  DesignHarness harness(design, sim);
  harness.restart();
  return sim;
}

TEST(ConfiguredFabric, CopyPlusRestartEqualsFreshConfigure) {
  for (const char* device : {"campaign", "xcv50"}) {
    for (const char* name : {"lfsr", "mult", "vmult", "counter", "multadd",
                             "lfsrmult", "fir", "selfcheck", "bram"}) {
      const std::string context = std::string(name) + " on " + device;
      if (context == "bram on campaign") continue;  // the device has no BRAM
      const auto design = request_design(name, device);
      const FabricSim fresh = freshly_configured(*design);
      // The first call may build the entry, the second must hit it; both
      // must equal the fresh fabric.
      expect_same_fabric(baseline_configured(*design), fresh, context);
      expect_same_fabric(baseline_configured(*design), fresh,
                         context + " (warm)");
      // And they keep agreeing once the design runs.
      FabricSim a = baseline_configured(*design);
      FabricSim b = freshly_configured(*design);
      DesignHarness ha(*design, a), hb(*design, b);
      ha.restart();
      hb.restart();
      for (int cycle = 0; cycle < 8; ++cycle) {
        ha.step();
        hb.step();
        ASSERT_EQ(ha.last_outputs(), hb.last_outputs())
            << context << " cycle " << cycle;
      }
    }
  }
}

TEST(ConfiguredFabric, EditedBitstreamsAndRecycledAddressesGetFreshFabrics) {
  PlacedDesign design = compile(designs::counter_adder(4), device_tiny(8, 8));
  const FabricSim before = baseline_configured(design);

  // Flip a LUT truth bit of the bitstream in place: same object, same
  // address, new content.
  const BitAddress addr = design.space->address_of(
      TileCoord{1, 1}, ConfigSpace::tile_bit_of_field(FieldKind::kLutTruth, 0));
  design.bitstream.flip_bit(addr);
  const FabricSim edited = baseline_configured(design);
  expect_same_fabric(edited, freshly_configured(design), "edited");
  const u32 t = design.space->geometry().tile_index(TileCoord{1, 1});
  EXPECT_NE(edited.tile_state(t).lut_cells[0],
            before.tile_state(t).lut_cells[0]);

  // Flipping it back finds the original content again.
  design.bitstream.flip_bit(addr);
  expect_same_fabric(baseline_configured(design), before, "restored");

  // A different design compiled onto the same device, very likely at the
  // address the first one just vacated.
  auto first = std::make_unique<PlacedDesign>(
      compile(designs::lfsr_cluster(2), device_tiny(8, 12)));
  const FabricSim first_fabric = baseline_configured(*first);
  first.reset();
  auto second = std::make_unique<PlacedDesign>(
      compile(designs::mult_tree(4), device_tiny(8, 12)));
  const FabricSim second_fabric = baseline_configured(*second);
  expect_same_fabric(second_fabric, freshly_configured(*second), "recycled");
  bool differs = false;
  for (u32 i = 0; i < second->space->geometry().tile_count() && !differs; ++i) {
    differs = std::memcmp(second_fabric.tile_state(i).lut_cells,
                          first_fabric.tile_state(i).lut_cells,
                          sizeof(u16) * kLutsPerClb) != 0;
  }
  EXPECT_TRUE(differs) << "the two designs configure identical LUTs";
}

TEST(ConfiguredFabric, NetlistsDifferingUnderAnEqualBitstreamGetTheirOwnEntry) {
  // The golden trace comes from the netlist, so an AND gate and an OR gate
  // sharing one bitstream and harness must not share a baseline.
  const auto gate = [](u16 truth) {
    Netlist nl("gate");
    const NetId a = nl.add_input("a");
    const NetId b = nl.add_input("b");
    nl.add_output("o", nl.add_lut(truth, {a, b}));
    return nl;
  };
  const PlacedDesign and_gate = compile(gate(0x8), device_tiny(4, 6));
  PlacedDesign or_netlist = and_gate;
  or_netlist.netlist = std::make_shared<const Netlist>(gate(0xE));
  const auto a = DesignBaseline::of(and_gate);
  const auto b = DesignBaseline::of(or_netlist);
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a->golden({}), b->golden({}));
  EXPECT_EQ(a->golden({}), DesignHarness::reference_trace(
                               *and_gate.netlist, a->golden({}).size()));
  expect_same_fabric(a->fabric(), b->fabric(), "equal bitstreams");
}

TEST(ConfiguredFabric, ConcurrentRequestsGetEqualFabrics) {
  const PlacedDesign design =
      compile(designs::lfsr_cluster(2), device_tiny(8, 16));
  // Whether or not the memo has room for it, this entry's products are
  // built once: every asker below waits for the one build of each.
  const auto shared = DesignBaseline::of(design);
  constexpr int kThreads = 8;
  std::vector<std::optional<FabricSim>> got(kThreads);
  std::vector<const EvalPlan*> plans(kThreads);
  std::vector<const CacheKeyPlan*> key_plans(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      const auto at = static_cast<std::size_t>(i);
      got[at].emplace(DesignBaseline::of(design)->fabric());
      plans[at] = shared->plan();
      key_plans[at] = &shared->key_plan({});
    });
  }
  for (std::thread& th : threads) th.join();
  FabricSim fresh(design.space);
  fresh.full_configure(design.bitstream);
  ASSERT_NE(plans[0], nullptr);
  for (int i = 0; i < kThreads; ++i) {
    const auto at = static_cast<std::size_t>(i);
    expect_same_fabric(*got[at], fresh, "thread " + std::to_string(i));
    EXPECT_EQ(plans[at], plans[0]) << "thread " << i;
    EXPECT_EQ(key_plans[at], key_plans[0]) << "thread " << i;
  }
}

TEST(DesignBaseline, InjectorsOnOneDesignRunOnePlanAndOneTrace) {
  const PlacedDesign design =
      compile(designs::mult_tree(4), device_tiny(8, 12));
  const auto baseline = DesignBaseline::of(design);
  SeuInjector a(baseline, {});
  SeuInjector b(baseline, {});
  ASSERT_TRUE(a.gang_capable());
  ASSERT_TRUE(b.gang_capable());
  EXPECT_EQ(&a.baseline(), &b.baseline());
  EXPECT_EQ(&a.golden(), &b.golden());
  EXPECT_EQ(&a.golden(), &baseline->golden({}));
  EXPECT_EQ(&baseline->observable(), &baseline->observable());

  // The plan is built once, and an engine borrows it rather than compiling
  // its own: each injector builds its engine exactly like this one.
  const EvalPlan* plan = baseline->plan();
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(baseline->plan(), plan);
  const GangSim engine(baseline->design(), baseline->fabric(), *plan);
  EXPECT_EQ(&engine.plan(), plan);

  // Both injectors' engines give the scalar loop's verdicts.
  std::vector<BitAddress> bits;
  for (u64 linear = 0; bits.size() < 64 && linear < design.space->total_bits();
       linear += 97) {
    const BitAddress addr = design.space->address_of_linear(linear);
    if (a.gang_eligible(addr)) bits.push_back(addr);
  }
  ASSERT_EQ(bits.size(), 64u);
  const std::vector<InjectionResult> ra = a.run_gang(bits);
  const std::vector<InjectionResult> rb = b.run_gang(bits);
  EXPECT_GT(a.phases().gang_runs, 0u);
  SeuInjector scalar(baseline, InjectionOptions{}.with_gang_width(1));
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const InjectionResult want = scalar.inject(bits[i]);
    EXPECT_EQ(ra[i].output_error, want.output_error) << i;
    EXPECT_EQ(rb[i].output_error, want.output_error) << i;
    EXPECT_EQ(ra[i].first_error_cycle, want.first_error_cycle) << i;
    EXPECT_EQ(rb[i].first_error_cycle, want.first_error_cycle) << i;
  }
}

TEST(DesignBaseline, EachVerdictOptionSetGetsItsOwnTraceAndKeyPlan) {
  const auto baseline = DesignBaseline::of(
      compile(designs::mult_tree(4), device_tiny(8, 12)));
  const InjectionOptions plain;
  const InjectionOptions reseeded =
      InjectionOptions{}.with_stim_seed(plain.stim_seed + 1);
  const InjectionOptions persistent =
      InjectionOptions{}.with_persistence_window(32, 16);

  // Built once per option set: every ask returns the same objects, also for
  // options no verdict depends on and for a warmup the design shrinks to the
  // same effective count.
  const std::vector<OutputWord>& golden = baseline->golden(plain);
  const CacheKeyPlan& plan = baseline->key_plan(plain);
  for (const InjectionOptions& same :
       {plain, InjectionOptions{}.with_gang_width(1).with_pruning(false),
        InjectionOptions{}.with_warmup_cycles(40)}) {
    EXPECT_EQ(&baseline->golden(same), &golden);
    EXPECT_EQ(&baseline->key_plan(same), &plan);
  }
  EXPECT_EQ(golden.size(), baseline->effective(plain).warmup_cycles +
                               std::size_t{plain.observe_cycles});

  // Same bitstream, other stimulus seed: its own trace and plan.
  EXPECT_NE(&baseline->golden(reseeded), &golden);
  EXPECT_NE(&baseline->key_plan(reseeded), &plan);
  EXPECT_NE(baseline->golden(reseeded), golden);
  EXPECT_EQ(baseline->golden(reseeded),
            DesignHarness::reference_trace(*baseline->design().netlist,
                                           golden.size(), reseeded.stim_seed));
  EXPECT_NE(baseline->key_plan(reseeded).stimulus_hash, plan.stimulus_hash);
  EXPECT_EQ(baseline->key_plan(reseeded).arch_fingerprint,
            plan.arch_fingerprint);

  // Other persistence window: a longer trace and another fingerprint.
  EXPECT_NE(&baseline->golden(persistent), &golden);
  EXPECT_EQ(baseline->golden(persistent).size(), golden.size() + 48);
  EXPECT_NE(baseline->key_plan(persistent).arch_fingerprint,
            plan.arch_fingerprint);
  EXPECT_EQ(baseline->key_plan(persistent).frame_hashes, plan.frame_hashes);
  EXPECT_FALSE(baseline->baseline_oscillates(persistent));
}

/// FNV-1a, byte by byte, over a key plan's per-tile influence hashes.
u64 influence_fold(const CacheKeyPlan& plan) {
  u64 h = 0xCBF29CE484222325ULL;
  for (const u64 v : plan.tile_influence) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

TEST(DesignBaseline, KeyPlansArePinned) {
  // Taken before the key plan moved into the baseline. Stored verdicts are
  // found by these keys, so a drift must fail here rather than turn every
  // warm store cold.
  struct Pin {
    const char* design;
    bool persistence;
    u64 arch_fingerprint, stimulus_hash, whole_design_hash, influence;
  };
  const Pin pins[] = {
      {"mult", false, 3163359013673541823ull, 9957998893996728456ull,
       2569855570608884046ull, 13937109161420166901ull},
      {"mult", true, 9789511132576982494ull, 16442422310098038328ull,
       2569855570608884046ull, 13937109161420166901ull},
      {"lfsrmult", false, 3163359013673541823ull, 2304149618532674557ull,
       7956173619229723788ull, 7974822877112803515ull},
      {"lfsrmult", true, 9789511132576982494ull, 4870077252301756485ull,
       7956173619229723788ull, 7974822877112803515ull},
  };
  for (const Pin& pin : pins) {
    const std::string context =
        std::string(pin.design) + (pin.persistence ? " persistence" : "");
    const CacheKeyPlan plan = build_cache_key_plan(
        *request_design(pin.design, "campaign"),
        InjectionOptions{}.with_persistence(pin.persistence));
    EXPECT_EQ(plan.arch_fingerprint, pin.arch_fingerprint) << context;
    EXPECT_EQ(plan.stimulus_hash, pin.stimulus_hash) << context;
    EXPECT_EQ(plan.whole_design_hash, pin.whole_design_hash) << context;
    EXPECT_FALSE(plan.whole_design_influence) << context;
    EXPECT_EQ(influence_fold(plan), pin.influence) << context;
  }
}

}  // namespace
}  // namespace vscrub
