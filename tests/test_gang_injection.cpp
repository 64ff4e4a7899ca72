// Bit-sliced gang injection engine (GangSim): per-bit equivalence with the
// scalar inject() loop, early-exit soundness on reconvergent logic cones,
// and the eligibility rules (gang width, BRAM, dynamic LUTs, plan-less
// combinational loops, pruned bits).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/vscrub.h"
#include "seu/design_baseline.h"

using namespace vscrub;

namespace {

/// Every field a single injection promises to reproduce.
void expect_same_verdict(const InjectionResult& scalar,
                         const InjectionResult& gang, std::size_t i) {
  EXPECT_EQ(scalar.addr, gang.addr) << "bit " << i;
  EXPECT_EQ(scalar.output_error, gang.output_error) << "bit " << i;
  EXPECT_EQ(scalar.persistent, gang.persistent) << "bit " << i;
  EXPECT_EQ(scalar.first_error_cycle, gang.first_error_cycle) << "bit " << i;
  EXPECT_EQ(scalar.error_output_mask_lo, gang.error_output_mask_lo)
      << "bit " << i;
  EXPECT_EQ(scalar.modeled_time.ps(), gang.modeled_time.ps()) << "bit " << i;
}

std::vector<BitAddress> eligible_bits(const SeuInjector& injector,
                                      const PlacedDesign& design,
                                      u64 stride = 1) {
  std::vector<BitAddress> addrs;
  const u64 total = design.space->total_bits();
  for (u64 i = 0; i < total; i += stride) {
    const BitAddress addr = design.space->address_of_linear(i);
    if (injector.gang_eligible(addr)) addrs.push_back(addr);
  }
  return addrs;
}

}  // namespace

TEST(GangInjection, MatchesScalarPerBitExhaustive) {
  // Every gang-eligible bit of a small sequential design, verdicts compared
  // field-by-field against the scalar loop (persistence included).
  const auto design = compile(designs::counter_adder(4), device_tiny(4, 6));
  const InjectionOptions opts = InjectionOptions{}.with_persistence();

  SeuInjector gang(design, opts);
  SeuInjector scalar(design, InjectionOptions(opts).with_gang_width(1));
  ASSERT_TRUE(gang.gang_capable());
  EXPECT_FALSE(scalar.gang_capable());

  const auto addrs = eligible_bits(gang, design);
  ASSERT_GT(addrs.size(), 64u);

  const auto results = gang.run_gang(addrs);
  ASSERT_EQ(results.size(), addrs.size());
  u64 errors = 0;
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    expect_same_verdict(scalar.inject(addrs[i]), results[i], i);
    errors += results[i].output_error;
  }
  EXPECT_GT(errors, 0u);
  const u64 lanes = gang.options().gang_width - 1;
  EXPECT_EQ(gang.phases().gang_runs, (addrs.size() + lanes - 1) / lanes);
  EXPECT_EQ(gang.phases().gang_lanes, addrs.size());
}

TEST(GangInjection, EarlyExitMatchesFullScalarOnReconvergentCones) {
  // mult_tree's multiply-add tree reconverges many partial products into one
  // accumulator: corrupted lanes whose divergence dies out are retired early
  // by the golden-divergence rule, and their verdicts (including persistence,
  // which the early exit skips simulating) must equal the full-length run.
  const auto design = compile(designs::mult_tree(4), device_tiny(8, 12));
  const InjectionOptions opts =
      InjectionOptions{}.with_persistence().with_observe_cycles(96);

  SeuInjector gang(design, opts);
  SeuInjector scalar(design, InjectionOptions(opts).with_gang_width(1));
  ASSERT_TRUE(gang.gang_capable());

  // Stride the space to keep per-bit scalar reruns affordable; the stride is
  // coprime with the lane width so batches mix tiles and frames.
  const auto addrs = eligible_bits(gang, design, 13);
  ASSERT_GT(addrs.size(), 128u);

  const auto results = gang.run_gang(addrs);
  ASSERT_EQ(results.size(), addrs.size());
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    expect_same_verdict(scalar.inject(addrs[i]), results[i], i);
  }
  // The point of the test: early exits actually happened, and they happened
  // on runs whose verdicts just matched the full-length scalar loop.
  EXPECT_GT(gang.phases().gang_early_exits, 0u);
}

TEST(GangInjection, WidthOneAndBramDesignsFallBackToScalar) {
  // gang_width <= 1 disables ganging; run_gang() must still answer, via the
  // scalar loop.
  const auto design = compile(designs::counter_adder(4), device_tiny(4, 6));
  SeuInjector inj(design, InjectionOptions{}.with_gang_width(1));
  EXPECT_FALSE(inj.gang_capable());
  const std::vector<BitAddress> addrs = {design.space->address_of_linear(0)};
  const auto results = inj.run_gang(addrs);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].addr, addrs[0]);
  EXPECT_EQ(inj.phases().gang_runs, 0u);

  // Designs holding live SRL16 delay lines are not gang-capable: corrupting
  // a frame clobbers shifting cell contents mid-run, which the gang engine's
  // shared golden lane cannot represent.
  const auto fir = compile(designs::fir_preproc(2), device_tiny(8, 12));
  ASSERT_FALSE(fir.dynamic_lut_sites.empty());
  SeuInjector fir_inj(fir, InjectionOptions{});
  EXPECT_FALSE(fir_inj.gang_capable());
}

TEST(GangInjection, DesignsWithoutAnEvalPlanRunScalar) {
  // A configured combinational loop has no compiled eval plan, so the design
  // is not gang-capable: a campaign dispatches no gang run and its verdicts
  // are the scalar path's, bit for bit. The loop g1 = x & g2, g2 = g1 | x
  // (the Drc.CatchesCombinationalCycle shape; compile runs no DRC) settles
  // to o = x, so its golden trace comes from the same netlist with the loop
  // cut (g1 = x & x): the reference simulator needs an acyclic netlist.
  const auto loop_netlist = [](bool closed) {
    Netlist nl("loop");
    const NetId x = nl.add_input("x");
    const NetId g1 = nl.add_lut(0x8, {x, x});
    const NetId g2 = nl.add_lut(0xE, {g1, x});
    if (closed) nl.rewire_input(nl.net(g1).driver, 1, g2);
    nl.add_output("o", g2);
    return nl;
  };
  PlacedDesign design = compile(loop_netlist(true), device_tiny(4, 6));
  design.netlist = std::make_shared<const Netlist>(loop_netlist(false));

  EXPECT_EQ(DesignBaseline::of(design)->plan(), nullptr);
  SeuInjector inj(design, InjectionOptions{});
  EXPECT_FALSE(inj.gang_capable());

  const auto run = [&](InjectionOptions injection) {
    return run_campaign(
        design, CampaignOptions{}.with_exhaustive().with_chunk_size(64)
                    .with_injection(injection));
  };
  const CampaignResult gang = run(InjectionOptions{});
  const CampaignResult scalar = run(InjectionOptions{}.with_gang_width(1));
  // The loop runs true to its reference: most flips change nothing.
  EXPECT_GT(scalar.failures, 0u);
  EXPECT_LT(scalar.failures, scalar.injections / 2);
  EXPECT_EQ(gang.phases.gang_runs, 0u);
  EXPECT_EQ(gang.phases.gang_lanes, 0u);
  ASSERT_EQ(gang.injections, scalar.injections);
  ASSERT_EQ(gang.failures, scalar.failures);
  ASSERT_EQ(gang.sensitive_bits.size(), scalar.sensitive_bits.size());
  for (std::size_t i = 0; i < gang.sensitive_bits.size(); ++i) {
    const auto& a = scalar.sensitive_bits[i];
    const auto& b = gang.sensitive_bits[i];
    EXPECT_EQ(a.addr, b.addr) << "sensitive bit " << i;
    EXPECT_EQ(a.persistent, b.persistent) << "sensitive bit " << i;
    EXPECT_EQ(a.first_error_cycle, b.first_error_cycle)
        << "sensitive bit " << i;
    EXPECT_EQ(a.error_output_mask_lo, b.error_output_mask_lo)
        << "sensitive bit " << i;
  }
}

TEST(GangInjection, PrunedBitsAreNotGangEligible) {
  // Observability-pruned bits stay on the scalar path, which short-circuits
  // them without a clocked run; padding slots and idle-region bits must not
  // occupy gang lanes.
  const auto design = compile(designs::counter_adder(4), device_tiny(4, 6));
  SeuInjector inj(design, InjectionOptions{});
  const u64 total = design.space->total_bits();
  u64 eligible = 0, skipped = 0;
  for (u64 i = 0; i < total; ++i) {
    const BitAddress addr = design.space->address_of_linear(i);
    if (inj.gang_eligible(addr)) {
      ++eligible;
      EXPECT_TRUE(inj.bit_observable(addr));
    } else {
      ++skipped;
    }
  }
  EXPECT_GT(eligible, 0u);
  EXPECT_GT(skipped, 0u);  // device_tiny(4, 6) has idle regions
}
