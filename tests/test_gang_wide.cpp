// The wide-gang SIMD engine: differential proof that every (width, ISA,
// plan) combination produces verdicts bit-identical to the scalar injection
// loop and to each other — plus the typed width/ISA contract errors at every
// intake surface (GangSim, SeuInjector, VSRP1 requests).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/vscrub.h"
#include "sim/gang_sim.h"
#include "svc/protocol.h"
#include "svc/requests.h"

using namespace vscrub;

namespace {

void expect_same_verdict(const InjectionResult& want,
                         const InjectionResult& got, const std::string& tag,
                         std::size_t i) {
  ASSERT_EQ(want.addr, got.addr) << tag << " bit " << i;
  ASSERT_EQ(want.output_error, got.output_error) << tag << " bit " << i;
  ASSERT_EQ(want.persistent, got.persistent) << tag << " bit " << i;
  ASSERT_EQ(want.first_error_cycle, got.first_error_cycle)
      << tag << " bit " << i;
  ASSERT_EQ(want.error_output_mask_lo, got.error_output_mask_lo)
      << tag << " bit " << i;
  ASSERT_EQ(want.modeled_time.ps(), got.modeled_time.ps())
      << tag << " bit " << i;
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

/// ISA names this binary can actually execute right now; always contains
/// "scalar". Each gets forced explicitly so the differential coverage is per
/// code path, not just whatever auto-dispatch picks.
std::vector<std::string> usable_isa_names() {
  std::vector<std::string> names;
  for (const char* name : {"scalar", "avx2", "avx512"}) {
    if (simd_isa_usable(parse_simd_isa(name))) names.push_back(name);
  }
  return names;
}

/// RAII environment-variable override (VSCRUB_FORCE_ISA tests).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      saved_ = old;
      had_ = true;
    }
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

}  // namespace

// ---------------------------------------------------------------------------
// Differential battery: every width x ISA x plan combination
// ---------------------------------------------------------------------------

TEST(GangWide, EveryWidthIsaAndPlanMatchesScalarPerBit) {
  const auto design = compile(designs::counter_adder(4), device_tiny(4, 6));
  const InjectionOptions base = InjectionOptions{}.with_persistence();

  SeuInjector scalar(design, InjectionOptions(base).with_gang_width(1));
  SeuInjector probe(design, InjectionOptions(base));
  const auto addrs = eligible_bits(probe, design);
  ASSERT_GT(addrs.size(), 64u);

  std::vector<InjectionResult> want;
  want.reserve(addrs.size());
  for (const BitAddress& addr : addrs) want.push_back(scalar.inject(addr));

  for (const u32 width : {64u, 256u, 512u}) {
    for (const std::string& isa : usable_isa_names()) {
      for (const bool plan : {true, false}) {
        SeuInjector gang(design, InjectionOptions(base)
                                     .with_gang_width(width)
                                     .with_gang_isa(isa)
                                     .with_gang_plan(plan));
        ASSERT_TRUE(gang.gang_capable());
        const auto got = gang.run_gang(addrs);
        ASSERT_EQ(got.size(), addrs.size());
        const std::string tag = "width=" + std::to_string(width) + " isa=" +
                                isa + (plan ? " plan" : " noplan");
        for (std::size_t i = 0; i < addrs.size(); ++i) {
          expect_same_verdict(want[i], got[i], tag, i);
        }
      }
    }
  }
}

TEST(GangWide, WideLanesFillPastSixtyFour) {
  // A 512-lane run must actually pack >63 candidates per dispatch — the
  // whole point of the wide words — and still match the u64 engine.
  const auto design = compile(designs::mult_tree(4), device_tiny(8, 12));
  const InjectionOptions base =
      InjectionOptions{}.with_observe_cycles(96).with_persistence();

  SeuInjector wide(design, InjectionOptions(base).with_gang_width(512));
  SeuInjector narrow(design, InjectionOptions(base).with_gang_width(64));
  ASSERT_TRUE(wide.gang_capable());

  const auto addrs = eligible_bits(wide, design, /*stride=*/7);
  ASSERT_GT(addrs.size(), 511u);  // forces at least two full wide dispatches

  const auto wide_results = wide.run_gang(addrs);
  const auto narrow_results = narrow.run_gang(addrs);
  ASSERT_EQ(wide_results.size(), narrow_results.size());
  for (std::size_t i = 0; i < wide_results.size(); ++i) {
    expect_same_verdict(narrow_results[i], wide_results[i], "512-vs-64", i);
  }

  // 511 candidate lanes per dispatch: the batch count must reflect it.
  const u64 wide_runs = wide.phases().gang_runs;
  const u64 narrow_runs = narrow.phases().gang_runs;
  EXPECT_EQ(wide_runs, (addrs.size() + 510) / 511);
  EXPECT_GT(narrow_runs, wide_runs * 4);
}

TEST(GangWide, CampaignDigestInvariantAcrossEngineConfigs) {
  // The campaign-level guarantee the verdict cache and checkpoints rely on:
  // sensitive-set digests are identical across widths, ISAs, plan modes,
  // thread counts and chunk sizes.
  const auto design = compile(designs::counter_adder(4), device_tiny(4, 6));
  const auto digest_with = [&](u32 width, const std::string& isa, bool plan,
                               unsigned threads, u64 chunk) {
    const CampaignResult r = run_campaign(
        design, CampaignOptions{}
                    .with_exhaustive()
                    .with_threads(threads)
                    .with_chunk_size(chunk)
                    .with_injection(InjectionOptions{}
                                        .with_persistence()
                                        .with_gang_width(width)
                                        .with_gang_isa(isa)
                                        .with_gang_plan(plan)));
    return r.sensitive_digest(design);
  };

  const u64 want = digest_with(1, "auto", true, 1, 64);  // scalar loop
  EXPECT_EQ(want, digest_with(64, "auto", false, 1, 64));  // seed u64 engine
  EXPECT_EQ(want, digest_with(64, "auto", true, 2, 128));
  EXPECT_EQ(want, digest_with(256, "scalar", true, 4, 32));
  EXPECT_EQ(want, digest_with(512, "auto", true, 2, 256));
  for (const std::string& isa : usable_isa_names()) {
    EXPECT_EQ(want, digest_with(512, isa, true, 4, 64)) << isa;
  }
}

// ---------------------------------------------------------------------------
// Auto chunking: gang-sized chunks, same verdicts as small ones
// ---------------------------------------------------------------------------

/// The per-bit verdict map of a campaign: which bits failed, and each
/// failure's verdict fields (sensitive bits come back sorted by address).
void expect_same_verdict_map(const CampaignResult& want,
                             const CampaignResult& got,
                             const std::string& tag) {
  ASSERT_EQ(want.injections, got.injections) << tag;
  ASSERT_EQ(want.failures, got.failures) << tag;
  EXPECT_EQ(want.persistent, got.persistent) << tag;
  ASSERT_EQ(want.sensitive_bits.size(), got.sensitive_bits.size()) << tag;
  for (std::size_t i = 0; i < want.sensitive_bits.size(); ++i) {
    const auto& a = want.sensitive_bits[i];
    const auto& b = got.sensitive_bits[i];
    ASSERT_EQ(a.addr, b.addr) << tag << " sensitive bit " << i;
    ASSERT_EQ(a.persistent, b.persistent) << tag << " sensitive bit " << i;
    ASSERT_EQ(a.first_error_cycle, b.first_error_cycle)
        << tag << " sensitive bit " << i;
    ASSERT_EQ(a.error_output_mask_lo, b.error_output_mask_lo)
        << tag << " sensitive bit " << i;
  }
}

TEST(GangWide, AutoChunksMatchSmallChunksPerBitAndFillTheGangs) {
  // The auto chunk floor (two 512-lane gangs) regroups which bits share a
  // gang run; the verdicts must not notice. The served designs run on the
  // served default device, as a daemon would compile them.
  const auto run = [](const PlacedDesign& design, u64 sample, u64 seed,
                      u64 chunk) {
    return run_campaign(
        design, CampaignOptions{}
                    .with_sample(sample, seed)
                    .with_chunk_size(chunk)
                    .with_injection(InjectionOptions{}.with_gang_width(512)));
  };
  const PlacedDesign& mult = *request_design("mult", "campaign").design;
  for (u64 seed = 1; seed <= 3; ++seed) {
    const std::string tag = "mult 8000 seed " + std::to_string(seed);
    const CampaignResult small = run(mult, 8000, seed, 64);
    const CampaignResult gang_sized = run(mult, 8000, seed, 0);
    expect_same_verdict_map(small, gang_sized, tag);
    // Filled gangs: a regression to underfilled runs (64-bit chunks give
    // about 36 lanes per run here) fails this.
    ASSERT_GT(gang_sized.phases.gang_runs, 0u) << tag;
    EXPECT_GE(gang_sized.phases.gang_lanes,
              256 * gang_sized.phases.gang_runs)
        << tag << ": " << gang_sized.phases.gang_lanes << " lanes in "
        << gang_sized.phases.gang_runs << " runs";
  }
  for (const char* name :
       {"lfsrmult", "mult", "multadd", "vmult", "selfcheck", "lfsr"}) {
    const PlacedDesign& design = *request_design(name, "campaign").design;
    expect_same_verdict_map(run(design, 2000, 1, 64), run(design, 2000, 1, 0),
                            std::string(name) + " 2000 seed 1");
  }
}

// ---------------------------------------------------------------------------
// Width / ISA contract
// ---------------------------------------------------------------------------

TEST(GangWide, WidthContract) {
  EXPECT_TRUE(gang_width_supported(1));
  EXPECT_TRUE(gang_width_supported(2));
  EXPECT_TRUE(gang_width_supported(37));
  EXPECT_TRUE(gang_width_supported(64));
  EXPECT_TRUE(gang_width_supported(256));
  EXPECT_TRUE(gang_width_supported(512));
  EXPECT_FALSE(gang_width_supported(0));
  EXPECT_FALSE(gang_width_supported(65));
  EXPECT_FALSE(gang_width_supported(128));  // not compiled in
  EXPECT_FALSE(gang_width_supported(257));
  EXPECT_FALSE(gang_width_supported(1024));
  EXPECT_EQ(supported_gang_widths_list(), "1..64, 256, 512");

  const auto design = compile(designs::counter_adder(4), device_tiny(4, 6));
  // Narrow widths cap lanes on the u64 engine and always report kScalar.
  GangSim narrow(design, GangOptions{}.with_width(32));
  EXPECT_EQ(narrow.width(), 32u);
  EXPECT_EQ(narrow.max_variants(), 31);
  EXPECT_EQ(narrow.isa(), SimdIsa::kScalar);

  GangSim wide(design, GangOptions{}.with_width(512));
  EXPECT_EQ(wide.max_variants(), 511);
  EXPECT_TRUE(wide.plan_active()) << wide.plan_note();
  EXPECT_EQ(wide.plan_note(), "");

  GangSim unplanned(design, GangOptions{}.with_width(256).with_plan(false));
  EXPECT_FALSE(unplanned.plan_active());
  EXPECT_EQ(unplanned.plan_note(), "disabled by options");
}

TEST(GangWide, UnsupportedWidthsRaiseTypedErrorsListingSupport) {
  const auto design = compile(designs::counter_adder(4), device_tiny(4, 6));
  for (const u32 width : {0u, 65u, 100u, 128u, 511u, 513u, 4096u}) {
    try {
      GangSim sim(design, GangOptions{}.with_width(width));
      FAIL() << "width " << width << " accepted";
    } catch (const GangWidthError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::to_string(width)), std::string::npos) << what;
      EXPECT_NE(what.find("1..64, 256, 512"), std::string::npos) << what;
    }
  }
  // The injector validates eagerly at construction — not at the first gang
  // batch — so campaigns reject bad widths before any injection runs.
  EXPECT_THROW(
      SeuInjector(design, InjectionOptions{}.with_gang_width(100)),
      GangWidthError);
  // Widths 0/1 mean "gang off" at the injector level, not an error.
  EXPECT_NO_THROW(SeuInjector(design, InjectionOptions{}.with_gang_width(0)));
  EXPECT_NO_THROW(SeuInjector(design, InjectionOptions{}.with_gang_width(1)));
}

TEST(GangWide, UnknownIsaNamesRaiseTypedErrorsListingNames) {
  const auto design = compile(designs::counter_adder(4), device_tiny(4, 6));
  try {
    SeuInjector injector(design,
                         InjectionOptions{}.with_gang_isa("avx9000"));
    FAIL() << "bad ISA name accepted";
  } catch (const SimdIsaError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("avx9000"), std::string::npos) << what;
    EXPECT_NE(what.find("scalar"), std::string::npos) << what;
    EXPECT_NE(what.find("avx2"), std::string::npos) << what;
    EXPECT_NE(what.find("avx512"), std::string::npos) << what;
  }
  // "auto" and "" both mean auto-dispatch.
  EXPECT_EQ(parse_simd_isa("auto"), SimdIsa::kAuto);
  EXPECT_EQ(parse_simd_isa(""), SimdIsa::kAuto);
  EXPECT_EQ(parse_simd_isa("scalar"), SimdIsa::kScalar);
}

TEST(GangWide, ForceIsaEnvironmentOverridePinsAutoDispatch) {
  const auto design = compile(designs::counter_adder(4), device_tiny(4, 6));
  {
    ScopedEnv force("VSCRUB_FORCE_ISA", "scalar");
    GangSim sim(design, GangOptions{}.with_width(256));
    EXPECT_EQ(sim.isa(), SimdIsa::kScalar);
  }
  {
    // The override only steers kAuto; an explicit request wins.
    ScopedEnv force("VSCRUB_FORCE_ISA", "scalar");
    const SimdIsa resolved = resolve_simd_isa(SimdIsa::kScalar);
    EXPECT_EQ(resolved, SimdIsa::kScalar);
  }
  {
    ScopedEnv force("VSCRUB_FORCE_ISA", "not-an-isa");
    EXPECT_THROW(GangSim(design, GangOptions{}.with_width(256)), SimdIsaError);
  }
}

// ---------------------------------------------------------------------------
// VSRP1 intake: served campaigns get the same typed errors
// ---------------------------------------------------------------------------

TEST(GangWide, ServedRequestsValidateWidthAndIsa) {
  RequestContext ctx;
  EXPECT_THROW(
      execute_request(
          FrameKind::kCampaign,
          FlatJson::parse(
              R"({"design": "counter", "device": "tiny:4x6", "sample": 8, "gang_width": 100})"),
          ctx),
      GangWidthError);
  EXPECT_THROW(
      execute_request(
          FrameKind::kCampaign,
          FlatJson::parse(
              R"({"design": "counter", "device": "tiny:4x6", "sample": 8, "gang_isa": "mmx"})"),
          ctx),
      SimdIsaError);
  // A supported configuration sails through the same path.
  const JsonReport ok = execute_request(
      FrameKind::kCampaign,
      FlatJson::parse(
          R"({"design": "counter", "device": "tiny:4x6", "sample": 64, "gang_width": 256, "gang_isa": "auto"})"),
      ctx);
  EXPECT_EQ(FlatJson::parse(ok.to_json()).get_string("kind"), "campaign");
}
