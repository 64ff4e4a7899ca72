// The wide-gang SIMD engines: differential proof that the host engine (512
// lanes on AVX-512) and the portable 256-lane engine (VSCRUB_FORCE_ISA=scalar)
// both produce verdicts bit-identical to the scalar injection loop and to
// each other — plus the typed width/ISA contract errors.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/vscrub.h"
#include "sim/gang_sim.h"
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

/// Runs `body` on the host engine, then on the portable engine with
/// VSCRUB_FORCE_ISA=scalar (restored afterwards). Options built inside
/// `body` pick up the engine's width as their default.
template <typename Body>
void on_each_engine(const Body& body) {
  body(std::string("host ") + simd_isa_name(resolve_simd_isa(SimdIsa::kAuto)));
  ScopedEnv force("VSCRUB_FORCE_ISA", "scalar");
  body(std::string("portable"));
}

}  // namespace

// ---------------------------------------------------------------------------
// Differential battery: both engines against the scalar loop
// ---------------------------------------------------------------------------

TEST(GangWide, BothEnginesMatchScalarPerBit) {
  const auto design = compile(designs::counter_adder(4), device_tiny(4, 6));
  SeuInjector scalar(design,
                     InjectionOptions{}.with_persistence().with_gang_width(1));
  const auto addrs = eligible_bits(scalar, design);
  ASSERT_GT(addrs.size(), 64u);

  std::vector<InjectionResult> want;
  want.reserve(addrs.size());
  for (const BitAddress& addr : addrs) want.push_back(scalar.inject(addr));

  on_each_engine([&](const std::string& engine) {
    SeuInjector gang(design, InjectionOptions{}.with_persistence());
    ASSERT_TRUE(gang.gang_capable()) << engine;
    const auto got = gang.run_gang(addrs);
    ASSERT_EQ(got.size(), addrs.size());
    for (std::size_t i = 0; i < addrs.size(); ++i) {
      expect_same_verdict(want[i], got[i], engine, i);
    }
  });
}

TEST(GangWide, WideLanesFillEveryRun) {
  // Each engine packs width - 1 candidates per dispatch — the whole point of
  // the wide words — and the two engines agree bit for bit.
  const auto design = compile(designs::mult_tree(4), device_tiny(8, 12));
  const auto options = [] {
    return InjectionOptions{}.with_observe_cycles(96).with_persistence();
  };
  SeuInjector probe(design, options());
  const auto addrs = eligible_bits(probe, design, /*stride=*/7);
  ASSERT_GT(addrs.size(), 511u);  // at least two runs on either engine

  std::vector<InjectionResult> first;
  on_each_engine([&](const std::string& engine) {
    SeuInjector gang(design, options());
    const auto got = gang.run_gang(addrs);
    ASSERT_EQ(got.size(), addrs.size());
    const u64 lanes = gang.options().gang_width - 1;
    EXPECT_EQ(gang.phases().gang_runs, (addrs.size() + lanes - 1) / lanes)
        << engine;
    if (first.empty()) {
      first = got;
      return;
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_same_verdict(first[i], got[i], engine + " vs host", i);
    }
  });
}

TEST(GangWide, CampaignDigestInvariantAcrossEnginesThreadsAndChunks) {
  // The campaign-level guarantee the verdict cache and checkpoints rely on:
  // sensitive-set digests are identical on either engine, at any thread
  // count and chunk size.
  const auto design = compile(designs::counter_adder(4), device_tiny(4, 6));
  const auto digest_with = [&](bool gang, unsigned threads, u64 chunk) {
    InjectionOptions injection = InjectionOptions{}.with_persistence();
    if (!gang) injection.with_gang_width(1);
    const CampaignResult r = run_campaign(
        design, CampaignOptions{}
                    .with_exhaustive()
                    .with_threads(threads)
                    .with_chunk_size(chunk)
                    .with_injection(injection));
    return r.sensitive_digest(design);
  };

  const u64 want = digest_with(false, 1, 64);  // scalar loop
  on_each_engine([&](const std::string& engine) {
    EXPECT_EQ(want, digest_with(true, 1, 64)) << engine;
    EXPECT_EQ(want, digest_with(true, 2, 128)) << engine;
    EXPECT_EQ(want, digest_with(true, 4, 32)) << engine;
    EXPECT_EQ(want, digest_with(true, 2, 0)) << engine;
  });
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
  // gang run; the verdicts must not notice. Runs on the host engine. The
  // served designs run on the served default device, as a daemon would
  // compile them.
  const auto run = [](const PlacedDesign& design, u64 sample, u64 seed,
                      u64 chunk) {
    return run_campaign(
        design, CampaignOptions{}
                    .with_sample(sample, seed)
                    .with_chunk_size(chunk)
                    .with_injection(InjectionOptions{}));
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
              preferred_gang_width() / 2 * gang_sized.phases.gang_runs)
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

TEST(GangWide, WidthFollowsTheHostTier) {
  const SimdIsa isa = resolve_simd_isa(SimdIsa::kAuto);
  EXPECT_EQ(preferred_gang_width(), isa == SimdIsa::kAvx512 ? 512u : 256u);
  EXPECT_EQ(InjectionOptions{}.gang_width, preferred_gang_width());
  EXPECT_EQ(served_gang_width_default(), preferred_gang_width());

  const auto design = compile(designs::counter_adder(4), device_tiny(4, 6));
  GangSim sim(design);
  EXPECT_EQ(sim.isa(), isa);
  EXPECT_EQ(sim.width(), preferred_gang_width());
  EXPECT_EQ(sim.max_variants(), static_cast<int>(sim.width()) - 1);
}

TEST(GangWide, UnsupportedWidthsRaiseTypedErrorsListingTheLegalOnes) {
  const u32 host = preferred_gang_width();
  const std::string host_text = std::to_string(host);
  const auto design = compile(designs::counter_adder(4), device_tiny(4, 6));
  for (const u32 width : {2u, 37u, 64u, 128u, 256u, 511u, 512u, 4096u}) {
    if (width == host) continue;
    // The injector validates eagerly at construction — not at the first
    // gang batch — so campaigns reject bad widths before any injection runs.
    try {
      SeuInjector injector(design, InjectionOptions{}.with_gang_width(width));
      FAIL() << "width " << width << " accepted";
    } catch (const GangWidthError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::to_string(width)), std::string::npos) << what;
      EXPECT_NE(what.find(host_text), std::string::npos) << what;
    }
  }
  // Widths 0/1 are the scalar path, not an error.
  EXPECT_NO_THROW(SeuInjector(design, InjectionOptions{}.with_gang_width(0)));
  EXPECT_NO_THROW(SeuInjector(design, InjectionOptions{}.with_gang_width(1)));
}

TEST(GangWide, ForceIsaEnvironmentOverridePinsAutoDispatch) {
  const auto design = compile(designs::counter_adder(4), device_tiny(4, 6));
  {
    ScopedEnv force("VSCRUB_FORCE_ISA", "scalar");
    GangSim sim(design);
    EXPECT_EQ(sim.isa(), SimdIsa::kScalar);
    EXPECT_EQ(sim.width(), 256u);
    EXPECT_EQ(preferred_gang_width(), 256u);
    // The override only steers kAuto; an explicit request wins.
    EXPECT_EQ(resolve_simd_isa(SimdIsa::kScalar), SimdIsa::kScalar);
  }
  for (const char* junk : {"not-an-isa", "avx2"}) {
    ScopedEnv force("VSCRUB_FORCE_ISA", junk);
    EXPECT_THROW(GangSim{design}, SimdIsaError) << junk;
    try {
      (void)preferred_gang_width();
      FAIL() << junk << " accepted";
    } catch (const SimdIsaError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(junk), std::string::npos) << what;
      EXPECT_NE(what.find("scalar"), std::string::npos) << what;
      EXPECT_NE(what.find("avx512"), std::string::npos) << what;
    }
  }
}
