// Campaign determinism and checkpoint/resume guarantees of the chunked
// scheduler: identical CampaignOptions must yield bit-identical campaign
// results regardless of thread count, chunk size, observability pruning, or
// whether the campaign was interrupted and resumed from a checkpoint.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bitstream/record_io.h"
#include "core/vscrub.h"
#include "seu/checkpoint.h"
#include "store/remote_store.h"

using namespace vscrub;

namespace {

PlacedDesign small_static_design() {
  return compile(designs::counter_adder(6), device_tiny(4, 8));
}

/// Everything a campaign promises to reproduce exactly (wall clock and
/// phase telemetry are measurements, not results, and are excluded).
/// `pruned` counts are compared separately: they are deterministic across
/// schedules but intentionally differ between prune-on and prune-off runs.
void expect_same_result(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.device_bits, b.device_bits);
  EXPECT_EQ(a.injections, b.injections);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.persistent, b.persistent);
  EXPECT_EQ(a.modeled_hardware_time.ps(), b.modeled_hardware_time.ps());
  ASSERT_EQ(a.sensitive_bits.size(), b.sensitive_bits.size());
  for (std::size_t i = 0; i < a.sensitive_bits.size(); ++i) {
    const auto& sa = a.sensitive_bits[i];
    const auto& sb = b.sensitive_bits[i];
    EXPECT_EQ(sa.addr, sb.addr) << "sensitive bit " << i;
    EXPECT_EQ(sa.persistent, sb.persistent) << "sensitive bit " << i;
    EXPECT_EQ(sa.first_error_cycle, sb.first_error_cycle)
        << "sensitive bit " << i;
    EXPECT_EQ(sa.error_output_mask_lo, sb.error_output_mask_lo)
        << "sensitive bit " << i;
  }
  EXPECT_EQ(a.failures_by_field, b.failures_by_field);
}

/// The rest of the tally: store and remote-tier counters, pruning, the gang
/// engine's counters and cache provenance. Deterministic whenever both runs
/// see the same verdict sources and chunking.
void expect_same_tally_counters(const CampaignTally& a,
                                const CampaignTally& b) {
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.remote_hits, b.remote_hits);
  EXPECT_EQ(a.remote_publishes, b.remote_publishes);
  EXPECT_EQ(a.phases.pruned, b.phases.pruned);
  EXPECT_EQ(a.phases.gang_runs, b.phases.gang_runs);
  EXPECT_EQ(a.phases.gang_lanes, b.phases.gang_lanes);
  EXPECT_EQ(a.phases.gang_early_exits, b.phases.gang_early_exits);
  EXPECT_EQ(a.phases.gang_fallbacks, b.phases.gang_fallbacks);
  ASSERT_EQ(a.sensitive_bits.size(), b.sensitive_bits.size());
  for (std::size_t i = 0; i < a.sensitive_bits.size(); ++i) {
    EXPECT_EQ(a.sensitive_bits[i].from_cache, b.sensitive_bits[i].from_cache)
        << "sensitive bit " << i;
  }
}

/// A remote tier answering from a store frozen at construction: publishes
/// are dropped, so every run sees the same answers.
class FrozenRemote : public RemoteVerdictClient {
 public:
  explicit FrozenRemote(const std::string& dir) : store_(dir) {}
  void lookup_batch(const std::vector<VerdictKeyPair>& pairs,
                    std::vector<VerdictLookup>* out) override {
    store_.find_batch(pairs, out);
  }
  void publish_batch(const std::vector<std::pair<VerdictKey, StoredVerdict>>&
                     /*entries*/) override {}

 private:
  VerdictStore store_;
};

}  // namespace

TEST(CampaignDeterminism, ThreadCountInvarianceSampled) {
  const auto design = small_static_design();
  CampaignOptions opts = CampaignOptions{}
                             .with_sample(3000, 17)
                             .with_chunk_size(128)
                             .with_injection(InjectionOptions{}.with_persistence());
  const auto r1 = run_campaign(design, opts.with_threads(1));
  const auto r8 = run_campaign(design, opts.with_threads(8));
  expect_same_result(r1, r8);
  EXPECT_EQ(r1.pruned, r8.pruned);
  EXPECT_GT(r1.failures, 0u);
}

TEST(CampaignDeterminism, ThreadCountInvarianceExhaustive) {
  const auto design = compile(designs::counter_adder(4), device_tiny(4, 6));
  CampaignOptions opts = CampaignOptions{}.with_exhaustive();
  const auto r1 = run_campaign(design, opts.with_threads(1));
  const auto r8 = run_campaign(design, opts.with_threads(8));
  EXPECT_EQ(r1.injections, r1.device_bits);
  expect_same_result(r1, r8);
  EXPECT_EQ(r1.pruned, r8.pruned);
}

TEST(CampaignDeterminism, ChunkSizeInvariance) {
  const auto design = small_static_design();
  CampaignOptions opts = CampaignOptions{}.with_sample(3000, 17).with_threads(8);
  const auto small_chunks = run_campaign(design, opts.with_chunk_size(32));
  const auto big_chunks = run_campaign(design, opts.with_chunk_size(1024));
  expect_same_result(small_chunks, big_chunks);
  EXPECT_EQ(small_chunks.pruned, big_chunks.pruned);
}

TEST(CampaignDeterminism, PruningMatchesUnprunedSimulation) {
  const auto design = small_static_design();
  CampaignOptions opts = CampaignOptions{}.with_sample(2500, 23);
  const auto pruned =
      run_campaign(design, opts.with_injection(InjectionOptions{}.with_pruning(true)));
  const auto full =
      run_campaign(design, opts.with_injection(InjectionOptions{}.with_pruning(false)));
  expect_same_result(pruned, full);
  EXPECT_GT(pruned.pruned, 0u);  // the device has idle regions to skip
  EXPECT_EQ(full.pruned, 0u);
}

TEST(CampaignDeterminism, PruningMatchesUnprunedWithDynamicLutState) {
  // fir_preproc holds live SRL16 delay lines: frames covering them must
  // never be pruned (writing such a frame clobbers shifting contents — an
  // effect the full loop reproduces and pruning would miss).
  const auto design = compile(designs::fir_preproc(2), device_tiny(8, 12));
  ASSERT_FALSE(design.dynamic_lut_sites.empty());
  CampaignOptions opts = CampaignOptions{}.with_sample(1200, 5);
  const auto pruned =
      run_campaign(design, opts.with_injection(InjectionOptions{}.with_pruning(true)));
  const auto full =
      run_campaign(design, opts.with_injection(InjectionOptions{}.with_pruning(false)));
  expect_same_result(pruned, full);
}

TEST(CampaignDeterminism, GangWidthInvarianceExhaustive) {
  // The bit-sliced gang engine promises results bit-for-bit identical to the
  // scalar loop at every thread count: sensitivity set,
  // persistence classification, first-error cycles, output masks, modeled
  // hardware time — everything expect_same_result checks.
  const auto design = compile(designs::counter_adder(4), device_tiny(4, 6));
  CampaignOptions base =
      CampaignOptions{}.with_exhaustive().with_chunk_size(128);
  auto with_gang = [&](u32 width, u32 threads) {
    CampaignOptions o = base;
    return run_campaign(
        design, o.with_threads(threads)
                    .with_injection(InjectionOptions{}
                                        .with_persistence()
                                        .with_gang_width(width)));
  };
  const auto scalar = with_gang(1u, 1u);  // gang disabled: the reference
  EXPECT_GT(scalar.failures, 0u);
  for (const u32 threads : {1u, 4u}) {
    const auto ganged = with_gang(preferred_gang_width(), threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_same_result(scalar, ganged);
    EXPECT_EQ(scalar.pruned, ganged.pruned);
  }
}

TEST(CampaignDeterminism, GangMatchesScalarWithPruningOff) {
  // Prune-off forces every CLB bit through a clocked run, so the gang engine
  // carries the entire load (no scalar short-circuits to hide behind).
  const auto design = compile(designs::counter_adder(4), device_tiny(4, 6));
  CampaignOptions opts = CampaignOptions{}.with_exhaustive().with_threads(4);
  const auto scalar = run_campaign(
      design, opts.with_injection(
                  InjectionOptions{}.with_pruning(false).with_gang_width(1)));
  const auto ganged = run_campaign(
      design, opts.with_injection(
                  InjectionOptions{}.with_pruning(false)));
  expect_same_result(scalar, ganged);
}

// checkpoint_every_chunks = 0 spreads about 16 cumulative saves over a
// campaign however it is chunked: a save every ceil(chunks / 16) chunks, the
// last one covering every injection.
TEST(CampaignDeterminism, AutoCheckpointCadenceSavesAboutSixteenRecords) {
  const auto design = small_static_design();
  for (const u64 chunk : {u64{32}, u64{64}, u64{1024}}) {
    std::vector<u64> saved;
    CampaignOptions opts =
        CampaignOptions{}.with_sample(3000, 17).with_threads(2).with_chunk_size(
            chunk);
    opts.checkpoint_every_chunks = 0;
    opts.on_checkpoint = [&saved](const std::vector<u8>& record) {
      CampaignCheckpoint ck;
      ASSERT_TRUE(decode_campaign_checkpoint(record, &ck));
      saved.push_back(ck.tally.injections);
    };
    run_campaign(design, opts);
    const u64 nchunks = (3000 + chunk - 1) / chunk;
    const u64 every = (nchunks + 15) / 16;
    EXPECT_EQ(saved.size(), (nchunks + every - 1) / every) << chunk;
    EXPECT_TRUE(std::is_sorted(saved.begin(), saved.end())) << chunk;
    ASSERT_FALSE(saved.empty());
    EXPECT_EQ(saved.back(), 3000u) << chunk;
  }
}

TEST(CampaignDeterminism, CheckpointResumeRoundTrip) {
  const auto design = compile(designs::counter_adder(4), device_tiny(4, 6));
  const std::string dir = ::testing::TempDir() + "vscrub_ckpt_roundtrip/";
  const std::string path = dir + "campaign.vsck";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // Every tally field must come back through a checkpoint, the store and
  // remote-tier counters included, so each run sees the same verdict
  // sources: its own copy of a local store seeded by one sample and a
  // frozen remote tier seeded by another.
  const auto seed_store = [&](const std::string& store_dir, u64 seed) {
    run_campaign(design, CampaignOptions{}
                             .with_sample(900, seed)
                             .with_threads(2)
                             .with_cache(store_dir));
  };
  seed_store(dir + "local_seed", 5);
  seed_store(dir + "remote_seed", 6);
  FrozenRemote remote(dir + "remote_seed");
  int copies = 0;
  const auto store_copy = [&] {
    const std::string copy = dir + "local" + std::to_string(copies++);
    std::filesystem::copy(dir + "local_seed", copy,
                          std::filesystem::copy_options::recursive);
    return copy;
  };

  CampaignOptions opts = CampaignOptions{}
                             .with_exhaustive()
                             .with_threads(2)
                             .with_chunk_size(64)
                             .with_remote_store(&remote);
  auto uninterrupted_opts = opts;
  const auto uninterrupted =
      run_campaign(design, uninterrupted_opts.with_cache(store_copy()));
  EXPECT_GT(uninterrupted.cache_hits, 0u);
  EXPECT_GT(uninterrupted.remote_hits, 0u);
  EXPECT_GT(uninterrupted.remote_publishes, 0u);
  EXPECT_GT(uninterrupted.phases.gang_runs, 0u);

  // Interrupt after a few chunks: the progress callback asks the campaign
  // to stop, and the final checkpoint captures the completed chunks.
  const std::string resume_store = store_copy();
  auto interrupted_opts = opts;
  interrupted_opts.with_cache(resume_store)
      .with_checkpoint(path, 2)
      .with_progress(
          [](const CampaignProgress& p) { return p.chunks_done < 4; }, 1);
  const auto partial = run_campaign(design, interrupted_opts);
  EXPECT_TRUE(partial.interrupted);
  EXPECT_LT(partial.injections, uninterrupted.injections);
  EXPECT_GT(partial.injections, 0u);

  // Resume: picks up the checkpoint, runs only the remaining chunks, and
  // lands on the same final tally as the uninterrupted campaign.
  auto resume_opts = opts;
  resume_opts.with_cache(resume_store).with_checkpoint(path, 8);
  const auto resumed = run_campaign(design, resume_opts);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.resumed_injections, partial.injections);
  expect_same_result(uninterrupted, resumed);
  expect_same_tally_counters(uninterrupted, resumed);

  // The same resume from the record in memory, without the file.
  std::vector<u8> record;
  ASSERT_TRUE(read_file(path, &record));
  CampaignCheckpoint saved;
  ASSERT_TRUE(decode_campaign_checkpoint(record, &saved));
  EXPECT_EQ(saved.tally.injections, resumed.injections);
  auto from_bytes_opts = opts;
  from_bytes_opts.resume_checkpoint = record;
  const auto from_bytes = run_campaign(design, from_bytes_opts);
  EXPECT_EQ(from_bytes.resumed_injections, resumed.injections);
  expect_same_tally_counters(resumed, from_bytes);

  // A checkpoint from different options must be ignored, not resumed.
  auto mismatched = opts;
  mismatched.with_sample(2000, 77).with_checkpoint(path);
  const auto fresh = run_campaign(design, mismatched);
  EXPECT_EQ(fresh.resumed_injections, 0u);
  EXPECT_EQ(fresh.injections, 2000u);

  std::filesystem::remove_all(dir);
}
