// Content-addressed verdict store: warm-cache campaign runs must be
// bit-identical to cold runs (same failures, same sensitive set, same
// modeled time) with ~100% verdict reuse; delta re-campaigns of a changed
// design reuse unmoved keys and still match a from-scratch cold run; a
// corrupted store degrades to a cold run with identical results; a shard
// file is an append-only log that each flush grows by its new verdicts only.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "core/vscrub.h"
#include "seu/cache_key.h"
#include "store/verdict_store.h"

namespace vscrub {
namespace {

std::string fresh_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

CampaignOptions cached_options(const std::string& dir, u64 sample = 4000) {
  return CampaignOptions{}.with_sample(sample).with_cache(dir);
}

// Everything about a campaign outcome that must be reproduced bit-exactly by
// a warm run (provenance flags excluded — those are the only allowed delta).
struct Outcome {
  u64 injections, failures, persistent, sensitive_digest;
  i64 modeled_ps;
  std::vector<std::tuple<u64, bool, u32, u64>> sensitive;
  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const PlacedDesign& design, const CampaignResult& r) {
  Outcome o{r.injections, r.failures, r.persistent,
            r.sensitive_digest(design), r.modeled_hardware_time.ps(), {}};
  for (const auto& sb : r.sensitive_bits) {
    o.sensitive.emplace_back(design.space->linear_of(sb.addr), sb.persistent,
                             sb.first_error_cycle, sb.error_output_mask_lo);
  }
  std::sort(o.sensitive.begin(), o.sensitive.end());
  return o;
}

TEST(VerdictStore, WarmRunIsBitIdenticalAndFullyCached) {
  const std::string dir = fresh_dir("vstore_warm");
  const auto design = compile(designs::counter_adder(8), device_tiny(8, 8));

  const CampaignResult cold = run_campaign(design, cached_options(dir));
  EXPECT_TRUE(cold.cache_enabled);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, cold.injections);
  EXPECT_EQ(cold.cache_stores, cold.injections);

  const CampaignResult warm = run_campaign(design, cached_options(dir));
  EXPECT_EQ(outcome_of(design, warm), outcome_of(design, cold));
  EXPECT_EQ(warm.cache_hits, warm.injections);
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_GE(static_cast<double>(warm.cache_hits) /
                static_cast<double>(warm.injections),
            0.99);
  for (const auto& sb : warm.sensitive_bits) {
    EXPECT_TRUE(sb.from_cache) << "warm sensitive bit not marked cached";
  }
  for (const auto& sb : cold.sensitive_bits) {
    EXPECT_FALSE(sb.from_cache) << "cold sensitive bit marked cached";
  }
  std::filesystem::remove_all(dir);
}

TEST(VerdictStore, WarmRunMatchesAcrossThreadCountsAndGangWidths) {
  const std::string dir = fresh_dir("vstore_threads");
  const auto design = compile(designs::lfsr_cluster(2), device_tiny(8, 8));
  const CampaignResult cold =
      run_campaign(design, cached_options(dir).with_threads(1));
  const CampaignResult warm4 =
      run_campaign(design, cached_options(dir).with_threads(4));
  CampaignOptions scalar = cached_options(dir).with_threads(2);
  scalar.injection.gang_width = 1;
  const CampaignResult warm_scalar = run_campaign(design, scalar);
  EXPECT_EQ(outcome_of(design, warm4), outcome_of(design, cold));
  EXPECT_EQ(outcome_of(design, warm_scalar), outcome_of(design, cold));
  EXPECT_EQ(warm4.cache_hits, warm4.injections);
  EXPECT_EQ(warm_scalar.cache_hits, warm_scalar.injections);
  std::filesystem::remove_all(dir);
}

TEST(VerdictStore, PersistenceVerdictsRoundTrip) {
  const std::string dir = fresh_dir("vstore_persist");
  const auto design = compile(designs::counter_adder(8), device_tiny(8, 8));
  CampaignOptions options = cached_options(dir, 2500);
  options.injection.classify_persistence = true;
  const CampaignResult cold = run_campaign(design, options);
  const CampaignResult warm = run_campaign(design, options);
  EXPECT_EQ(outcome_of(design, warm), outcome_of(design, cold));
  EXPECT_EQ(warm.persistent, cold.persistent);
  EXPECT_EQ(warm.cache_hits, warm.injections);
  std::filesystem::remove_all(dir);
}

TEST(VerdictStore, RecampaignOfUnchangedDesignReusesEverything) {
  const std::string dir = fresh_dir("vstore_recamp");
  const auto design = compile(designs::counter_adder(8), device_tiny(8, 8));
  const CampaignResult cold = run_campaign(design, cached_options(dir));

  const RecampaignResult r = run_recampaign(design, cached_options(dir));
  ASSERT_TRUE(r.had_prior);
  EXPECT_EQ(r.frames_changed, 0u);
  EXPECT_GT(r.frames_total, 0u);
  EXPECT_DOUBLE_EQ(r.hit_rate(), 1.0);
  EXPECT_TRUE(r.sensitive_match);
  EXPECT_EQ(r.prior_injections, cold.injections);
  EXPECT_EQ(r.prior_sensitive_digest, cold.sensitive_digest(design));
  EXPECT_EQ(r.current_sensitive_digest, r.prior_sensitive_digest);
  EXPECT_EQ(outcome_of(design, r.result), outcome_of(design, cold));
  std::filesystem::remove_all(dir);
}

TEST(VerdictStore, RecampaignWithoutPriorRunsColdAndSeedsStore) {
  const std::string dir = fresh_dir("vstore_noprior");
  const auto design = compile(designs::counter_adder(8), device_tiny(8, 8));
  const RecampaignResult r = run_recampaign(design, cached_options(dir));
  EXPECT_FALSE(r.had_prior);
  EXPECT_EQ(r.result.cache_hits, 0u);
  EXPECT_EQ(r.result.cache_stores, r.result.injections);
  // The seeding run wrote a manifest: a second recampaign is fully warm.
  const RecampaignResult warm = run_recampaign(design, cached_options(dir));
  EXPECT_TRUE(warm.had_prior);
  EXPECT_DOUBLE_EQ(warm.hit_rate(), 1.0);
  EXPECT_TRUE(warm.sensitive_match);
  std::filesystem::remove_all(dir);
}

TEST(VerdictStore, DeltaRecampaignOfChangedPlacementMatchesColdRun) {
  // Same netlist, different placement seed: most frame contents move, but
  // the campaign against the new placement must match its own cold run
  // exactly — cached verdicts may only be reused where the key (frame
  // content + influence closure) genuinely did not move.
  const std::string dir = fresh_dir("vstore_delta");
  PnrOptions pnr_a;
  PnrOptions pnr_b;
  pnr_b.seed = 7;
  const auto design_a =
      compile(std::make_shared<const Netlist>(designs::counter_adder(8)),
              std::make_shared<const ConfigSpace>(device_tiny(8, 8)), pnr_a);
  const auto design_b =
      compile(std::make_shared<const Netlist>(designs::counter_adder(8)),
              std::make_shared<const ConfigSpace>(device_tiny(8, 8)), pnr_b);

  run_campaign(design_a, cached_options(dir));
  const RecampaignResult delta = run_recampaign(design_b, cached_options(dir));
  ASSERT_TRUE(delta.had_prior);
  EXPECT_GT(delta.frames_changed, 0u);

  const std::string cold_dir = fresh_dir("vstore_delta_cold");
  const CampaignResult cold = run_campaign(design_b, cached_options(cold_dir));
  EXPECT_EQ(outcome_of(design_b, delta.result), outcome_of(design_b, cold));
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(cold_dir);
}

TEST(VerdictStore, CorruptedStoreFallsBackToColdWithIdenticalResults) {
  const std::string dir = fresh_dir("vstore_corrupt");
  const auto design = compile(designs::counter_adder(8), device_tiny(8, 8));
  const CampaignResult cold = run_campaign(design, cached_options(dir));

  // Trash every shard file in the store directory.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".vvs") continue;
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out << "garbage, not a VVS1 record";
  }

  const CampaignResult fallback = run_campaign(design, cached_options(dir));
  EXPECT_EQ(fallback.cache_hits, 0u) << "corrupt store served verdicts";
  EXPECT_EQ(outcome_of(design, fallback), outcome_of(design, cold));
  // ...and the fallback run healed the store: a third run is fully warm.
  const CampaignResult warm = run_campaign(design, cached_options(dir));
  EXPECT_EQ(warm.cache_hits, warm.injections);
  EXPECT_EQ(outcome_of(design, warm), outcome_of(design, cold));
  std::filesystem::remove_all(dir);
}

TEST(VerdictStore, OscillationProneDesignStaysExactUnderCache) {
  // fir_preproc's SRL16 delay line is a dynamic LUT site; bram_selftest
  // exercises BRAM bindings. Both force the conservative whole-design key
  // mode — reuse must still be total for an unchanged design, and exact vs
  // a cold run.
  for (const char* which : {"fir", "bram"}) {
    const std::string dir = fresh_dir("vstore_osc");
    const Netlist nl = std::string(which) == "bram"
                           ? designs::bram_selftest(2)
                           : designs::fir_preproc(4, 4);
    const auto design = compile(nl, device_tiny(8, 12, 2));
    ASSERT_TRUE(build_cache_key_plan(design, {}).whole_design_influence)
        << which;
    const CampaignResult cold = run_campaign(design, cached_options(dir, 2000));
    const CampaignResult warm = run_campaign(design, cached_options(dir, 2000));
    EXPECT_EQ(outcome_of(design, warm), outcome_of(design, cold)) << which;
    EXPECT_EQ(warm.cache_hits, warm.injections) << which;
    std::filesystem::remove_all(dir);
  }
}

TEST(CacheKeyPlan, BatchedKeyPairsEqualPerBitKeys) {
  // A precise-influence design and a whole-design one (BRAM bindings),
  // where the fallback key is the exact key.
  for (const bool whole : {false, true}) {
    const auto design =
        compile(whole ? designs::bram_selftest(2) : designs::counter_adder(8),
                device_tiny(8, 12, 2));
    const CacheKeyPlan plan = build_cache_key_plan(design, {});
    ASSERT_EQ(plan.whole_design_influence, whole);
    const std::vector<u64> bits = campaign_universe(
        design.space->total_bits(), CampaignOptions{}.with_sample(2000, 3));
    std::vector<VerdictKeyPair> pairs;
    plan.key_pairs_of(*design.space, bits, &pairs);
    ASSERT_EQ(pairs.size(), bits.size());
    u64 differing = 0;
    for (std::size_t i = 0; i < bits.size(); ++i) {
      const BitAddress addr = design.space->address_of_linear(bits[i]);
      EXPECT_EQ(pairs[i].exact, plan.key_of(*design.space, addr, bits[i]));
      EXPECT_EQ(pairs[i].fallback,
                plan.fallback_key_of(*design.space, addr, bits[i]));
      differing += !(pairs[i].exact == pairs[i].fallback);
    }
    EXPECT_EQ(differing == 0, whole);
  }
}

StoredVerdict verdict_n(u64 n) {
  StoredVerdict v;
  v.output_error = (n & 1) != 0;
  v.persistent = (n & 2) != 0;
  v.first_error_cycle = static_cast<u32>(n);
  v.error_output_mask_lo = n * 0x9E3779B97F4A7C15ULL;
  return v;
}

TEST(VerdictStore, FindBatchPrefersExactThenFallbackInMapsAndPending) {
  const std::string dir = fresh_dir("vstore_find_batch");
  const VerdictKey a{1, 1}, a_fb{1, 2}, b{2, 1}, b_fb{2, 2}, c{3, 1},
      c_fb{3, 2}, d{4, 1}, d_fb{4, 2};
  const std::vector<VerdictKeyPair> pairs = {
      {a, a_fb}, {b, b_fb}, {c, c_fb}, {d, d_fb}, {d, d}};
  {
    VerdictStore store(dir);
    store.put(a, verdict_n(1));
    store.put(b_fb, verdict_n(2));
    store.put(d_fb, verdict_n(4));
    store.flush();
    // d's exact key arrives after the flush: pending beats the fallback the
    // maps already hold.
    store.put(d, verdict_n(5));
    for (int round = 0; round < 2; ++round) {
      std::vector<VerdictLookup> out;
      store.find_batch(pairs, &out);
      ASSERT_EQ(out.size(), pairs.size());
      EXPECT_EQ(out[0].match, VerdictMatch::kExact);
      EXPECT_EQ(out[0].verdict, verdict_n(1));
      EXPECT_EQ(out[1].match, VerdictMatch::kFallback);
      EXPECT_EQ(out[1].verdict, verdict_n(2));
      EXPECT_EQ(out[2].match, VerdictMatch::kMiss);
      EXPECT_EQ(out[3].match, VerdictMatch::kExact);
      EXPECT_EQ(out[3].verdict, verdict_n(5));
      EXPECT_EQ(out[4].match, VerdictMatch::kExact);  // equal keys
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        const std::optional<StoredVerdict> exact = store.find(pairs[i].exact);
        const std::optional<StoredVerdict> one =
            exact ? exact : store.find(pairs[i].fallback);
        EXPECT_EQ(out[i].hit(), one.has_value()) << i;
        if (one) {
          EXPECT_EQ(out[i].verdict, *one) << i;
        }
      }
      store.flush();  // second round: everything from the maps
    }
    std::vector<VerdictLookup> none;
    store.find_batch({}, &none);
    EXPECT_TRUE(none.empty());
  }
  std::filesystem::remove_all(dir);
}

TEST(VerdictStore, FindBatchNeverMissesARecordedVerdictUnderPutAndFlush) {
  // One writer records keys in order and publishes how many it has put; a
  // flusher merges them into the maps meanwhile. Every key below the
  // published count must be visible to every batch, whether it sits in the
  // pending buffer, in the maps, or is moving between them. Odd keys are
  // recorded under their fallback key only.
  const std::string dir = fresh_dir("vstore_find_batch_race");
  constexpr u64 kKeys = 3000;
  const auto pair_of = [](u64 n) {
    return VerdictKeyPair{{n, 0xE}, {n, 0xF}};
  };
  {
    VerdictStore store(dir);
    std::atomic<u64> published{0};
    std::atomic<bool> done{false};
    std::atomic<u64> failures{0};
    std::thread writer([&] {
      for (u64 n = 0; n < kKeys; ++n) {
        const VerdictKeyPair p = pair_of(n);
        store.put(n % 2 == 0 ? p.exact : p.fallback, verdict_n(n));
        published.store(n + 1, std::memory_order_release);
        // Spread the puts out so the readers and the flusher overlap them.
        if (n % 16 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      }
      done.store(true, std::memory_order_release);
    });
    std::thread flusher([&] {
      while (!done.load(std::memory_order_acquire)) {
        store.flush();
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
    std::vector<std::thread> readers;
    for (int t = 0; t < 8; ++t) {
      readers.emplace_back([&, t] {
        std::vector<VerdictKeyPair> batch;
        std::vector<VerdictLookup> out;
        u64 rounds = 0;
        while (!done.load(std::memory_order_acquire) || rounds < 4) {
          ++rounds;
          const u64 seen = published.load(std::memory_order_acquire);
          const u64 from =
              seen > 256 ? (seen * static_cast<u64>(t + 1)) % (seen - 256) : 0;
          batch.clear();
          for (u64 n = from; n < seen && batch.size() < 256; ++n) {
            batch.push_back(pair_of(n));
          }
          store.find_batch(batch, &out);
          for (std::size_t i = 0; i < batch.size(); ++i) {
            const u64 n = batch[i].exact.hi;
            const VerdictMatch want =
                n % 2 == 0 ? VerdictMatch::kExact : VerdictMatch::kFallback;
            if (out[i].match != want || out[i].verdict != verdict_n(n)) {
              failures.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }
    writer.join();
    flusher.join();
    for (std::thread& r : readers) r.join();
    EXPECT_EQ(failures.load(), 0u);
    store.flush();
    EXPECT_EQ(store.size(), kKeys);
  }
  std::filesystem::remove_all(dir);
}

std::vector<u64> shard_file_sizes(const VerdictStore& store) {
  std::vector<u64> sizes;
  for (u32 s = 0; s < VerdictStore::kShards; ++s) {
    std::error_code ec;
    const u64 size = std::filesystem::file_size(store.shard_path(s), ec);
    sizes.push_back(ec ? 0 : size);
  }
  return sizes;
}

TEST(VerdictStore, SeveralFlushesReopenServingEveryVerdict) {
  const std::string dir = fresh_dir("vstore_segments");
  constexpr u64 kFlushes = 5;
  constexpr u64 kPerFlush = 400;
  const auto key_of = [](u64 n) {
    return VerdictKey{n * 0x9E3779B97F4A7C15ULL, ~n};
  };
  {
    VerdictStore store(dir);
    for (u64 f = 0; f < kFlushes; ++f) {
      for (u64 n = f * kPerFlush; n < (f + 1) * kPerFlush; ++n) {
        store.put(key_of(n), verdict_n(n));
      }
      EXPECT_EQ(store.flush(), kPerFlush) << "flush " << f;
    }
    const VerdictStoreStats stats = store.stats();
    EXPECT_EQ(stats.flushes, kFlushes);
    EXPECT_EQ(stats.flush_us.count(), kFlushes);
    EXPECT_EQ(stats.rewrites, 0u);
    EXPECT_EQ(stats.appended_bytes,
              stats.appended_segments * 16 +
                  kFlushes * kPerFlush * kVerdictEntryBytes);
  }
  VerdictStore reopened(dir);
  EXPECT_EQ(reopened.corrupt_shards(), 0u);
  EXPECT_EQ(reopened.size(), kFlushes * kPerFlush);
  for (u64 n = 0; n < kFlushes * kPerFlush; ++n) {
    const std::optional<StoredVerdict> v = reopened.find(key_of(n));
    ASSERT_TRUE(v.has_value()) << n;
    EXPECT_EQ(*v, verdict_n(n)) << n;
  }
  std::filesystem::remove_all(dir);
}

TEST(VerdictStore, EachFlushAppendsOnlyItsNewVerdicts) {
  const std::string dir = fresh_dir("vstore_append_growth");
  VerdictStore store(dir);
  // Round r puts keys [0, 90 r): the first 90 (r - 1) again with their
  // verdicts unchanged, which must not reach the files, and 90 new ones.
  for (u64 round = 1; round <= 4; ++round) {
    const std::vector<u64> before = shard_file_sizes(store);
    std::vector<u64> fresh(VerdictStore::kShards, 0);
    for (u64 n = 0; n < 90 * round; ++n) {
      // n * n % 13 is a quadratic residue: 9 of the 16 shards get nothing.
      const VerdictKey key{n * n % 13, n};
      if (n >= 90 * (round - 1)) ++fresh[VerdictStore::shard_of(key)];
      store.put(key, verdict_n(n));
    }
    const VerdictStoreStats pre = store.stats();
    EXPECT_EQ(store.flush(), 90u);
    const VerdictStoreStats post = store.stats();
    const std::vector<u64> after = shard_file_sizes(store);
    u64 touched = 0;
    u64 grown = 0;
    for (u32 s = 0; s < VerdictStore::kShards; ++s) {
      const u64 want = fresh[s] == 0 ? 0 : 16 + kVerdictEntryBytes * fresh[s];
      EXPECT_EQ(after[s] - before[s], want)
          << "round " << round << " shard " << s;
      touched += fresh[s] != 0;
      grown += after[s] - before[s];
    }
    EXPECT_EQ(post.appended_segments - pre.appended_segments, touched);
    EXPECT_EQ(post.appended_bytes - pre.appended_bytes, grown);
    EXPECT_EQ(post.rewrites, 0u);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace vscrub
