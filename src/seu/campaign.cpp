#include "seu/campaign.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "bitstream/record_io.h"
#include "common/log.h"
#include "common/rng.h"
#include "seu/cache_key.h"
#include "seu/checkpoint.h"
#include "seu/design_baseline.h"
#include "sim/simd.h"
#include "store/remote_store.h"
#include "store/verdict_store.h"

namespace vscrub {
namespace {

/// The auto chunk floor: two of the widest gang runs. A gang run costs about
/// the same whatever its fill, and each chunk's misses go to the engine as
/// its own batch, so a smaller chunk wastes most of every run's lanes.
constexpr u64 kAutoChunkFloor = 2 * u64{kWidestGangWidth};

/// Saves per campaign when checkpoint_every_chunks is 0. Records are
/// cumulative, so a fixed count keeps a campaign's checkpoint bytes linear
/// in its size whatever the chunking.
constexpr u64 kAutoCheckpointSaves = 16;

/// Chunk sizing never derives from the thread count, this run's gang width
/// or the host's SIMD tier: results, progress and checkpoints must be
/// comparable across machines (a checkpoint taken on an 8-way AVX-512 host
/// must resume on a 1-way scalar one).
u64 resolve_chunk_size(u64 requested, u64 n) {
  if (requested != 0) return requested;
  return std::clamp<u64>(n / 256, kAutoChunkFloor, 4096);
}

/// The partial Fisher–Yates' map of displaced positions: open addressing
/// with linear probing over a power-of-two table, at most half full. Keys
/// are universe positions, so ~0 is free to mark an empty slot.
class SwapTable {
 public:
  struct Slot {
    u64 key;
    u64 value;
  };

  /// A table for at most `max_entries` insertions.
  explicit SwapTable(u64 max_entries) {
    u64 capacity = 16;
    while (capacity < 2 * max_entries) capacity <<= 1;
    slots_.assign(capacity, Slot{kEmpty, 0});
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
  }

  /// The slot holding `key`, or the empty slot where it would go.
  Slot& slot(u64 key) {
    u64 h = (key * 0x9E3779B97F4A7C15ULL) >> shift_;
    while (slots_[h].key != key && slots_[h].key != kEmpty) {
      h = (h + 1) & mask_;
    }
    return slots_[h];
  }
  /// The value at position `key`: its own index until it was swapped.
  static u64 value_at(const Slot& s, u64 key) {
    return s.key == kEmpty ? key : s.value;
  }

 private:
  static constexpr u64 kEmpty = ~u64{0};
  std::vector<Slot> slots_;
  u64 mask_ = 0;
  unsigned shift_ = 0;
};

}  // namespace

u64 universe_size(u64 total_bits, const CampaignOptions& options) {
  const u64 n = options.sample_bits;
  return n == 0 || n >= total_bits ? total_bits : n;
}

std::vector<u64> campaign_universe(u64 total_bits,
                                   const CampaignOptions& options) {
  const u64 n = universe_size(total_bits, options);
  u64 begin = 0, end = n;
  if (options.range_end > 0) {
    VSCRUB_CHECK(options.range_end > options.range_begin,
                 "campaign: range_end must exceed range_begin");
    begin = std::min(options.range_begin, n);
    end = std::min(options.range_end, n);
  }
  std::vector<u64> bits;
  bits.reserve(end - begin);
  if (n == total_bits) {
    for (u64 i = begin; i < end; ++i) bits.push_back(i);
    return bits;
  }
  // Partial Fisher–Yates over virtual indices, stopped at the range end:
  // position i's draw depends only on the draws before it, so a range's
  // prefix-built slice is exactly that slice of the whole sample.
  Rng rng(options.sample_seed);
  SwapTable swapped(end);
  for (u64 i = 0; i < end; ++i) {
    const u64 j = i + rng.uniform(total_bits - i);
    // Looking up i never inserts, so the reference to j's slot stays valid.
    SwapTable::Slot& sj = swapped.slot(j);
    const u64 vj = SwapTable::value_at(sj, j);
    const u64 vi = SwapTable::value_at(swapped.slot(i), i);
    if (i >= begin) bits.push_back(vj);
    sj = {j, vi};
  }
  return bits;
}

CampaignTally& CampaignTally::operator+=(const CampaignTally& o) {
  injections += o.injections;
  failures += o.failures;
  persistent += o.persistent;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  remote_hits += o.remote_hits;
  remote_publishes += o.remote_publishes;
  modeled_hardware_time += o.modeled_hardware_time;
  phases += o.phases;
  sensitive_bits.insert(sensitive_bits.end(), o.sensitive_bits.begin(),
                        o.sensitive_bits.end());
  for (const auto& [kind, count] : o.failures_by_field) {
    failures_by_field[kind] += count;
  }
  return *this;
}

std::unordered_set<u64> CampaignResult::sensitive_set(
    const PlacedDesign& design) const {
  std::unordered_set<u64> set;
  set.reserve(sensitive_bits.size());
  for (const auto& sb : sensitive_bits) {
    set.insert(design.space->linear_of(sb.addr));
  }
  return set;
}

u64 CampaignResult::sensitive_digest(const PlacedDesign& design) const {
  // XOR of per-bit hashes: order-independent, so the digest is stable no
  // matter how chunks were scheduled. Provenance (from_cache) is excluded —
  // a warm replay must digest identically to the cold run it replays.
  u64 digest = 0;
  for (const auto& sb : sensitive_bits) {
    u64 h = 0xCBF29CE484222325ULL;
    const auto fold = [&h](u64 v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 0x100000001B3ULL;
      }
    };
    fold(design.space->linear_of(sb.addr));
    fold(static_cast<u64>(sb.persistent));
    fold(sb.first_error_cycle);
    fold(sb.error_output_mask_lo);
    digest ^= h;
  }
  return digest;
}

CampaignResult run_campaign(const PlacedDesign& design,
                            const CampaignOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const ConfigSpace& space = *design.space;
  // The design's fixed products, shared by every worker's injector.
  const auto baseline = DesignBaseline::of(design);

  // Fabric range restriction: every range of a sharded campaign draws the
  // identical universe order, so disjoint ranges partition the one-shot run
  // exactly.
  const std::vector<u64> bits = campaign_universe(space.total_bits(), options);
  const bool range_active = options.range_end > 0;
  const u64 n = bits.size();
  const u64 chunk_size = resolve_chunk_size(options.chunk_size, n);
  const u64 nchunks = (n + chunk_size - 1) / chunk_size;
  const u64 checkpoint_every = std::max<u64>(
      1, options.checkpoint_every_chunks > 0
             ? options.checkpoint_every_chunks
             : (nchunks + kAutoCheckpointSaves - 1) / kAutoCheckpointSaves);
  const u64 fingerprint = campaign_fingerprint(design, options, n, chunk_size);

  CampaignResult result;
  result.device_bits = space.total_bits();
  result.design_slices = design.stats.slices_used;
  result.utilization = design.stats.utilization;

  // Verdict store: either the caller's shared process-wide instance
  // (options.store — the serving layer's path, where concurrent campaigns
  // hit each other's verdicts) or one opened here from cache_dir. Either
  // way the baseline's key plan is shared read-only by every worker.
  std::unique_ptr<VerdictStore> owned_store;
  VerdictStore* store = options.store;
  const CacheKeyPlan* plan = nullptr;
  SimTime cached_iter_time;
  if (store == nullptr && !options.cache_dir.empty()) {
    owned_store = std::make_unique<VerdictStore>(options.cache_dir);
    store = owned_store.get();
  }
  RemoteVerdictClient* remote = options.remote_store;
  if (store != nullptr || remote != nullptr) {
    result.cache_enabled = store != nullptr;
    plan = &baseline->key_plan(options.injection);
    // Every iteration — fresh or replayed — bills the same modeled hardware
    // cost: the real testbed cannot cache.
    cached_iter_time =
        modeled_injection_iteration_time(design, options.injection);
  }

  // The merge state, guarded by merge_mutex below: the done bitmap and the
  // tally of the done chunks — exactly what a checkpoint saves. A compatible
  // checkpoint (the caller's record, else the file at checkpoint_path)
  // pre-marks its chunks done and seeds the tally; anything else is ignored
  // (and overwritten on the next save).
  CampaignCheckpoint state{fingerprint, n, chunk_size,
                           std::vector<u8>((nchunks + 7) / 8, 0), {}};
  const bool checkpointing =
      !options.checkpoint_path.empty() || options.on_checkpoint;
  std::vector<u8> resume = options.resume_checkpoint;
  std::string resume_source = "the resume record";
  if (resume.empty() && !options.checkpoint_path.empty()) {
    resume_source = options.checkpoint_path;
    if (!read_file(options.checkpoint_path, &resume)) resume.clear();
  }
  u64 resumed_chunks = 0;
  if (!resume.empty()) {
    CampaignCheckpoint prev;
    bool loaded = false;
    try {
      loaded = decode_campaign_checkpoint(std::move(resume), &prev);
    } catch (const Error& e) {
      VSCRUB_WARN("campaign: unreadable checkpoint ", resume_source, " (",
                  e.what(), "); starting fresh");
    }
    if (loaded && prev.fingerprint == fingerprint &&
        prev.total_injections == n && prev.chunk_size == chunk_size &&
        prev.done.size() == state.done.size()) {
      state = std::move(prev);
      for (u64 c = 0; c < nchunks; ++c) {
        resumed_chunks +=
            static_cast<u64>((state.done[c >> 3] >> (c & 7)) & 1);
      }
      VSCRUB_INFO("campaign: resumed ", resumed_chunks, "/", nchunks,
                  " chunks (", state.tally.injections, " injections) from ",
                  resume_source);
    } else if (loaded) {
      VSCRUB_INFO("campaign: checkpoint ", resume_source,
                  " belongs to a different campaign; starting fresh");
    }
  }
  CampaignTally& tally = state.tally;
  result.resumed_injections = tally.injections;

  // Chunks completed in *this* run never get re-claimed (the cursor is
  // monotonic), so workers only need the pre-run bitmap to skip resumed
  // work — an immutable snapshot, readable without the merge lock.
  const std::vector<u8> resumed_done = state.done;

  std::mutex merge_mutex;
  std::atomic<bool> stop{false};
  u64 chunks_done = resumed_chunks;     // guarded by merge_mutex
  u64 chunks_since_progress = 0;        // guarded by merge_mutex
  u64 chunks_since_checkpoint = 0;      // guarded by merge_mutex
  bool checkpoint_saved = false;        // guarded by merge_mutex

  const auto make_progress = [&](const CampaignTally& t, double elapsed_s) {
    // Rate and ETA from this run's own work; resumed chunks were free.
    CampaignProgress p;
    p.injections_done = t.injections;
    p.injections_total = n;
    p.failures = t.failures;
    p.persistent = t.persistent;
    p.pruned = t.phases.pruned;
    p.cache_hits = t.cache_hits;
    p.chunks_done = chunks_done;
    p.chunks_total = nchunks;
    p.chunks_resumed = resumed_chunks;
    p.elapsed_s = elapsed_s;
    const u64 run_injections = t.injections - result.resumed_injections;
    p.bits_per_s =
        elapsed_s > 0 ? static_cast<double>(run_injections) / elapsed_s : 0.0;
    p.eta_s = p.bits_per_s > 0
                  ? static_cast<double>(n - t.injections) / p.bits_per_s
                  : 0.0;
    p.phases = t.phases;
    return p;
  };
  const auto save_checkpoint = [&] {
    chunks_since_checkpoint = 0;
    checkpoint_saved = true;
    const std::vector<u8> bytes = encode_campaign_checkpoint(state);
    if (!options.checkpoint_path.empty()) {
      write_file_atomic(options.checkpoint_path, bytes.data(), bytes.size());
    }
    if (options.on_checkpoint) options.on_checkpoint(bytes);
  };

  // Scheduling: an external shared pool when the caller provides one (the
  // serving layer's process-wide pool), else a private pool per campaign.
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* pool = options.pool;
  if (pool == nullptr) {
    owned_pool = std::make_unique<ThreadPool>(options.threads);
    pool = owned_pool.get();
  }
  std::vector<std::unique_ptr<SeuInjector>> injectors(pool->thread_count());

  // A chunk that throws (a failed checkpoint write, say) must not unwind a
  // pool worker: its error stops the campaign and is rethrown here, on the
  // calling thread, once every claimed chunk has returned.
  std::exception_ptr chunk_error;  // guarded by merge_mutex
  const auto run_chunk = [&](u64 begin, u64 end, unsigned worker) {
    const u64 c = begin / chunk_size;
    if ((resumed_done[c >> 3] >> (c & 7)) & 1) return;
    if (stop.load(std::memory_order_relaxed)) return;

    CampaignTally local;
    local.injections = end - begin;
    const auto consume = [&](const InjectionResult& r, bool from_cache) {
      local.modeled_hardware_time += r.modeled_time;
      if (r.output_error) {
        ++local.failures;
        if (r.persistent) ++local.persistent;
        if (options.record_sensitive_bits) {
          local.sensitive_bits.push_back({r.addr, r.persistent,
                                          r.first_error_cycle,
                                          r.error_output_mask_lo, from_cache});
        }
        const auto ref = space.tile_ref_of(r.addr);
        if (ref.valid) {
          const auto& meaning = ConfigSpace::meaning_of_tile_bit(ref.tile_bit);
          ++local.failures_by_field[static_cast<u8>(meaning.kind)];
        }
      }
    };

    // Verdict-store probe, ahead of both the scheduler's scalar loop and the
    // gang engine: a hit replays the stored verdict (bit-identical to what
    // the injection would produce) and never touches a simulator. Each bit
    // is probed under its exact key first, then under the conservative
    // whole-design fallback key that oscillation-bounded verdicts are stored
    // under — locally in one find_batch, then at the remote tier in one
    // round trip for the local misses.
    std::vector<u64> miss_bits;
    std::vector<VerdictKeyPair> miss_keys;
    const auto replay = [&](u64 linear, const StoredVerdict& v) {
      InjectionResult r;
      r.addr = space.address_of_linear(linear);
      r.output_error = v.output_error;
      r.persistent = v.persistent;
      r.first_error_cycle = v.first_error_cycle;
      r.error_output_mask_lo = v.error_output_mask_lo;
      r.modeled_time = cached_iter_time;
      consume(r, /*from_cache=*/true);
    };
    miss_bits.assign(bits.begin() + static_cast<std::ptrdiff_t>(begin),
                     bits.begin() + static_cast<std::ptrdiff_t>(end));
    if (store != nullptr || remote != nullptr) {
      plan->key_pairs_of(space, miss_bits, &miss_keys);
    }
    // Keeps the still-missing bits of a probe's answer; replays the hits.
    // `on_hit` gets each hit's matched key and verdict.
    std::vector<VerdictLookup> found;
    const auto keep_misses = [&](const auto& on_hit) {
      found.resize(miss_bits.size());
      std::size_t kept = 0;
      for (std::size_t i = 0; i < miss_bits.size(); ++i) {
        const VerdictLookup& v = found[i];
        if (!v.hit()) {
          miss_bits[kept] = miss_bits[i];
          miss_keys[kept] = miss_keys[i];
          ++kept;
          continue;
        }
        on_hit(v.key_in(miss_keys[i]), v.verdict);
        replay(miss_bits[i], v.verdict);
      }
      miss_bits.resize(kept);
      miss_keys.resize(kept);
    };
    if (store) {
      store->find_batch(miss_keys, &found);
      keep_misses([&](const VerdictKey&, const StoredVerdict&) {
        ++local.cache_hits;
      });
      local.cache_misses = miss_bits.size();
    }

    // Remote tier: hits replay exactly like local store hits and are fed
    // into the local store under the key that matched, so later chunks stop
    // asking the wire.
    if (remote != nullptr && !miss_bits.empty()) {
      remote->lookup_batch(miss_keys, &found);
      keep_misses([&](const VerdictKey& key, const StoredVerdict& v) {
        ++local.remote_hits;
        if (store) store->put(key, v);
      });
    }

    std::vector<std::pair<VerdictKey, StoredVerdict>> publish;
    if (!miss_bits.empty()) {
      // One injector per worker, built on first miss (it copies a fabric:
      // not free, and a fully-cached chunk never needs one).
      if (!injectors[worker]) {
        injectors[worker] =
            std::make_unique<SeuInjector>(baseline, options.injection);
      }
      SeuInjector& injector = *injectors[worker];
      const auto record = [&](const InjectionResult& r) {
        consume(r, /*from_cache=*/false);
        if (store || remote) {
          const u64 linear = space.linear_of(r.addr);
          // Oscillation-bounded runs are not provably a function of the
          // bit's closure alone: store them under the whole-design fallback
          // key, which any design change invalidates.
          const VerdictKey key =
              r.fabric_oscillated ? plan->fallback_key_of(space, r.addr, linear)
                                  : plan->key_of(space, r.addr, linear);
          const StoredVerdict v{r.output_error, r.persistent,
                                r.first_error_cycle, r.error_output_mask_lo};
          if (store) store->put(key, v);
          if (remote) publish.emplace_back(key, v);
        }
      };
      // Gang batching: collect this chunk's gang-eligible bits for one
      // word-parallel run; everything else goes through the scalar loop.
      // Both paths yield identical per-bit results, so the aggregation is
      // order-independent (sensitive bits are sorted at the end anyway).
      const bool use_gang = injector.gang_capable();
      std::vector<BitAddress> gang_addrs;
      if (use_gang) gang_addrs.reserve(miss_bits.size());
      for (const u64 linear : miss_bits) {
        const BitAddress addr = space.address_of_linear(linear);
        if (use_gang && injector.gang_eligible(addr)) {
          gang_addrs.push_back(addr);
          continue;
        }
        record(injector.inject(addr));
      }
      if (!gang_addrs.empty()) {
        for (const InjectionResult& r : injector.run_gang(gang_addrs)) {
          record(r);
        }
      }
      local.phases = injector.phases();
      injector.reset_phases();
    }
    // Publish the chunk's fresh verdicts in one round trip, outside the
    // merge lock: a slow coordinator stalls this worker, not the campaign.
    if (remote != nullptr && !publish.empty()) remote->publish_batch(publish);
    local.remote_publishes = publish.size();

    std::lock_guard lock(merge_mutex);
    tally += local;
    state.done[c >> 3] = static_cast<u8>(state.done[c >> 3] | (1u << (c & 7)));
    ++chunks_done;

    if (options.on_progress && ++chunks_since_progress >=
                                   std::max<u64>(1, options.progress_every_chunks)) {
      chunks_since_progress = 0;
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (!options.on_progress(make_progress(tally, elapsed))) {
        stop.store(true, std::memory_order_relaxed);
      }
    }
    if (checkpointing && ++chunks_since_checkpoint >= checkpoint_every) {
      save_checkpoint();
    }
  };
  pool->parallel_chunks(n, chunk_size, [&](u64 begin, u64 end,
                                           unsigned worker) {
    try {
      run_chunk(begin, end, worker);
    } catch (...) {
      stop.store(true, std::memory_order_relaxed);
      std::lock_guard lock(merge_mutex);
      if (!chunk_error) chunk_error = std::current_exception();
    }
  });
  if (chunk_error) std::rethrow_exception(chunk_error);

  // Final checkpoint first: it reads the tally, which the move below guts. A
  // periodic save that already covers every merged chunk is not repeated.
  if (checkpointing && (chunks_since_checkpoint > 0 || !checkpoint_saved)) {
    save_checkpoint();
  }

  result.interrupted = stop.load(std::memory_order_relaxed);
  static_cast<CampaignTally&>(result) = std::move(tally);
  result.pruned = result.phases.pruned;
  if (options.record_sampled_bits) result.sampled_bits = bits;
  std::sort(result.sensitive_bits.begin(), result.sensitive_bits.end(),
            [](const auto& a, const auto& b) { return a.addr < b.addr; });
  // Persist the store last: fresh verdicts first (flush is thread-safe, so
  // a shared store's other campaigns keep probing while this one writes),
  // then — only for a *completed* campaign — the manifest a later
  // recampaign diffs against.
  if (store) {
    result.cache_stores = store->flush();
    // A range run never writes the manifest: its counters cover one slice of
    // the universe, not the whole run a recampaign would diff against.
    if (!result.interrupted && !range_active) {
      CampaignManifest m;
      m.arch_fingerprint = plan->arch_fingerprint;
      m.stimulus_hash = plan->stimulus_hash;
      m.design_name = design.netlist->name();
      m.device_name = space.geometry().name;
      m.universe_bits = n;
      m.sample_bits = options.sample_bits;
      m.sample_seed = options.sample_seed;
      m.injections = result.injections;
      m.failures = result.failures;
      m.persistent = result.persistent;
      m.sensitive_digest = result.sensitive_digest(design);
      m.frame_hashes = plan->frame_hashes;
      m.wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      try {
        save_campaign_manifest(
            campaign_manifest_path(store->dir(), m.device_name, m.design_name),
            m);
      } catch (const Error& e) {
        VSCRUB_WARN("campaign: cannot write manifest (", e.what(), ")");
      }
    }
  }

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (options.on_progress) {
    options.on_progress(make_progress(result, result.wall_seconds));
  }

  VSCRUB_INFO("campaign ", design.netlist->name(), ": ", result.injections,
              " injections (", result.resumed_injections, " resumed, ",
              result.pruned, " pruned", result.cache_enabled ? ", " : "",
              result.cache_enabled ? std::to_string(result.cache_hits) : "",
              result.cache_enabled ? " cached" : "", "), ", result.failures,
              " failures (", result.sensitivity() * 100.0, "%), ",
              pool->thread_count(), " workers, ", result.wall_seconds, "s",
              result.interrupted ? " [interrupted]" : "");
  return result;
}

RecampaignResult run_recampaign(const PlacedDesign& design,
                                const CampaignOptions& options) {
  VSCRUB_CHECK(options.store != nullptr || !options.cache_dir.empty(),
               "run_recampaign requires CampaignOptions::cache_dir or a "
               "shared store");
  const std::string store_dir =
      options.store != nullptr ? options.store->dir() : options.cache_dir;
  RecampaignResult rr;

  // Load the prior manifest *before* the campaign runs (a completed campaign
  // overwrites it). A missing or corrupt manifest degrades to "no prior":
  // the run is then an ordinary cache-filling campaign.
  CampaignManifest prior;
  const std::string manifest_path = campaign_manifest_path(
      store_dir, design.space->geometry().name, design.netlist->name());
  try {
    rr.had_prior = load_campaign_manifest(manifest_path, &prior);
  } catch (const Error& e) {
    VSCRUB_WARN("recampaign: unreadable manifest ", manifest_path, " (",
                e.what(), "); treating as cold");
  }
  if (rr.had_prior) {
    const auto baseline = DesignBaseline::of(design);
    const std::vector<u64>& frames =
        baseline->key_plan(options.injection).frame_hashes;
    rr.frames_total = frames.size();
    if (prior.frame_hashes.size() == frames.size()) {
      for (std::size_t i = 0; i < frames.size(); ++i) {
        rr.frames_changed +=
            static_cast<u64>(frames[i] != prior.frame_hashes[i]);
      }
    } else {
      rr.frames_changed = frames.size();  // different device: all-new frames
    }
    rr.prior_injections = prior.injections;
    rr.prior_wall_seconds = prior.wall_seconds;
    rr.prior_sensitive_digest = prior.sensitive_digest;
    VSCRUB_INFO("recampaign ", design.netlist->name(), ": ",
                rr.frames_changed, "/", rr.frames_total,
                " frames changed vs prior run");
  }

  rr.result = run_campaign(design, options);

  rr.current_sensitive_digest = rr.result.sensitive_digest(design);
  rr.sensitive_match =
      rr.had_prior && rr.prior_sensitive_digest == rr.current_sensitive_digest;
  return rr;
}

}  // namespace vscrub
