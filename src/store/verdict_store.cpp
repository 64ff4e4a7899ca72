#include "store/verdict_store.h"

#include <bit>
#include <filesystem>
#include <utility>

#include "bitstream/record_io.h"
#include "common/log.h"

namespace vscrub {
namespace {

const std::string kShardMagic = "VVS1";
const std::string kManifestMagic = "VSMF1";

std::string sanitized(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// One exact-then-fallback pass over the still-open slots of a batch
/// against one source (`find` returns the stored verdict or null). An exact
/// hit closes its slot. A fallback hit is kept only while the slot has none,
/// and the slot stays open: an exact hit in a later source still wins.
template <typename Find>
void probe_open_slots(std::span<const VerdictKeyPair> pairs,
                      std::vector<VerdictLookup>* out, std::vector<u32>* open,
                      const Find& find) {
  std::size_t kept = 0;
  for (const u32 i : *open) {
    const VerdictKeyPair& pair = pairs[i];
    VerdictLookup& slot = (*out)[i];
    if (const StoredVerdict* v = find(pair.exact)) {
      slot = {VerdictMatch::kExact, *v};
      continue;
    }
    if (!slot.hit() && !(pair.fallback == pair.exact)) {
      if (const StoredVerdict* v = find(pair.fallback)) {
        slot = {VerdictMatch::kFallback, *v};
      }
    }
    (*open)[kept++] = i;
  }
  open->resize(kept);
}

}  // namespace

VerdictStore::VerdictStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    VSCRUB_WARN("verdict store: cannot create ", dir_, " (", ec.message(),
                "); operating as a pure miss cache");
  }
  for (u32 s = 0; s < kShards; ++s) {
    const std::string path = shard_path(s);
    if (!record_exists(path, kShardMagic)) {
      // Missing file: empty shard. A present file with a foreign magic is a
      // corrupt store member, not someone else's data we should preserve.
      std::error_code exists_ec;
      if (std::filesystem::exists(path, exists_ec)) {
        ++corrupt_shards_;
        dirty_[s] = true;
      }
      continue;
    }
    try {
      RecordReader r(path, kShardMagic);
      const u64 n = r.get_u64();
      // Count guard before any allocation: a CRC-colliding or hostile count
      // must fail cleanly, not reserve gigabytes.
      VSCRUB_CHECK(n <= r.remaining() / kVerdictEntryBytes,
                   "verdict store: entry count larger than shard " + path);
      auto& map = shards_[s];
      map.reserve(n);
      for (u64 i = 0; i < n; ++i) {
        VerdictKey key;
        key.hi = r.get_u64();
        key.lo = r.get_u64();
        const u8 flags = r.get_u8();
        StoredVerdict v;
        v.output_error = (flags & 1) != 0;
        v.persistent = (flags & 2) != 0;
        v.first_error_cycle = r.get_u32();
        v.error_output_mask_lo = r.get_u64();
        map.insert_or_assign(key, v);
      }
    } catch (const Error& e) {
      // Corrupt shard: drop it wholesale (a failed CRC cannot vouch for any
      // entry) and rewrite it clean on the next flush.
      shards_[s].clear();
      ++corrupt_shards_;
      dirty_[s] = true;
      VSCRUB_WARN("verdict store: dropping corrupt shard ", path, " (",
                  e.what(), ")");
    }
  }
}

std::optional<StoredVerdict> VerdictStore::find(const VerdictKey& key) const {
  const VerdictKeyPair pair{key, key};
  std::vector<VerdictLookup> out;
  find_batch(std::span(&pair, 1), &out);
  if (!out[0].hit()) return std::nullopt;
  return out[0].verdict;
}

void VerdictStore::find_batch(std::span<const VerdictKeyPair> pairs,
                              std::vector<VerdictLookup>* out) const {
  out->assign(pairs.size(), VerdictLookup{});
  std::vector<u32> open(pairs.size());
  for (std::size_t i = 0; i < open.size(); ++i) open[i] = static_cast<u32>(i);
  const auto in_maps = [this](const VerdictKey& key) -> const StoredVerdict* {
    const auto& map = shards_[shard_of(key)];
    const auto it = map.find(key);
    return it == map.end() ? nullptr : &it->second;
  };
  // Maps first, then (on a miss) the pending-put buffer, so concurrent
  // campaigns see each other's fresh verdicts without waiting for a flush.
  // Misses pay the pending mutex once per batch; hits save a whole
  // injection. A flush that completed between the two probes may have moved
  // a key from pending_ into the maps; one re-probe closes that window, and
  // the epoch check keeps the common miss path at a single atomic load.
  const u64 epoch = flush_epoch_.load(std::memory_order_acquire);
  {
    std::shared_lock lock(maps_mutex_);
    probe_open_slots(pairs, out, &open, in_maps);
  }
  if (open.empty()) return;
  {
    std::lock_guard lock(pending_mutex_);
    if (!pending_.empty()) {
      probe_open_slots(pairs, out, &open,
                       [this](const VerdictKey& key) -> const StoredVerdict* {
                         const auto it = pending_.find(key);
                         return it == pending_.end() ? nullptr : &it->second;
                       });
    }
  }
  if (!open.empty() &&
      flush_epoch_.load(std::memory_order_acquire) != epoch) {
    std::shared_lock lock(maps_mutex_);
    probe_open_slots(pairs, out, &open, in_maps);
  }
}

void VerdictStore::put(const VerdictKey& key, const StoredVerdict& v) {
  std::lock_guard lock(pending_mutex_);
  pending_.insert_or_assign(key, v);
}

std::size_t VerdictStore::flush() {
  std::lock_guard flush_lock(flush_mutex_);
  std::size_t stored = 0;
  {
    // pending_mutex_ is held across the whole merge: a concurrent find_batch()
    // that misses the maps then either sees the verdict still in pending_ or
    // waits here until the merge has made it visible in the maps — there is
    // no window where a recorded verdict is in neither and gets re-simulated.
    std::scoped_lock lock(pending_mutex_, maps_mutex_);
    for (const auto& [key, v] : pending_) {
      const u32 s = shard_of(key);
      if (shards_[s].insert_or_assign(key, v).second) ++stored;
      dirty_[s] = true;
    }
    pending_.clear();
    flush_epoch_.fetch_add(1, std::memory_order_release);
  }
  // Disk writes happen under a *shared* maps lock: shards_/dirty_ are only
  // mutated by flush() (serialized by flush_mutex_), so concurrent find_batch()
  // probes keep being served while shard files are written — a flush of a
  // large store must not stall every in-flight campaign on disk I/O.
  std::shared_lock maps_lock(maps_mutex_);
  for (u32 s = 0; s < kShards; ++s) {
    if (!dirty_[s]) continue;
    RecordWriter w(kShardMagic);
    w.put_u64(shards_[s].size());
    for (const auto& [key, v] : shards_[s]) {
      w.put_u64(key.hi);
      w.put_u64(key.lo);
      w.put_u8(verdict_flags(v));
      w.put_u32(v.first_error_cycle);
      w.put_u64(v.error_output_mask_lo);
    }
    try {
      w.write(shard_path(s));
      dirty_[s] = false;
    } catch (const Error& e) {
      VSCRUB_WARN("verdict store: cannot write shard ", shard_path(s), " (",
                  e.what(), ")");
    }
  }
  return stored;
}

std::size_t VerdictStore::size() const {
  std::shared_lock lock(maps_mutex_);
  std::size_t n = 0;
  for (const auto& map : shards_) n += map.size();
  return n;
}

std::string VerdictStore::shard_path(u32 shard) const {
  static const char* kHex = "0123456789abcdef";
  return dir_ + "/verdicts_" + kHex[shard & 0xF] + ".vvs";
}

std::string campaign_manifest_path(const std::string& dir,
                                   const std::string& device,
                                   const std::string& design) {
  return dir + "/manifest_" + sanitized(device) + "_" + sanitized(design) +
         ".vsmf";
}

void save_campaign_manifest(const std::string& path,
                            const CampaignManifest& m) {
  RecordWriter w(kManifestMagic);
  w.put_u64(m.arch_fingerprint);
  w.put_u64(m.stimulus_hash);
  w.put_string(m.design_name);
  w.put_string(m.device_name);
  w.put_u64(m.universe_bits);
  w.put_u64(m.sample_bits);
  w.put_u64(m.sample_seed);
  w.put_u64(m.injections);
  w.put_u64(m.failures);
  w.put_u64(m.persistent);
  w.put_u64(m.sensitive_digest);
  w.put_u64(std::bit_cast<u64>(m.wall_seconds));
  w.put_u64(m.frame_hashes.size());
  for (const u64 h : m.frame_hashes) w.put_u64(h);
  w.write(path);
}

bool load_campaign_manifest(const std::string& path, CampaignManifest* m) {
  if (!record_exists(path, kManifestMagic)) return false;
  RecordReader r(path, kManifestMagic);
  m->arch_fingerprint = r.get_u64();
  m->stimulus_hash = r.get_u64();
  m->design_name = r.get_string();
  m->device_name = r.get_string();
  m->universe_bits = r.get_u64();
  m->sample_bits = r.get_u64();
  m->sample_seed = r.get_u64();
  m->injections = r.get_u64();
  m->failures = r.get_u64();
  m->persistent = r.get_u64();
  m->sensitive_digest = r.get_u64();
  m->wall_seconds = std::bit_cast<double>(r.get_u64());
  const u64 frames_n = r.get_u64();
  VSCRUB_CHECK(frames_n <= r.remaining() / 8,
               "manifest: frame-hash count larger than record");
  m->frame_hashes.resize(frames_n);
  for (u64& h : m->frame_hashes) h = r.get_u64();
  return true;
}

}  // namespace vscrub
