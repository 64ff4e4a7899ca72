#include "store/verdict_store.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <utility>

#include "bitstream/record_io.h"
#include "common/crc.h"
#include "common/log.h"

namespace vscrub {
namespace {

const std::string kShardMagic = "VVS1";
const std::string kManifestMagic = "VSMF1";
/// Bytes of a shard segment besides its entries: magic, count, CRC trailer.
constexpr std::size_t kSegmentOverhead = 4 + 8 + 4;
/// Samples kept for the flush-time percentiles (count and mean stay exact).
constexpr u64 kFlushTimeReservoir = 1024;

u64 load_le(const u8* p, int bytes) {
  u64 v = 0;
  for (int i = 0; i < bytes; ++i) v |= static_cast<u64>(p[i]) << (8 * i);
  return v;
}

/// The entry count of the segment at the head of `rest` when its magic,
/// count guard and CRC all check out; nullopt when it is bad.
std::optional<u64> intact_segment(std::span<const u8> rest) {
  if (rest.size() < kSegmentOverhead ||
      !std::equal(kShardMagic.begin(), kShardMagic.end(), rest.begin())) {
    return std::nullopt;
  }
  const u64 n = load_le(rest.data() + 4, 8);
  // Count guard before any allocation: a CRC-colliding or hostile count
  // must fail cleanly, not reserve gigabytes.
  if (n > (rest.size() - kSegmentOverhead) / kVerdictEntryBytes) {
    return std::nullopt;
  }
  const std::size_t len = kSegmentOverhead + n * kVerdictEntryBytes;
  if (crc32(rest.first(len - 4)) != load_le(rest.data() + len - 4, 4)) {
    return std::nullopt;
  }
  return n;
}

/// Loads the intact segments of a shard log into an empty `map`, in order,
/// so a later segment's entry replaces an earlier one's. Returns the offset
/// of the first bad segment: file.size() when every segment is intact.
template <typename Map>
std::size_t load_segments(std::span<const u8> file, Map* map) {
  // Check every segment first, so the map is sized once, not per segment.
  std::size_t intact = 0;
  u64 entries = 0;
  while (intact < file.size()) {
    const std::optional<u64> n = intact_segment(file.subspan(intact));
    if (!n) break;
    entries += *n;
    intact += kSegmentOverhead + *n * kVerdictEntryBytes;
  }
  map->reserve(entries);
  for (std::size_t at = 0; at < intact;) {
    const u64 n = load_le(file.data() + at + 4, 8);
    const u8* e = file.data() + at + 12;
    for (u64 i = 0; i < n; ++i, e += kVerdictEntryBytes) {
      const VerdictKey key{load_le(e, 8), load_le(e + 8, 8)};
      StoredVerdict v;
      v.output_error = (e[16] & 1) != 0;
      v.persistent = (e[16] & 2) != 0;
      v.first_error_cycle = static_cast<u32>(load_le(e + 17, 4));
      v.error_output_mask_lo = load_le(e + 21, 8);
      map->insert_or_assign(key, v);
    }
    at += kSegmentOverhead + n * kVerdictEntryBytes;
  }
  return intact;
}

/// One VVS1 segment holding `entries`.
template <typename Map>
RecordWriter segment_of(const Map& entries) {
  RecordWriter w(kShardMagic);
  w.put_u64(entries.size());
  for (const auto& [key, v] : entries) {
    w.put_u64(key.hi);
    w.put_u64(key.lo);
    w.put_u8(verdict_flags(v));
    w.put_u32(v.first_error_cycle);
    w.put_u64(v.error_output_mask_lo);
  }
  return w;
}

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
  stats_.flush_us.set_reservoir(kFlushTimeReservoir);
  for (u32 s = 0; s < kShards; ++s) {
    const std::string path = shard_path(s);
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) continue;  // missing file: empty shard
    std::vector<u8> file(
        static_cast<std::size_t>(std::max<std::streamoff>(in.tellg(), 0)));
    in.seekg(0);
    const bool read = static_cast<bool>(
        in.read(reinterpret_cast<char*>(file.data()),
                static_cast<std::streamsize>(file.size())));
    const std::size_t intact = read ? load_segments(file, &shards_[s]) : 0;
    if (read && intact == file.size()) continue;
    // A bad segment cannot vouch for itself or for anything after it: keep
    // the prefix, and rewrite the shard clean on the next flush. A present
    // file with a foreign magic is a corrupt store member, not someone
    // else's data we should preserve.
    ++corrupt_shards_;
    needs_rewrite_[s] = true;
    VSCRUB_WARN("verdict store: dropping ", file.size() - intact,
                " bytes of shard ", path, " from offset ", intact,
                " (bad magic, count or CRC)");
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
    if (std::any_of(pending_.begin(), pending_.end(),
                    [](const VerdictMap& m) { return !m.empty(); })) {
      probe_open_slots(pairs, out, &open,
                       [this](const VerdictKey& key) -> const StoredVerdict* {
                         const VerdictMap& map = pending_[shard_of(key)];
                         const auto it = map.find(key);
                         return it == map.end() ? nullptr : &it->second;
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
  pending_[shard_of(key)].insert_or_assign(key, v);
}

std::size_t VerdictStore::flush() {
  std::lock_guard flush_lock(flush_mutex_);
  const auto start = std::chrono::steady_clock::now();
  std::size_t stored = 0;
  // Each shard's pending verdicts, moved (not copied) out of pending_ and
  // trimmed to those the maps did not already hold: the segment to append.
  std::array<VerdictMap, kShards> fresh;
  {
    // pending_mutex_ is held across the whole merge: a concurrent find_batch()
    // that misses the maps then either sees the verdict still in pending_ or
    // waits here until the merge has made it visible in the maps — there is
    // no window where a recorded verdict is in neither and gets re-simulated.
    std::scoped_lock lock(pending_mutex_, maps_mutex_);
    for (u32 s = 0; s < kShards; ++s) {
      fresh[s].swap(pending_[s]);
      VerdictMap& map = shards_[s];
      for (auto it = fresh[s].begin(); it != fresh[s].end();) {
        const auto [held, inserted] = map.try_emplace(it->first, it->second);
        if (inserted) {
          ++stored;
        } else if (held->second == it->second) {
          it = fresh[s].erase(it);  // already in the shard's file
          continue;
        } else {
          held->second = it->second;
        }
        ++it;
      }
    }
    flush_epoch_.fetch_add(1, std::memory_order_release);
  }
  // Disk writes happen under a *shared* maps lock: shards_/needs_rewrite_
  // are only mutated by flush() (serialized by flush_mutex_), so concurrent
  // find_batch() probes keep being served while shard files are written — a
  // flush must not stall every in-flight campaign on disk I/O.
  u64 segments = 0;
  u64 bytes = 0;
  u64 rewrites = 0;
  std::shared_lock maps_lock(maps_mutex_);
  for (u32 s = 0; s < kShards; ++s) {
    if (!needs_rewrite_[s] && fresh[s].empty()) continue;
    const std::string path = shard_path(s);
    if (needs_rewrite_[s]) {
      try {
        segment_of(shards_[s]).write(path);
        needs_rewrite_[s] = false;
        ++rewrites;
      } catch (const Error& e) {
        VSCRUB_WARN("verdict store: cannot write shard ", path, " (",
                    e.what(), ")");
      }
    } else if (segment_of(fresh[s]).append(path)) {
      ++segments;
      bytes += kSegmentOverhead + fresh[s].size() * kVerdictEntryBytes;
    } else {
      // The file may now end in a torn segment, and it lacks these
      // verdicts either way: heal it with a whole rewrite next time.
      needs_rewrite_[s] = true;
      VSCRUB_WARN("verdict store: cannot append to shard ", path);
    }
    fresh[s] = VerdictMap{};  // free each batch once it is on disk
  }
  maps_lock.unlock();
  const double us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  std::lock_guard stats_lock(stats_mutex_);
  ++stats_.flushes;
  stats_.appended_segments += segments;
  stats_.appended_bytes += bytes;
  stats_.rewrites += rewrites;
  stats_.flush_us.record(us);
  return stored;
}

VerdictStoreStats VerdictStore::stats() const {
  std::lock_guard lock(stats_mutex_);
  return stats_;
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
