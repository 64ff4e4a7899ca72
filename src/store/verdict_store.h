// Content-addressed campaign-verdict store: a file-backed cache of per-bit
// injection verdicts, keyed by what the verdict actually depends on (arch
// fingerprint, stimulus hash, frame content hash, influence-set hash, bit
// index) rather than by which campaign produced it. Re-running an unchanged
// design replays every verdict from disk; re-running a *changed* design
// re-injects only the bits whose keys moved and reuses the rest.
//
// Durability model: verdicts live in 16 shard files, each an append-only log
// of segments. A segment is one "VVS1" record of bitstream/record_io — magic,
// u64 entry count, 29-byte entries, CRC-32 trailer — so a shard written as a
// single record is a one-segment log. flush() appends, to each shard it
// touched, one segment holding only that shard's new verdicts, in a single
// writev() on an O_APPEND descriptor: its cost follows the new verdicts, not
// the size of the store. Opening reads the segments in order and checks each
// one's magic, count guard and CRC; the first bad segment and everything
// after it are dropped (a torn tail from an interrupted append, a flipped
// bit, a hostile count), so a damaged shard only ever degrades to cache
// misses — never a wrong verdict — and is counted in corrupt_shards(). Such
// a shard, and one whose append failed or came up short, is rewritten whole
// (tmp + rename, one segment) on the next flush(). Nothing is fsync'ed: a
// power loss can lose recent segments, but never corrupt a served verdict.
// Several processes appending to one directory do not interleave segments;
// a healing rewrite in one may drop segments another appended meanwhile,
// which costs misses only.
//
// Concurrency model: one store instance may be shared by concurrent
// campaigns (the vscrubd serving layer runs every request against a single
// process-wide store). find_batch() takes a shared lock on the merged maps
// and, for the keys it missed there, probes the pending-put buffer — so one
// client's fresh verdicts are visible to another *before* any flush; when a
// flush completed between the two probes (flush-epoch check) the maps are
// re-probed once, so a recorded verdict is never invisible. Each lock is
// taken once per batch, so a chunk's whole probe costs two acquisitions.
// put() only touches the pending buffer (split per shard). flush() holds the
// exclusive maps lock only for the in-memory merge, which moves each shard's
// pending verdicts out of the buffer, then downgrades to a shared lock for
// the shard-file writes — concurrent find_batch() probes are never blocked
// on disk I/O — and is itself serialized against concurrent flushes.
#pragma once

#include <array>
#include <atomic>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/types.h"

namespace vscrub {

/// 128-bit content-addressed key. Two independent 64-bit digests: campaigns
/// put millions of verdicts in one store, and a 64-bit key would make
/// birthday collisions — i.e. silently wrong verdicts — plausible.
struct VerdictKey {
  u64 hi = 0;
  u64 lo = 0;
  bool operator==(const VerdictKey&) const = default;
};

struct VerdictKeyHash {
  std::size_t operator()(const VerdictKey& k) const {
    return static_cast<std::size_t>(k.hi ^ (k.lo * 0x9E3779B97F4A7C15ULL));
  }
};

/// The cached outcome of one injection — exactly the fields of an
/// InjectionResult that are a function of the flipped bit (modeled time is
/// recomputed from the live options instead of stored).
struct StoredVerdict {
  bool output_error = false;
  bool persistent = false;
  u32 first_error_cycle = 0;
  u64 error_output_mask_lo = 0;
  bool operator==(const StoredVerdict&) const = default;
};

/// Bytes of one VVS1 shard entry — key hi and lo (u64), flags (u8),
/// first_error_cycle (u32), error_output_mask_lo (u64) — which is also the
/// store wire's publish entry.
inline constexpr std::size_t kVerdictEntryBytes = 29;

/// The flag byte of a verdict in a VVS1 shard entry and on the store wire:
/// bit 0 = output_error, bit 1 = persistent. Other bits are never written.
inline u8 verdict_flags(const StoredVerdict& v) {
  return static_cast<u8>((v.output_error ? 1 : 0) | (v.persistent ? 2 : 0));
}

/// One bit's probe: its exact key and the conservative whole-design
/// fallback key its verdict is stored under when the run oscillated
/// (seu/cache_key.h). The two may be equal.
struct VerdictKeyPair {
  VerdictKey exact;
  VerdictKey fallback;
};

/// Which key of a VerdictKeyPair answered. The values are the per-slot tags
/// of a kStoreLookup reply (svc/store_wire.h).
enum class VerdictMatch : u8 { kMiss = 0, kExact = 1, kFallback = 2 };

/// The answer to one VerdictKeyPair: exact preferred over fallback.
struct VerdictLookup {
  VerdictMatch match = VerdictMatch::kMiss;
  StoredVerdict verdict;  ///< meaningful only when hit()

  bool hit() const { return match != VerdictMatch::kMiss; }
  /// The key that matched (the exact key for a miss).
  const VerdictKey& key_in(const VerdictKeyPair& pair) const {
    return match == VerdictMatch::kFallback ? pair.fallback : pair.exact;
  }
};

/// What a store's flushes have cost since it opened.
struct VerdictStoreStats {
  u64 flushes = 0;
  u64 appended_segments = 0;
  u64 appended_bytes = 0;  ///< segment bytes, trailers included
  u64 rewrites = 0;        ///< whole-shard healing rewrites completed
  Histogram flush_us;      ///< wall time of each flush(), in microseconds
};

class VerdictStore {
 public:
  static constexpr u32 kShards = 16;

  /// Opens (creating the directory if needed) and loads every intact
  /// segment of every shard. A shard with a bad segment keeps the segments
  /// before it, is counted in corrupt_shards(), and is queued for a clean
  /// rewrite on the next flush().
  explicit VerdictStore(std::string dir);

  /// Batched exact-or-fallback lookup: out[i] answers pairs[i], exact key
  /// preferred, from the merged shard maps first, then (on a miss) the
  /// pending-put buffer, so concurrent campaigns see each other's fresh
  /// verdicts without waiting for a flush. The maps lock and the pending
  /// lock are each taken once per batch. Thread-safe against concurrent
  /// find_batch()/put()/flush(); copies the verdicts out because a
  /// concurrent flush may rehash the maps. out is resized to pairs.size().
  void find_batch(std::span<const VerdictKeyPair> pairs,
                  std::vector<VerdictLookup>* out) const;
  /// One key: find_batch() of the pair (key, key).
  std::optional<StoredVerdict> find(const VerdictKey& key) const;

  /// Buffers a fresh verdict for the next flush(). Thread-safe.
  void put(const VerdictKey& key, const StoredVerdict& v);

  /// Merges buffered puts into the in-memory maps, appends one segment of
  /// its new verdicts to each shard that got any, and rewrites each shard
  /// that needs healing. Returns the number of keys new to the maps.
  /// Thread-safe: concurrent flushes serialize, concurrent find_batch()/put()
  /// proceed against a consistent snapshot.
  std::size_t flush();

  /// Entries currently servable from the merged maps (excludes pending).
  std::size_t size() const;
  /// Shards opened with a bad segment (magic/CRC/count-guard failures).
  u32 corrupt_shards() const { return corrupt_shards_; }
  /// A snapshot of the flush counters.
  VerdictStoreStats stats() const;

  const std::string& dir() const { return dir_; }
  static u32 shard_of(const VerdictKey& key) {
    return static_cast<u32>(key.hi & (kShards - 1));
  }
  std::string shard_path(u32 shard) const;

 private:
  using VerdictMap =
      std::unordered_map<VerdictKey, StoredVerdict, VerdictKeyHash>;

  std::string dir_;
  /// Guards shards_: shared for find_batch()/size(), exclusive for the
  /// flush() merge.
  mutable std::shared_mutex maps_mutex_;
  std::array<VerdictMap, kShards> shards_;
  /// Shards whose file does not hold their map (opened with a bad segment,
  /// or an append failed): the next flush() rewrites them whole. Touched
  /// only by the constructor and flush().
  std::array<bool, kShards> needs_rewrite_{};
  u32 corrupt_shards_ = 0;

  mutable std::mutex pending_mutex_;
  std::array<VerdictMap, kShards> pending_;
  /// Bumped once per completed flush merge; lets find_batch() detect that a flush
  /// moved entries from pending_ into the maps between its two probes.
  mutable std::atomic<u64> flush_epoch_{0};
  /// Serializes whole flush() calls (two flushes writing one shard file
  /// concurrently would race on the tmp path).
  std::mutex flush_mutex_;

  mutable std::mutex stats_mutex_;
  VerdictStoreStats stats_;
};

/// Summary of the last completed campaign against a store directory: the
/// key-plan fingerprints, the per-frame content hashes (what delta
/// re-campaigns diff against), and the headline results the warm run is
/// compared to. One "VSMF1" record per (device, design) pair.
struct CampaignManifest {
  u64 arch_fingerprint = 0;
  u64 stimulus_hash = 0;
  std::string design_name;
  std::string device_name;
  u64 universe_bits = 0;  ///< size of the injected bit universe
  u64 sample_bits = 0;
  u64 sample_seed = 0;
  u64 injections = 0;
  u64 failures = 0;
  u64 persistent = 0;
  u64 sensitive_digest = 0;  ///< CampaignResult::sensitive_digest of that run
  double wall_seconds = 0.0;
  std::vector<u64> frame_hashes;  ///< per global frame, from the key plan
};

/// Manifest file path inside a store directory (names are sanitized).
std::string campaign_manifest_path(const std::string& dir,
                                   const std::string& device,
                                   const std::string& design);

/// Writes the manifest atomically (tmp + rename).
void save_campaign_manifest(const std::string& path,
                            const CampaignManifest& m);

/// Loads a manifest; returns false when the file is missing or carries a
/// different magic. Throws on a corrupted (CRC-failing) record — callers
/// treat that the same as "no prior run".
bool load_campaign_manifest(const std::string& path, CampaignManifest* m);

}  // namespace vscrub
