// The remote verdict tier's wire layer: the binary codecs shared by both
// ends of the kStoreLookup / kStorePublish frames (the two VSRP1 kinds whose
// payloads are not JSON; see svc/protocol.h), plus the client that
// implements store/remote_store.h's RemoteVerdictClient over a VSRP1
// session. A warm chunk costs one lookup round trip: each slot carries the
// exact and the fallback key, and the hub resolves both. Errors still come
// back as typed JSON kError frames. The hex helpers serve checkpoint
// shipping.
#pragma once

#include <atomic>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "store/remote_store.h"
#include "svc/protocol.h"
#include "svc/session.h"

namespace vscrub {

// Hex blobs (checkpoint shipping). Lowercase, two chars per byte; decode
// throws Error on odd length or a non-hex character.
std::string hex_encode(std::span<const u8> bytes);
std::vector<u8> hex_decode(const std::string& text);

// ---------------------------------------------------------------------------
// Store-verb payloads. Fixed-width little-endian binary, not JSON: every
// payload opens with a u32 slot count, and every decoder checks the exact
// length, so truncation, a count/length mismatch and trailing bytes are all
// rejected (a decoder throws Error; the hub answers a typed bad_request, the
// client degrades to all-miss).
//
//   kStoreLookup request   count, then per pair 32 bytes:
//                          exact.hi, exact.lo, fallback.hi, fallback.lo (u64)
//   kStoreLookup reply     count, one tag u8 per slot (0 miss, 1 exact,
//                          2 fallback), then per hit, in slot order, one
//                          13-byte verdict: flags u8, cycle u32, mask u64
//   kStorePublish request  count, then per entry the 29-byte VVS1 shard
//                          entry: key.hi u64, key.lo u64, flags u8,
//                          cycle u32, mask u64
//   kStorePublish reply    count (entries accepted)
//
// Flags are verdict_flags(): bit 0 output_error, bit 1 persistent; a flag
// byte above 3 or a tag above 2 is rejected.
// ---------------------------------------------------------------------------

inline constexpr std::size_t kStoreCountBytes = 4;
inline constexpr std::size_t kStorePairBytes = 32;
inline constexpr std::size_t kStoreVerdictBytes = 13;
inline constexpr std::size_t kStoreEntryBytes = kVerdictEntryBytes;
/// The most pairs / entries one frame can carry (kMaxFramePayload). Larger
/// batches are split by the client, one round trip per frame.
inline constexpr std::size_t kStoreLookupBatchMax =
    (kMaxFramePayload - kStoreCountBytes) / kStorePairBytes;
inline constexpr std::size_t kStorePublishBatchMax =
    (kMaxFramePayload - kStoreCountBytes) / kStoreEntryBytes;

std::string encode_store_lookup(std::span<const VerdictKeyPair> pairs);
std::vector<VerdictKeyPair> decode_store_lookup(std::string_view payload);

std::string encode_store_lookup_reply(std::span<const VerdictLookup> slots);
/// `expected` is the number of pairs the request carried; a reply with any
/// other count is rejected.
std::vector<VerdictLookup> decode_store_lookup_reply(std::string_view payload,
                                                     std::size_t expected);

std::string encode_store_publish(
    std::span<const std::pair<VerdictKey, StoredVerdict>> entries);
std::vector<std::pair<VerdictKey, StoredVerdict>> decode_store_publish(
    std::string_view payload);

/// A bare count: the kStorePublish reply.
std::string encode_store_count(u32 count);
u32 decode_store_count(std::string_view payload);

/// Answers one kStoreLookup payload against `store` with one
/// VerdictStore::find_batch, returning the binary reply. `out_keys`/
/// `out_hits` (optional) get the batch size and hit count for the caller's
/// metrics. Throws Error on a malformed payload — the caller turns that into
/// a typed kError reply.
std::string answer_store_lookup(const VerdictStore& store,
                                std::string_view payload,
                                u64* out_keys = nullptr,
                                u64* out_hits = nullptr);
/// Answers one kStorePublish payload against `store`, returning the binary
/// count reply. `out_entries` (optional) gets the batch size. Throws Error
/// on a malformed payload.
std::string answer_store_publish(VerdictStore& store, std::string_view payload,
                                 u64* out_entries = nullptr);

/// The coordinator-backed verdict tier a fabric worker campaign probes:
/// one VSRP1 session (with reconnect) to the coordinator, one kStoreLookup
/// or kStorePublish round trip per batched call (per frame, for a batch
/// past kStoreLookupBatchMax / kStorePublishBatchMax). Transport failure, a
/// typed error reply or a malformed reply degrades exactly as the
/// RemoteVerdictClient contract demands — all-miss lookups, dropped
/// publishes — so a dead or foreign coordinator never fails a campaign.
/// Thread-safe: batched calls from concurrent campaign workers multiplex
/// over the one session.
class VsrpRemoteStore : public RemoteVerdictClient {
 public:
  /// Connects to the coordinator's Unix socket. Throws Error when the
  /// initial connection fails (callers degrade to no remote tier).
  explicit VsrpRemoteStore(const std::string& socket_path,
                           ReconnectPolicy reconnect = {4, 50, 1000});

  void lookup_batch(const std::vector<VerdictKeyPair>& pairs,
                    std::vector<VerdictLookup>* out) override;
  void publish_batch(const std::vector<std::pair<VerdictKey, StoredVerdict>>&
                         entries) override;

  u64 lookups() const { return lookups_.load(std::memory_order_relaxed); }
  u64 hits() const { return hits_.load(std::memory_order_relaxed); }
  u64 publishes() const { return publishes_.load(std::memory_order_relaxed); }
  /// Store frames that degraded: transport failure, a typed error reply or
  /// a malformed reply.
  u64 failed_frames() const {
    return failed_frames_.load(std::memory_order_relaxed);
  }

 private:
  ServiceSession session_;
  std::atomic<u64> lookups_{0};
  std::atomic<u64> hits_{0};
  std::atomic<u64> publishes_{0};
  std::atomic<u64> failed_frames_{0};
};

}  // namespace vscrub
