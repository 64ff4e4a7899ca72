// The remote verdict tier's wire layer: the compact string codecs shared by
// both ends of the kStoreLookup / kStorePublish frames, plus the client that
// implements store/remote_store.h's RemoteVerdictClient over a VSRP1
// session. The payloads stay flat JSON (one "keys"/"entries"/"verdicts"
// string field), so the frames ride the exact same FlatJson/JsonReport
// machinery — and the same fuzz discipline — as every other request kind.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "report/json.h"
#include "store/remote_store.h"
#include "svc/session.h"

namespace vscrub {

// Hex blobs (checkpoint shipping). Lowercase, two chars per byte; decode
// throws Error on odd length or a non-hex character.
std::string hex_encode(std::span<const u8> bytes);
std::vector<u8> hex_decode(const std::string& text);

/// Whole-file read for checkpoint shipping: false when the file is missing
/// or unreadable. (Writes go through bitstream/record_io's
/// write_file_atomic.)
bool read_file_bytes(const std::string& path, std::vector<u8>* out);

/// "hi:lo,hi:lo,..." (hex). Empty string = no keys.
std::string encode_store_keys(const std::vector<VerdictKey>& keys);
std::vector<VerdictKey> decode_store_keys(const std::string& text);

/// Lookup reply: "index:flags:cycle:mask,..." (hex; flags bit0 =
/// output_error, bit1 = persistent). Misses are simply absent.
std::string encode_store_verdicts(
    const std::vector<std::optional<StoredVerdict>>& verdicts);
void decode_store_verdicts(const std::string& text, std::size_t key_count,
                           std::vector<std::optional<StoredVerdict>>* out);

/// Publish request: "hi:lo:flags:cycle:mask,..." (hex).
std::string encode_store_entries(
    const std::vector<std::pair<VerdictKey, StoredVerdict>>& entries);
std::vector<std::pair<VerdictKey, StoredVerdict>> decode_store_entries(
    const std::string& text);

/// Answers one kStoreLookup request payload against `store`, returning the
/// kResult "store_verdicts" report. `out_keys`/`out_hits` (optional) get
/// the batch size and hit count for the caller's metrics. Throws Error on
/// a malformed payload — the caller turns that into a typed kError reply.
JsonReport answer_store_lookup(VerdictStore& store, const FlatJson& params,
                               u64* out_keys = nullptr,
                               u64* out_hits = nullptr);
/// Answers one kStorePublish request payload against `store`, returning the
/// kResult "store_ack" report. `out_entries` (optional) gets the batch
/// size. Throws Error on a malformed payload.
JsonReport answer_store_publish(VerdictStore& store, const FlatJson& params,
                                u64* out_entries = nullptr);

/// The coordinator-backed verdict tier a fabric worker campaign probes:
/// one VSRP1 session (with reconnect) to the coordinator, one kStoreLookup
/// or kStorePublish round trip per batched call. Transport failure degrades
/// exactly as the RemoteVerdictClient contract demands — all-miss lookups,
/// dropped publishes — so a dead coordinator never fails a campaign.
/// Thread-safe: batched calls from concurrent campaign workers multiplex
/// over the one session.
class VsrpRemoteStore : public RemoteVerdictClient {
 public:
  /// Connects to the coordinator's Unix socket. Throws Error when the
  /// initial connection fails (callers degrade to no remote tier).
  explicit VsrpRemoteStore(const std::string& socket_path,
                           ReconnectPolicy reconnect = {4, 50, 1000});

  void lookup_batch(const std::vector<VerdictKey>& keys,
                    std::vector<std::optional<StoredVerdict>>* out) override;
  void publish_batch(const std::vector<std::pair<VerdictKey, StoredVerdict>>&
                         entries) override;

  u64 lookups() const { return lookups_.load(std::memory_order_relaxed); }
  u64 hits() const { return hits_.load(std::memory_order_relaxed); }
  u64 publishes() const { return publishes_.load(std::memory_order_relaxed); }
  u64 transport_errors() const {
    return transport_errors_.load(std::memory_order_relaxed);
  }

 private:
  ServiceSession session_;
  std::atomic<u64> lookups_{0};
  std::atomic<u64> hits_{0};
  std::atomic<u64> publishes_{0};
  std::atomic<u64> transport_errors_{0};
};

}  // namespace vscrub
