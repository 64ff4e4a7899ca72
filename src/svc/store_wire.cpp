#include "svc/store_wire.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/log.h"

namespace vscrub {
namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// A little-endian field of T at `at` (host order when the host is little-
/// endian, which every supported target is; the byte loop keeps the codec
/// correct elsewhere).
template <typename T>
void store_le(char* at, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(at, &v, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i) {
      at[i] = static_cast<char>((static_cast<u64>(v) >> (8 * i)) & 0xFF);
    }
  }
}

template <typename T>
T load_le(const char* at) {
  T v;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, at, sizeof v);
  } else {
    u64 x = 0;
    for (std::size_t i = 0; i < sizeof v; ++i) {
      x |= static_cast<u64>(static_cast<u8>(at[i])) << (8 * i);
    }
    v = static_cast<T>(x);
  }
  return v;
}

/// Little-endian writer into a payload of exactly the size the encoder
/// computed up front.
class WireWriter {
 public:
  explicit WireWriter(std::size_t bytes) : out_(bytes, '\0') {}
  void put_u8(u8 v) { put(v); }
  void put_u32(u32 v) { put(v); }
  void put_u64(u64 v) { put(v); }
  void put_key(const VerdictKey& k) {
    put_u64(k.hi);
    put_u64(k.lo);
  }
  void put_verdict(const StoredVerdict& v) {
    put_u8(verdict_flags(v));
    put_u32(v.first_error_cycle);
    put_u64(v.error_output_mask_lo);
  }
  std::string take() {
    VSCRUB_CHECK(pos_ == out_.size(), "store wire: encoder size mismatch");
    return std::move(out_);
  }

 private:
  template <typename T>
  void put(T v) {
    VSCRUB_CHECK(out_.size() - pos_ >= sizeof v,
                 "store wire: encoder size mismatch");
    store_le(out_.data() + pos_, v);
    pos_ += sizeof v;
  }
  std::string out_;
  std::size_t pos_ = 0;
};

/// Little-endian reader over an untrusted payload. The callers check the
/// exact length up front, so reads past the end are a codec bug; they still
/// throw rather than read out of bounds.
class WireReader {
 public:
  explicit WireReader(std::string_view in) : in_(in) {}
  std::size_t remaining() const { return in_.size() - pos_; }
  u8 get_u8() { return get<u8>(); }
  u32 get_u32() { return get<u32>(); }
  u64 get_u64() { return get<u64>(); }
  VerdictKey get_key() {
    VerdictKey k;
    k.hi = get_u64();
    k.lo = get_u64();
    return k;
  }
  StoredVerdict get_verdict() {
    const u8 flags = get_u8();
    VSCRUB_CHECK(flags <= 3, "store wire: unknown verdict flag bits");
    StoredVerdict v;
    v.output_error = (flags & 1) != 0;
    v.persistent = (flags & 2) != 0;
    v.first_error_cycle = get_u32();
    v.error_output_mask_lo = get_u64();
    return v;
  }

 private:
  template <typename T>
  T get() {
    VSCRUB_CHECK(remaining() >= sizeof(T), "store wire: truncated payload");
    const T v = load_le<T>(in_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }
  std::string_view in_;
  std::size_t pos_ = 0;
};

/// Reads the leading count of a store payload whose slots are all
/// `slot_bytes` wide, and checks the payload is exactly that long.
u32 fixed_width_count(WireReader& r, std::size_t slot_bytes) {
  const u32 count = r.get_u32();
  VSCRUB_CHECK(r.remaining() == u64{count} * slot_bytes,
               "store wire: payload length does not match its count");
  return count;
}

u32 checked_count(std::size_t n, std::size_t max) {
  VSCRUB_CHECK(n <= max, "store wire: batch exceeds one frame");
  return static_cast<u32>(n);
}

}  // namespace

std::string hex_encode(std::span<const u8> bytes) {
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const u8 b : bytes) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0xF]);
  }
  return out;
}

std::vector<u8> hex_decode(const std::string& text) {
  VSCRUB_CHECK(text.size() % 2 == 0, "hex blob: odd length");
  std::vector<u8> out(text.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const int hi = hex_value(text[2 * i]);
    const int lo = hex_value(text[2 * i + 1]);
    VSCRUB_CHECK(hi >= 0 && lo >= 0, "hex blob: non-hex character");
    out[i] = static_cast<u8>((hi << 4) | lo);
  }
  return out;
}

std::string encode_store_lookup(std::span<const VerdictKeyPair> pairs) {
  const u32 count = checked_count(pairs.size(), kStoreLookupBatchMax);
  WireWriter w(kStoreCountBytes + pairs.size() * kStorePairBytes);
  w.put_u32(count);
  for (const VerdictKeyPair& p : pairs) {
    w.put_key(p.exact);
    w.put_key(p.fallback);
  }
  return w.take();
}

std::vector<VerdictKeyPair> decode_store_lookup(std::string_view payload) {
  WireReader r(payload);
  const u32 count = fixed_width_count(r, kStorePairBytes);
  std::vector<VerdictKeyPair> pairs(count);
  for (VerdictKeyPair& p : pairs) {
    p.exact = r.get_key();
    p.fallback = r.get_key();
  }
  return pairs;
}

std::string encode_store_lookup_reply(std::span<const VerdictLookup> slots) {
  const u32 count = checked_count(slots.size(), kStoreLookupBatchMax);
  std::size_t hits = 0;
  for (const VerdictLookup& s : slots) hits += s.hit() ? 1u : 0u;
  WireWriter w(kStoreCountBytes + slots.size() + hits * kStoreVerdictBytes);
  w.put_u32(count);
  for (const VerdictLookup& s : slots) w.put_u8(static_cast<u8>(s.match));
  for (const VerdictLookup& s : slots) {
    if (s.hit()) w.put_verdict(s.verdict);
  }
  return w.take();
}

std::vector<VerdictLookup> decode_store_lookup_reply(std::string_view payload,
                                                     std::size_t expected) {
  WireReader r(payload);
  const u32 count = r.get_u32();
  VSCRUB_CHECK(count == expected,
               "store wire: reply count differs from the request");
  VSCRUB_CHECK(r.remaining() >= count, "store wire: truncated reply tags");
  std::vector<VerdictLookup> slots(count);
  std::size_t hits = 0;
  for (VerdictLookup& s : slots) {
    const u8 tag = r.get_u8();
    VSCRUB_CHECK(tag <= static_cast<u8>(VerdictMatch::kFallback),
                 "store wire: unknown reply tag");
    s.match = static_cast<VerdictMatch>(tag);
    hits += s.hit() ? 1u : 0u;
  }
  VSCRUB_CHECK(r.remaining() == hits * kStoreVerdictBytes,
               "store wire: reply length does not match its hits");
  for (VerdictLookup& s : slots) {
    if (s.hit()) s.verdict = r.get_verdict();
  }
  return slots;
}

std::string encode_store_publish(
    std::span<const std::pair<VerdictKey, StoredVerdict>> entries) {
  const u32 count = checked_count(entries.size(), kStorePublishBatchMax);
  WireWriter w(kStoreCountBytes + entries.size() * kStoreEntryBytes);
  w.put_u32(count);
  for (const auto& [key, verdict] : entries) {
    w.put_key(key);
    w.put_verdict(verdict);
  }
  return w.take();
}

std::vector<std::pair<VerdictKey, StoredVerdict>> decode_store_publish(
    std::string_view payload) {
  WireReader r(payload);
  const u32 count = fixed_width_count(r, kStoreEntryBytes);
  std::vector<std::pair<VerdictKey, StoredVerdict>> entries;
  entries.reserve(count);
  for (u32 i = 0; i < count; ++i) {
    const VerdictKey key = r.get_key();
    entries.emplace_back(key, r.get_verdict());
  }
  return entries;
}

std::string encode_store_count(u32 count) {
  WireWriter w(kStoreCountBytes);
  w.put_u32(count);
  return w.take();
}

u32 decode_store_count(std::string_view payload) {
  WireReader r(payload);
  return fixed_width_count(r, 0);
}

std::string answer_store_lookup(const VerdictStore& store,
                                std::string_view payload, u64* out_keys,
                                u64* out_hits) {
  const std::vector<VerdictKeyPair> pairs = decode_store_lookup(payload);
  std::vector<VerdictLookup> slots;
  store.find_batch(pairs, &slots);
  if (out_keys != nullptr) *out_keys = pairs.size();
  if (out_hits != nullptr) {
    u64 found = 0;
    for (const VerdictLookup& s : slots) found += s.hit() ? 1u : 0u;
    *out_hits = found;
  }
  return encode_store_lookup_reply(slots);
}

std::string answer_store_publish(VerdictStore& store, std::string_view payload,
                                 u64* out_entries) {
  const std::vector<std::pair<VerdictKey, StoredVerdict>> entries =
      decode_store_publish(payload);
  for (const auto& [key, verdict] : entries) store.put(key, verdict);
  if (out_entries != nullptr) *out_entries = entries.size();
  return encode_store_count(static_cast<u32>(entries.size()));
}

VsrpRemoteStore::VsrpRemoteStore(const std::string& socket_path,
                                 ReconnectPolicy reconnect)
    : session_(ServiceSession::connect_unix(socket_path, reconnect)) {}

void VsrpRemoteStore::lookup_batch(const std::vector<VerdictKeyPair>& pairs,
                                   std::vector<VerdictLookup>* out) {
  out->assign(pairs.size(), VerdictLookup{});
  lookups_.fetch_add(pairs.size(), std::memory_order_relaxed);
  for (std::size_t base = 0; base < pairs.size();
       base += kStoreLookupBatchMax) {
    const std::span<const VerdictKeyPair> batch =
        std::span(pairs).subspan(
            base, std::min(kStoreLookupBatchMax, pairs.size() - base));
    try {
      const Frame reply =
          session_.call(FrameKind::kStoreLookup, encode_store_lookup(batch));
      if (reply.kind != FrameKind::kResult) {
        // A typed hub-side error (no store, or a hub speaking another
        // protocol version): this batch stays all-miss.
        failed_frames_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const std::vector<VerdictLookup> slots =
          decode_store_lookup_reply(reply.payload, batch.size());
      u64 found = 0;
      for (std::size_t i = 0; i < slots.size(); ++i) {
        found += slots[i].hit() ? 1u : 0u;
        (*out)[base + i] = slots[i];
      }
      hits_.fetch_add(found, std::memory_order_relaxed);
    } catch (const Error&) {
      // Degrade to all-miss: a dead coordinator costs reuse, not the
      // campaign. A malformed reply is decoded whole before any slot is
      // written, so it never leaves a partial batch behind.
      failed_frames_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void VsrpRemoteStore::publish_batch(
    const std::vector<std::pair<VerdictKey, StoredVerdict>>& entries) {
  for (std::size_t base = 0; base < entries.size();
       base += kStorePublishBatchMax) {
    const auto batch = std::span(entries).subspan(
        base, std::min(kStorePublishBatchMax, entries.size() - base));
    try {
      const Frame reply =
          session_.call(FrameKind::kStorePublish, encode_store_publish(batch));
      if (reply.kind == FrameKind::kResult &&
          decode_store_count(reply.payload) == batch.size()) {
        publishes_.fetch_add(batch.size(), std::memory_order_relaxed);
      } else {
        failed_frames_.fetch_add(1, std::memory_order_relaxed);
      }
    } catch (const Error&) {
      failed_frames_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

}  // namespace vscrub
