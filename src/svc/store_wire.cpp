#include "svc/store_wire.h"

#include <cstdio>
#include <string_view>

#include "common/log.h"
#include "report/json.h"

namespace vscrub {
namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// Minimal-width lowercase hex (no 0x). Zero renders as "0".
void append_hex(std::string* out, u64 v) {
  char buf[16];
  int n = 0;
  do {
    buf[n++] = kHexDigits[v & 0xF];
    v >>= 4;
  } while (v != 0);
  while (n > 0) out->push_back(buf[--n]);
}

u64 parse_hex(std::string_view text) {
  VSCRUB_CHECK(!text.empty() && text.size() <= 16,
               "store wire: bad hex field width");
  u64 v = 0;
  for (const char c : text) {
    const int d = hex_value(c);
    VSCRUB_CHECK(d >= 0, "store wire: non-hex character");
    v = (v << 4) | static_cast<u64>(d);
  }
  return v;
}

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t end = text.find(sep, begin);
    if (end == std::string_view::npos) {
      parts.push_back(text.substr(begin));
      break;
    }
    parts.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return parts;
}

void append_verdict_fields(std::string* out, const StoredVerdict& v) {
  const u64 flags = (v.output_error ? 1u : 0u) | (v.persistent ? 2u : 0u);
  append_hex(out, flags);
  out->push_back(':');
  append_hex(out, v.first_error_cycle);
  out->push_back(':');
  append_hex(out, v.error_output_mask_lo);
}

StoredVerdict verdict_from_fields(std::string_view flags,
                                  std::string_view cycle,
                                  std::string_view mask) {
  const u64 f = parse_hex(flags);
  VSCRUB_CHECK(f <= 3, "store wire: unknown verdict flag bits");
  StoredVerdict v;
  v.output_error = (f & 1) != 0;
  v.persistent = (f & 2) != 0;
  v.first_error_cycle = static_cast<u32>(parse_hex(cycle));
  v.error_output_mask_lo = parse_hex(mask);
  return v;
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

bool read_file_bytes(const std::string& path, std::vector<u8>* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out->clear();
  u8 buf[65536];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->insert(out->end(), buf, buf + n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

std::string encode_store_keys(const std::vector<VerdictKey>& keys) {
  std::string out;
  out.reserve(keys.size() * 34);
  for (const VerdictKey& key : keys) {
    if (!out.empty()) out.push_back(',');
    append_hex(&out, key.hi);
    out.push_back(':');
    append_hex(&out, key.lo);
  }
  return out;
}

std::vector<VerdictKey> decode_store_keys(const std::string& text) {
  std::vector<VerdictKey> keys;
  if (text.empty()) return keys;
  for (const std::string_view entry : split(text, ',')) {
    const std::vector<std::string_view> f = split(entry, ':');
    VSCRUB_CHECK(f.size() == 2, "store wire: key is not hi:lo");
    keys.push_back(VerdictKey{parse_hex(f[0]), parse_hex(f[1])});
  }
  return keys;
}

std::string encode_store_verdicts(
    const std::vector<std::optional<StoredVerdict>>& verdicts) {
  std::string out;
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    if (!verdicts[i].has_value()) continue;
    if (!out.empty()) out.push_back(',');
    append_hex(&out, i);
    out.push_back(':');
    append_verdict_fields(&out, *verdicts[i]);
  }
  return out;
}

void decode_store_verdicts(const std::string& text, std::size_t key_count,
                           std::vector<std::optional<StoredVerdict>>* out) {
  out->assign(key_count, std::nullopt);
  if (text.empty()) return;
  for (const std::string_view entry : split(text, ',')) {
    const std::vector<std::string_view> f = split(entry, ':');
    VSCRUB_CHECK(f.size() == 4, "store wire: verdict is not index:fields");
    const u64 index = parse_hex(f[0]);
    VSCRUB_CHECK(index < key_count, "store wire: verdict index out of range");
    (*out)[index] = verdict_from_fields(f[1], f[2], f[3]);
  }
}

std::string encode_store_entries(
    const std::vector<std::pair<VerdictKey, StoredVerdict>>& entries) {
  std::string out;
  out.reserve(entries.size() * 44);
  for (const auto& [key, verdict] : entries) {
    if (!out.empty()) out.push_back(',');
    append_hex(&out, key.hi);
    out.push_back(':');
    append_hex(&out, key.lo);
    out.push_back(':');
    append_verdict_fields(&out, verdict);
  }
  return out;
}

std::vector<std::pair<VerdictKey, StoredVerdict>> decode_store_entries(
    const std::string& text) {
  std::vector<std::pair<VerdictKey, StoredVerdict>> entries;
  if (text.empty()) return entries;
  for (const std::string_view entry : split(text, ',')) {
    const std::vector<std::string_view> f = split(entry, ':');
    VSCRUB_CHECK(f.size() == 5, "store wire: entry is not hi:lo:fields");
    entries.emplace_back(VerdictKey{parse_hex(f[0]), parse_hex(f[1])},
                         verdict_from_fields(f[2], f[3], f[4]));
  }
  return entries;
}

JsonReport answer_store_lookup(VerdictStore& store, const FlatJson& params,
                               u64* out_keys, u64* out_hits) {
  const std::vector<VerdictKey> keys =
      decode_store_keys(params.get_string("keys"));
  std::vector<std::optional<StoredVerdict>> verdicts(keys.size());
  u64 found = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    verdicts[i] = store.find(keys[i]);
    if (verdicts[i].has_value()) ++found;
  }
  if (out_keys != nullptr) *out_keys = keys.size();
  if (out_hits != nullptr) *out_hits = found;
  return JsonReport("store_verdicts")
      .set_u64("hits", found)
      .set_string("verdicts", encode_store_verdicts(verdicts));
}

JsonReport answer_store_publish(VerdictStore& store, const FlatJson& params,
                                u64* out_entries) {
  const std::vector<std::pair<VerdictKey, StoredVerdict>> entries =
      decode_store_entries(params.get_string("entries"));
  for (const auto& [key, verdict] : entries) store.put(key, verdict);
  if (out_entries != nullptr) *out_entries = entries.size();
  return JsonReport("store_ack").set_u64("accepted", entries.size());
}

VsrpRemoteStore::VsrpRemoteStore(const std::string& socket_path,
                                 ReconnectPolicy reconnect)
    : session_(ServiceSession::connect_unix(socket_path, reconnect)) {}

void VsrpRemoteStore::lookup_batch(
    const std::vector<VerdictKey>& keys,
    std::vector<std::optional<StoredVerdict>>* out) {
  out->assign(keys.size(), std::nullopt);
  if (keys.empty()) return;
  lookups_.fetch_add(keys.size(), std::memory_order_relaxed);
  JsonReport req("store_lookup");
  req.set_string("keys", encode_store_keys(keys));
  try {
    const Frame reply = session_.call(FrameKind::kStoreLookup, req.to_json());
    if (reply.kind != FrameKind::kResult) return;  // typed server-side error
    const FlatJson body = FlatJson::parse(reply.payload);
    decode_store_verdicts(body.get_string("verdicts"), keys.size(), out);
    u64 found = 0;
    for (const auto& v : *out) found += v.has_value() ? 1u : 0u;
    hits_.fetch_add(found, std::memory_order_relaxed);
  } catch (const Error&) {
    // Degrade to all-miss: a dead coordinator costs reuse, not the campaign.
    transport_errors_.fetch_add(1, std::memory_order_relaxed);
    out->assign(keys.size(), std::nullopt);
  }
}

void VsrpRemoteStore::publish_batch(
    const std::vector<std::pair<VerdictKey, StoredVerdict>>& entries) {
  if (entries.empty()) return;
  JsonReport req("store_publish");
  req.set_string("entries", encode_store_entries(entries));
  try {
    const Frame reply = session_.call(FrameKind::kStorePublish, req.to_json());
    if (reply.kind == FrameKind::kResult) {
      publishes_.fetch_add(entries.size(), std::memory_order_relaxed);
    }
  } catch (const Error&) {
    transport_errors_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace vscrub
