#include "svc/protocol.h"

#include <cstdlib>
#include <cstring>

#include "common/crc.h"

namespace vscrub {
namespace {

constexpr char kMagic[5] = {'V', 'S', 'R', 'P', '1'};

void put_u32le(std::vector<u8>& out, u32 v) {
  out.push_back(static_cast<u8>(v));
  out.push_back(static_cast<u8>(v >> 8));
  out.push_back(static_cast<u8>(v >> 16));
  out.push_back(static_cast<u8>(v >> 24));
}

void put_u64le(std::vector<u8>& out, u64 v) {
  put_u32le(out, static_cast<u32>(v));
  put_u32le(out, static_cast<u32>(v >> 32));
}

u32 get_u32le(const u8* p) {
  return static_cast<u32>(p[0]) | static_cast<u32>(p[1]) << 8 |
         static_cast<u32>(p[2]) << 16 | static_cast<u32>(p[3]) << 24;
}

u64 get_u64le(const u8* p) {
  return static_cast<u64>(get_u32le(p)) |
         static_cast<u64>(get_u32le(p + 4)) << 32;
}

}  // namespace

bool frame_kind_valid(u8 kind) {
  switch (static_cast<FrameKind>(kind)) {
    case FrameKind::kPing:
    case FrameKind::kCampaign:
    case FrameKind::kRecampaign:
    case FrameKind::kMission:
    case FrameKind::kFleet:
    case FrameKind::kCancel:
    case FrameKind::kStats:
    case FrameKind::kStoreLookup:
    case FrameKind::kStorePublish:
    case FrameKind::kAccepted:
    case FrameKind::kProgress:
    case FrameKind::kResult:
    case FrameKind::kError:
    case FrameKind::kBusy:
    case FrameKind::kCheckpoint:
      return true;
  }
  return false;
}

const char* frame_kind_name(FrameKind kind) {
  switch (kind) {
    case FrameKind::kPing: return "ping";
    case FrameKind::kCampaign: return "campaign";
    case FrameKind::kRecampaign: return "recampaign";
    case FrameKind::kMission: return "mission";
    case FrameKind::kFleet: return "fleet";
    case FrameKind::kCancel: return "cancel";
    case FrameKind::kStats: return "stats";
    case FrameKind::kStoreLookup: return "store_lookup";
    case FrameKind::kStorePublish: return "store_publish";
    case FrameKind::kAccepted: return "accepted";
    case FrameKind::kProgress: return "progress";
    case FrameKind::kResult: return "result";
    case FrameKind::kError: return "error";
    case FrameKind::kBusy: return "busy";
    case FrameKind::kCheckpoint: return "checkpoint";
  }
  return "unknown";
}

std::vector<u8> encode_frame(const Frame& frame) {
  VSCRUB_CHECK(frame.payload.size() <= kMaxFramePayload,
               "vsrp1: payload exceeds the frame bound");
  std::vector<u8> out;
  out.reserve(kFrameHeaderBytes + frame.payload.size() + kFrameTrailerBytes);
  out.insert(out.end(), kMagic, kMagic + sizeof kMagic);
  out.push_back(static_cast<u8>(frame.kind));
  put_u64le(out, frame.request_id);
  put_u32le(out, static_cast<u32>(frame.payload.size()));
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  put_u32le(out, crc32(std::span<const u8>(out.data(), out.size())));
  return out;
}

void FrameDecoder::feed(std::span<const u8> bytes) {
  // Compact the already-consumed prefix before growing, so a long-lived
  // connection doesn't accumulate every frame it ever decoded.
  if (consumed_ > 0 && consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ > 4096) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

FrameDecoder::Status FrameDecoder::next(Frame* out) {
  if (poisoned()) return poison_;
  const u8* data = buffer_.data() + consumed_;
  const std::size_t have = buffer_.size() - consumed_;

  // Fail the magic as soon as any prefix of it mismatches — a garbage stream
  // is rejected on its first bytes, not after a full header arrives. An
  // empty buffer has no prefix to check (and `data` may be null).
  const std::size_t magic_check = have < sizeof kMagic ? have : sizeof kMagic;
  if (magic_check > 0 && std::memcmp(data, kMagic, magic_check) != 0) {
    return poison_ = Status::kBadMagic;
  }
  if (have < kFrameHeaderBytes) return Status::kNeedMore;

  const u64 payload_len = get_u32le(data + 14);
  if (payload_len > kMaxFramePayload) return poison_ = Status::kOversized;
  const std::size_t total = kFrameHeaderBytes +
                            static_cast<std::size_t>(payload_len) +
                            kFrameTrailerBytes;
  if (have < total) return Status::kNeedMore;

  const u32 stored_crc = get_u32le(data + total - kFrameTrailerBytes);
  const u32 actual_crc =
      crc32(std::span<const u8>(data, total - kFrameTrailerBytes));
  if (stored_crc != actual_crc) return poison_ = Status::kBadCrc;

  const u8 kind = data[5];
  if (!frame_kind_valid(kind)) {
    // Framing intact: skip just this frame, but surface its request id so
    // the typed error reply can be correlated with the offending request.
    out->request_id = get_u64le(data + 6);
    consumed_ += total;
    return Status::kBadKind;
  }
  out->kind = static_cast<FrameKind>(kind);
  out->request_id = get_u64le(data + 6);
  out->payload.assign(reinterpret_cast<const char*>(data) + kFrameHeaderBytes,
                      static_cast<std::size_t>(payload_len));
  consumed_ += total;
  return Status::kFrame;
}

const char* decode_status_name(FrameDecoder::Status s) {
  switch (s) {
    case FrameDecoder::Status::kNeedMore: return "need_more";
    case FrameDecoder::Status::kFrame: return "frame";
    case FrameDecoder::Status::kBadMagic: return "bad_magic";
    case FrameDecoder::Status::kOversized: return "oversized";
    case FrameDecoder::Status::kBadCrc: return "bad_crc";
    case FrameDecoder::Status::kBadKind: return "bad_kind";
  }
  return "unknown";
}

namespace {

struct Cursor {
  const std::string& text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }
  char peek() const { return pos < text.size() ? text[pos] : '\0'; }
  void expect(char c, const char* what) {
    VSCRUB_CHECK(peek() == c, std::string("json: expected ") + what);
    ++pos;
  }
};

std::string parse_json_string(Cursor& c) {
  c.expect('"', "string");
  std::string out;
  while (true) {
    VSCRUB_CHECK(c.pos < c.text.size(), "json: unterminated string");
    const char ch = c.text[c.pos++];
    if (ch == '"') return out;
    if (ch != '\\') {
      out.push_back(ch);
      continue;
    }
    VSCRUB_CHECK(c.pos < c.text.size(), "json: dangling escape");
    const char esc = c.text[c.pos++];
    switch (esc) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'n': out.push_back('\n'); break;
      case 't': out.push_back('\t'); break;
      case 'r': out.push_back('\r'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'u': {
        VSCRUB_CHECK(c.pos + 4 <= c.text.size(), "json: short \\u escape");
        u32 code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = c.text[c.pos++];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<u32>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<u32>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<u32>(h - 'A' + 10);
          else throw Error("json: bad \\u escape");
        }
        // The serializer only emits \u00xx control codes; decode those and
        // pass anything wider through as UTF-8.
        if (code < 0x80) {
          out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out.push_back(static_cast<char>(0xC0 | (code >> 6)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          out.push_back(static_cast<char>(0xE0 | (code >> 12)));
          out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        break;
      }
      default:
        throw Error("json: unknown escape");
    }
  }
}

std::string parse_json_scalar(Cursor& c) {
  const std::size_t start = c.pos;
  while (c.pos < c.text.size()) {
    const char ch = c.text[c.pos];
    if (ch == ',' || ch == '}' || ch == ' ' || ch == '\t' || ch == '\n' ||
        ch == '\r') {
      break;
    }
    VSCRUB_CHECK(ch != '{' && ch != '[',
                 "json: nested values are not part of the flat schema");
    ++c.pos;
  }
  VSCRUB_CHECK(c.pos > start, "json: empty value");
  return c.text.substr(start, c.pos - start);
}

}  // namespace

FlatJson FlatJson::parse(const std::string& text) {
  FlatJson out;
  Cursor c{text};
  c.skip_ws();
  c.expect('{', "'{'");
  c.skip_ws();
  if (c.peek() == '}') {
    ++c.pos;
    return out;
  }
  while (true) {
    c.skip_ws();
    std::string name = parse_json_string(c);
    c.skip_ws();
    c.expect(':', "':'");
    c.skip_ws();
    std::string value =
        c.peek() == '"' ? parse_json_string(c) : parse_json_scalar(c);
    out.fields_.emplace_back(std::move(name), std::move(value));
    c.skip_ws();
    if (c.peek() == ',') {
      ++c.pos;
      continue;
    }
    c.expect('}', "',' or '}'");
    return out;
  }
}

const std::string* FlatJson::raw(const std::string& name) const {
  for (const auto& [k, v] : fields_) {
    if (k == name) return &v;
  }
  return nullptr;
}

bool FlatJson::has(const std::string& name) const {
  return raw(name) != nullptr;
}

std::string FlatJson::get_string(const std::string& name,
                                 const std::string& dflt) const {
  const std::string* v = raw(name);
  return v != nullptr ? *v : dflt;
}

u64 FlatJson::get_u64(const std::string& name, u64 dflt) const {
  const std::string* v = raw(name);
  return v != nullptr ? std::strtoull(v->c_str(), nullptr, 10) : dflt;
}

double FlatJson::get_double(const std::string& name, double dflt) const {
  const std::string* v = raw(name);
  return v != nullptr ? std::atof(v->c_str()) : dflt;
}

bool FlatJson::get_bool(const std::string& name, bool dflt) const {
  const std::string* v = raw(name);
  if (v == nullptr) return dflt;
  return *v == "true" || *v == "1";
}

}  // namespace vscrub
