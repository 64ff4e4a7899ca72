// VSRP1 — the vscrubd wire protocol. One frame per request or reply:
//
//   offset  size  field
//        0     5  magic "VSRP1"
//        5     1  kind (FrameKind)
//        6     8  request_id, little-endian
//       14     4  payload length, little-endian
//       18     n  payload (UTF-8 JSON, the report/json flat-object shape,
//                 except for the two store verbs below)
//     18+n     4  CRC-32 (IEEE, reflected) over every preceding byte
//
// Payloads reuse the report/json serializer, so every request and reply
// opens with the same "schema_version"/"kind" pair the offline artifacts
// carry, and the CRC trailer gives the socket stream the same integrity
// discipline the bitstream records ("VSCK3"/"VVS1") already have: a
// truncated, bit-flipped or hostile frame decodes to a *typed* error, never
// to a partially-believed request.
//
// Two kinds are not JSON: a kStoreLookup or kStorePublish request, and its
// kResult reply, carry fixed-width little-endian binary (a u32 count, then
// 32-byte key pairs, tag bytes plus 13-byte verdicts, or 29-byte VVS1 shard
// entries; svc/store_wire.h has the layouts). They are the fleet's hottest
// frames, one per chunk, and a fixed width lets the decoder check the exact
// length. Their kError replies stay JSON. The CRC covers them like any
// payload. A peer speaking protocol version 1 (hex in JSON) gets a typed
// bad_request from a version-2 hub and degrades to no reuse; it never
// receives a wrong verdict.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace vscrub {

/// Frame kinds. Requests are < 16, replies >= 16; anything else is rejected
/// at decode time so a corrupted kind can't alias a valid one silently.
enum class FrameKind : u8 {
  // Client -> server.
  kPing = 1,        ///< liveness + version probe, answered inline
  kCampaign = 2,    ///< run an injection campaign (queued)
  kRecampaign = 3,  ///< delta re-campaign against the shared store (queued)
  kMission = 4,     ///< single on-orbit mission simulation (queued)
  kFleet = 5,       ///< Monte-Carlo fleet sweep (queued)
  kCancel = 6,      ///< cancel a queued/running request, answered inline
  kStats = 7,       ///< server metrics snapshot, answered inline
  // Fabric (coordinator) requests, answered inline.
  kStoreLookup = 8,   ///< batched exact-or-fallback verdict probe (binary)
  kStorePublish = 9,  ///< batched verdict publish into the hub store (binary)

  // Server -> client.
  kAccepted = 16,  ///< request admitted to the work queue
  kProgress = 17,  ///< streaming chunk-complete telemetry
  kResult = 18,    ///< terminal success; payload is the report JSON
  kError = 19,     ///< terminal failure; payload carries code + message
  kBusy = 20,      ///< admission rejected; payload carries retry_after_ms
  kCheckpoint = 21,  ///< streamed VSCK range checkpoint (fabric heartbeat)
};

/// Reported as "protocol_version" by kPing and kStats. Version 2 made the
/// store verbs binary.
inline constexpr u64 kProtocolVersion = 2;

bool frame_kind_valid(u8 kind);
const char* frame_kind_name(FrameKind kind);

/// One decoded frame. `payload` is the JSON text (possibly empty for pings),
/// or the binary body of a store verb.
struct Frame {
  FrameKind kind = FrameKind::kPing;
  u64 request_id = 0;
  std::string payload;
};

inline constexpr std::size_t kFrameHeaderBytes = 18;
inline constexpr std::size_t kFrameTrailerBytes = 4;
/// Hard payload bound: a length prefix above this is rejected *before* any
/// buffering, so a hostile 4 GiB prefix cannot make the server allocate.
inline constexpr u64 kMaxFramePayload = 8ull << 20;

/// Serializes a frame (header + payload + CRC trailer).
std::vector<u8> encode_frame(const Frame& frame);

/// Incremental frame decoder over an untrusted byte stream. Feed bytes as
/// they arrive; next() yields complete frames or a typed error. Stream-level
/// errors (bad magic, oversized length, CRC mismatch) poison the decoder —
/// the stream has lost sync, so every later next() repeats the error and the
/// connection should answer with a typed error frame and close. An unknown
/// kind inside an otherwise valid frame is NOT poisoning: the frame is
/// consumed and the connection keeps going.
class FrameDecoder {
 public:
  enum class Status : u8 {
    kNeedMore,  ///< no complete frame buffered yet
    kFrame,     ///< *out was filled with the next frame
    kBadMagic,  ///< stream does not start with "VSRP1" (poisoned)
    kOversized, ///< length prefix exceeds kMaxFramePayload (poisoned)
    kBadCrc,    ///< CRC trailer mismatch (poisoned)
    kBadKind,   ///< valid frame, unknown kind byte (frame consumed; only
                ///< out->request_id is filled, for the error reply)
  };

  /// Appends raw bytes from the stream.
  void feed(std::span<const u8> bytes);

  /// Extracts the next frame or reports why it can't.
  Status next(Frame* out);

  bool poisoned() const { return poison_ != Status::kNeedMore; }
  /// Bytes buffered and not yet consumed (test/introspection hook).
  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::vector<u8> buffer_;
  std::size_t consumed_ = 0;  ///< prefix of buffer_ already decoded
  Status poison_ = Status::kNeedMore;
};

const char* decode_status_name(FrameDecoder::Status s);

/// A parsed flat JSON object — the read side of report/json's JsonReport.
/// Handles exactly the shape every vscrub artifact uses (one object of
/// string/number/bool/null scalars) and throws Error on anything else, so a
/// malformed request degrades to one typed kError reply.
class FlatJson {
 public:
  /// Parses `{"name": value, ...}`. Throws Error on malformed input.
  static FlatJson parse(const std::string& text);

  bool has(const std::string& name) const;
  std::string get_string(const std::string& name,
                         const std::string& dflt = "") const;
  u64 get_u64(const std::string& name, u64 dflt = 0) const;
  double get_double(const std::string& name, double dflt = 0.0) const;
  bool get_bool(const std::string& name, bool dflt = false) const;

  const std::vector<std::pair<std::string, std::string>>& fields() const {
    return fields_;
  }

 private:
  const std::string* raw(const std::string& name) const;
  /// (name, value) pairs; string values are unescaped, others kept verbatim.
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace vscrub
