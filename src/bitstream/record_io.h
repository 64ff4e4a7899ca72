// CRC-protected records: the little-endian, magic-tagged, crc32-trailed
// container shared by bitstream images ("VSCB1"), campaign checkpoints
// ("VSCK5"), manifests and verdict-store segments ("VVS1"). A RecordWriter
// accumulates fields and either hands back the sealed bytes, writes the
// whole record atomically (tmp file + rename), so a reader never observes a
// half-written file, or appends it to a log file in one system call; a
// RecordReader, over a file or over bytes, verifies magic and CRC up front
// and then hands out fields with bounds checking.
#pragma once

#include <array>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"

namespace vscrub {

class RecordWriter {
 public:
  /// Starts a record with the given magic tag (e.g. "VSCB1").
  explicit RecordWriter(const std::string& magic);

  void put_u8(u8 v);
  void put_u16(u16 v);
  void put_u32(u32 v);
  void put_u64(u64 v);
  /// Length-prefixed (u32) byte string.
  void put_string(const std::string& s);
  /// Raw bytes, no length prefix (callers encode their own counts).
  void put_bytes(const u8* data, std::size_t n);

  const std::vector<u8>& bytes() const { return buf_; }

  /// The whole record: everything accumulated so far plus its crc32
  /// trailer, the bytes write() would put in a file.
  std::vector<u8> sealed() const;

  /// Appends the crc32 trailer (over everything accumulated so far) and
  /// writes the record to `path` atomically: the bytes land in `path`.tmp
  /// first and are renamed into place, so an interrupted write leaves any
  /// previous record intact.
  void write(const std::string& path) const;

  /// Appends the record and its crc32 trailer to the end of `path`
  /// (created if missing) in one writev() on an O_APPEND descriptor, so
  /// records appended to one file never interleave. Returns false when the
  /// open, the write or the close fails or the write comes up short; the
  /// file may then end in a torn record, which its reader must drop.
  bool append(const std::string& path) const;

 private:
  /// The crc32 of everything accumulated so far, little-endian.
  std::array<u8, 4> trailer() const;

  std::vector<u8> buf_;
};

class RecordReader {
 public:
  /// Loads `path`, checks the magic tag and the crc32 trailer, and positions
  /// the cursor on the first field after the magic. Throws (VSCRUB_CHECK) on
  /// any mismatch.
  RecordReader(const std::string& path, const std::string& magic);
  /// The same over a record already in memory; `source` names it in error
  /// messages.
  RecordReader(std::vector<u8> record, const std::string& magic,
               std::string source = "record");

  u8 get_u8();
  u16 get_u16();
  u32 get_u32();
  u64 get_u64();
  std::string get_string();
  void get_bytes(u8* out, std::size_t n);

  std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  std::vector<u8> buf_;  ///< payload without the CRC trailer
  std::size_t pos_ = 0;
  std::string source_;  ///< for error messages
};

/// Writes `size` bytes to `path`.tmp, then renames it into place, so a
/// reader never sees a half-written file. Throws Error when the open, the
/// write, the close or the rename fails, leaving no `.tmp` behind.
void write_file_atomic(const std::string& path, const void* data,
                       std::size_t size);
/// The same for a file made of `pieces` written back to back.
void write_file_atomic(const std::string& path,
                       std::initializer_list<std::span<const u8>> pieces);

/// Reads the whole of `path` into `out`; false when the file is missing or
/// unreadable.
bool read_file(const std::string& path, std::vector<u8>* out);

/// True when `path` exists and carries the given magic tag (cheap sniff; no
/// CRC verification).
bool record_exists(const std::string& path, const std::string& magic);

}  // namespace vscrub
