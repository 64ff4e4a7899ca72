#include "bitstream/record_io.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "common/crc.h"
#include "common/log.h"

namespace vscrub {
namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace

RecordWriter::RecordWriter(const std::string& magic) {
  buf_.insert(buf_.end(), magic.begin(), magic.end());
}

void RecordWriter::put_u8(u8 v) { buf_.push_back(v); }

void RecordWriter::put_u16(u16 v) {
  buf_.push_back(static_cast<u8>(v));
  buf_.push_back(static_cast<u8>(v >> 8));
}

void RecordWriter::put_u32(u32 v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<u8>(v >> (8 * i)));
}

void RecordWriter::put_u64(u64 v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<u8>(v >> (8 * i)));
}

void RecordWriter::put_string(const std::string& s) {
  put_u32(static_cast<u32>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void RecordWriter::put_bytes(const u8* data, std::size_t n) {
  buf_.insert(buf_.end(), data, data + n);
}

std::array<u8, 4> RecordWriter::trailer() const {
  const u32 crc = crc32(buf_);
  return {static_cast<u8>(crc), static_cast<u8>(crc >> 8),
          static_cast<u8>(crc >> 16), static_cast<u8>(crc >> 24)};
}

std::vector<u8> RecordWriter::sealed() const {
  const std::array<u8, 4> crc = trailer();
  std::vector<u8> out;
  out.reserve(buf_.size() + crc.size());
  out.insert(out.end(), buf_.begin(), buf_.end());
  out.insert(out.end(), crc.begin(), crc.end());
  return out;
}

void RecordWriter::write(const std::string& path) const {
  const std::array<u8, 4> crc = trailer();
  write_file_atomic(path, {std::span(buf_), std::span(crc)});
}

bool RecordWriter::append(const std::string& path) const {
  std::array<u8, 4> crc = trailer();
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0666);
  if (fd < 0) return false;
  // writev() takes mutable bases but only reads them.
  const std::array<iovec, 2> pieces{
      {{const_cast<u8*>(buf_.data()), buf_.size()}, {crc.data(), crc.size()}}};
  const ssize_t wrote = ::writev(fd, pieces.data(), 2);
  const bool closed = ::close(fd) == 0;
  return closed && wrote == static_cast<ssize_t>(buf_.size() + crc.size());
}

void write_file_atomic(const std::string& path, const void* data,
                       std::size_t size) {
  write_file_atomic(path, {std::span(static_cast<const u8*>(data), size)});
}

void write_file_atomic(const std::string& path,
                       std::initializer_list<std::span<const u8>> pieces) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  VSCRUB_CHECK(f != nullptr, "cannot open " + tmp + " for writing");
  bool wrote = true;
  for (const std::span<const u8> piece : pieces) {
    wrote = wrote && (piece.empty() ||
                      std::fwrite(piece.data(), 1, piece.size(), f) ==
                          piece.size());
  }
  // fclose flushes: a full disk surfaces here, not at fwrite.
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("cannot write " + path);
  }
}

bool read_file(const std::string& path, std::vector<u8>* out) {
  const File f(std::fopen(path.c_str(), "rb"));
  if (!f) return false;
  out->clear();
  u8 buf[65536];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f.get())) > 0) {
    out->insert(out->end(), buf, buf + n);
  }
  return std::ferror(f.get()) == 0;
}

namespace {

std::vector<u8> load_record(const std::string& path) {
  std::vector<u8> bytes;
  VSCRUB_CHECK(read_file(path, &bytes), "cannot read " + path);
  VSCRUB_CHECK(!bytes.empty(), "empty record " + path);
  return bytes;
}

}  // namespace

RecordReader::RecordReader(const std::string& path, const std::string& magic)
    : RecordReader(load_record(path), magic, path) {}

RecordReader::RecordReader(std::vector<u8> record, const std::string& magic,
                           std::string source)
    : buf_(std::move(record)), source_(std::move(source)) {
  VSCRUB_CHECK(buf_.size() > magic.size() + 4, "record too small: " + source_);
  VSCRUB_CHECK(std::equal(magic.begin(), magic.end(), buf_.begin()),
               "bad record magic in " + source_);
  // CRC trailer covers everything before it.
  pos_ = buf_.size() - 4;
  const u32 stored_crc = get_u32();
  buf_.resize(buf_.size() - 4);
  VSCRUB_CHECK(crc32(buf_) == stored_crc,
               "record CRC mismatch (corrupted file): " + source_);
  pos_ = magic.size();
}

u8 RecordReader::get_u8() {
  VSCRUB_CHECK(pos_ + 1 <= buf_.size(), "record truncated: " + source_);
  return buf_[pos_++];
}

u16 RecordReader::get_u16() {
  VSCRUB_CHECK(pos_ + 2 <= buf_.size(), "record truncated: " + source_);
  const u16 v = static_cast<u16>(buf_[pos_] | (buf_[pos_ + 1] << 8));
  pos_ += 2;
  return v;
}

u32 RecordReader::get_u32() {
  VSCRUB_CHECK(pos_ + 4 <= buf_.size(), "record truncated: " + source_);
  u32 v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<u32>(buf_[pos_++]) << (8 * i);
  return v;
}

u64 RecordReader::get_u64() {
  VSCRUB_CHECK(pos_ + 8 <= buf_.size(), "record truncated: " + source_);
  u64 v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<u64>(buf_[pos_++]) << (8 * i);
  return v;
}

std::string RecordReader::get_string() {
  const u32 n = get_u32();
  VSCRUB_CHECK(pos_ + n <= buf_.size(), "record truncated: " + source_);
  std::string s(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return s;
}

void RecordReader::get_bytes(u8* out, std::size_t n) {
  VSCRUB_CHECK(pos_ + n <= buf_.size(), "record truncated: " + source_);
  std::copy(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
            buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n), out);
  pos_ += n;
}

bool record_exists(const std::string& path, const std::string& magic) {
  const File f(std::fopen(path.c_str(), "rb"));
  if (!f) return false;
  std::string head(magic.size(), '\0');
  if (std::fread(head.data(), 1, head.size(), f.get()) != head.size()) {
    return false;
  }
  return head == magic;
}

}  // namespace vscrub
