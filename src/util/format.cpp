#include "util/format.h"

#include <cstdio>

#include "util/checksum.h"

namespace bgqhf::util {

const char* to_string(FormatFault fault) {
  switch (fault) {
    case FormatFault::kIo:
      return "i/o error";
    case FormatFault::kCorrupt:
      return "corrupt";
    case FormatFault::kBadMagic:
      return "bad magic";
    case FormatFault::kBadVersion:
      return "bad version";
    case FormatFault::kShapeMismatch:
      return "shape mismatch";
    case FormatFault::kSeedMismatch:
      return "seed mismatch";
  }
  return "format error";
}

std::vector<std::byte> ByteWriter::seal() && {
  pod(crc32(bytes_.data(), bytes_.size()));
  return std::move(bytes_);
}

void ByteReader::expect_header(std::string_view magic,
                               std::uint32_t version) {
  if (std::memcmp(take(magic.size()), magic.data(), magic.size()) != 0) {
    fail(FormatFault::kBadMagic, "unexpected magic");
  }
  if (const auto v = pod<std::uint32_t>(); v != version) {
    fail(FormatFault::kBadVersion, "version " + std::to_string(v) +
                                       " (want " + std::to_string(version) +
                                       ")");
  }
}

ByteReader open_sealed(const std::vector<std::byte>& bytes,
                       std::string_view magic, std::uint32_t version,
                       std::string context) {
  constexpr std::size_t kFooter = sizeof(std::uint32_t);
  if (bytes.size() < magic.size() + sizeof(std::uint32_t) + kFooter) {
    throw FormatError(FormatFault::kCorrupt, "too short: " + context);
  }
  const std::size_t body = bytes.size() - kFooter;
  std::uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + body, kFooter);
  if (crc32(bytes.data(), body) != stored) {
    throw FormatError(FormatFault::kCorrupt, "CRC mismatch: " + context);
  }
  ByteReader r(bytes.data(), body, std::move(context));
  r.expect_header(magic, version);
  return r;
}

void write_file(const std::string& path, const std::vector<std::byte>& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) throw FormatError(FormatFault::kIo, "cannot open " + tmp);
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != bytes.size() || !closed) {
    std::remove(tmp.c_str());
    throw FormatError(FormatFault::kIo, "short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw FormatError(FormatFault::kIo, "rename to " + path + " failed");
  }
}

std::vector<std::byte> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw FormatError(FormatFault::kIo, "cannot open " + path);
  std::vector<std::byte> bytes;
  std::byte buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) throw FormatError(FormatFault::kIo, "read failed: " + path);
  return bytes;
}

}  // namespace bgqhf::util
