// Framed binary container: the one codec every checkpoint, model, and
// corpus format is a schema over.
//
// A sealed container is (little-endian)
//
//   magic bytes | u32 version | payload ... | u32 crc32 footer
//
// where the footer covers every preceding byte. open_sealed checks, in
// this order: size (room for header and footer), CRC, magic, version, so
// a damaged file is kCorrupt even when the damage hits the header, and an
// intact file of another format is kBadMagic. Formats whose integrity
// lives in per-record CRCs (the BGQS1 shard header, the BGQC corpus) use
// the same header check through ByteReader::expect_header, unsealed.
//
// ByteReader never trusts a decoded count: pod_vector(n) and skip(n) test
// n against the bytes that remain before anything is sized from it, so a
// length lie is FormatError{kCorrupt}, never std::bad_alloc. Every
// failure, I/O included, throws the one FormatError type.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace bgqhf::util {

enum class FormatFault {
  kIo,             // cannot open / short read / short write
  kCorrupt,        // CRC mismatch, truncation, implausible counts
  kBadMagic,       // not the expected format
  kBadVersion,     // written by an incompatible format revision
  kShapeMismatch,  // contents disagree with the target network or index
  kSeedMismatch,   // trainer resume with a different HfOptions::seed
};

const char* to_string(FormatFault fault);

/// Typed format error. Derives std::runtime_error so generic catch sites
/// keep working; recovery paths branch on fault() instead of what().
class FormatError : public std::runtime_error {
 public:
  FormatError(FormatFault fault, const std::string& detail)
      : std::runtime_error(std::string(to_string(fault)) + ": " + detail),
        fault_(fault) {}

  FormatFault fault() const noexcept { return fault_; }

 private:
  FormatFault fault_;
};

class ByteWriter {
 public:
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    raw(&v, sizeof(T));
  }
  /// Elements only; a format that needs the count writes it first.
  template <typename T>
  void pod_vector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    raw(v.data(), v.size() * sizeof(T));
  }
  void raw(const void* data, std::size_t n) {
    const std::size_t old = bytes_.size();
    bytes_.resize(old + n);
    if (n > 0) std::memcpy(bytes_.data() + old, data, n);
  }
  /// magic bytes | u32 version.
  void header(std::string_view magic, std::uint32_t version) {
    raw(magic.data(), magic.size());
    pod(version);
  }
  /// Append the CRC32 footer over every byte so far and hand the
  /// container over.
  std::vector<std::byte> seal() &&;

  std::vector<std::byte>& bytes() { return bytes_; }

 private:
  std::vector<std::byte> bytes_;
};

class ByteReader {
 public:
  /// `context` (a path, "weights blob") names the source in errors.
  ByteReader(const void* data, std::size_t size, std::string context)
      : data_(static_cast<const std::byte*>(data)),
        size_(size),
        context_(std::move(context)) {}

  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    std::memcpy(&v, take(sizeof(T)), sizeof(T));
    return v;
  }
  template <typename T>
  std::vector<T> pod_vector(std::uint64_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_count(n, sizeof(T));
    std::vector<T> v(static_cast<std::size_t>(n));
    const std::size_t bytes = v.size() * sizeof(T);
    if (bytes > 0) std::memcpy(v.data(), take(bytes), bytes);
    return v;
  }
  /// Advance past `n` elements of T without materializing them.
  template <typename T>
  void skip(std::uint64_t n) {
    check_count(n, sizeof(T));
    pos_ += static_cast<std::size_t>(n) * sizeof(T);
  }
  /// The next `n` bytes, consumed.
  const std::byte* take(std::size_t n) {
    if (n > remaining()) fail(FormatFault::kCorrupt, "truncated");
    const std::byte* p = data_ + pos_;
    pos_ += n;
    return p;
  }
  /// Throw kCorrupt unless `n` items of at least `bytes_each` bytes can
  /// still fit: the guard before sizing anything from a decoded count.
  void check_count(std::uint64_t n, std::size_t bytes_each) const {
    if (n > remaining() / bytes_each) {
      fail(FormatFault::kCorrupt,
           "count " + std::to_string(n) + " exceeds the remaining bytes");
    }
  }
  /// Consume magic | u32 version; kBadMagic / kBadVersion on mismatch.
  void expect_header(std::string_view magic, std::uint32_t version);

  [[noreturn]] void fail(FormatFault fault, const std::string& what) const {
    throw FormatError(fault, what + " in " + context_);
  }

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return size_ - pos_; }
  const std::string& context() const { return context_; }

 private:
  const std::byte* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::string context_;
};

/// Validate a sealed container (size, CRC, magic, version, in that order)
/// and return a reader over its payload: positioned after the header,
/// ending before the footer. `bytes` must outlive the reader.
ByteReader open_sealed(const std::vector<std::byte>& bytes,
                       std::string_view magic, std::uint32_t version,
                       std::string context);

/// Atomic write: "<path>.tmp", then rename over `path`, so a crash
/// mid-write never clobbers the previous good file. The tmp file is
/// removed on any failure. Throws FormatError{kIo}.
void write_file(const std::string& path, const std::vector<std::byte>& bytes);

/// The whole file. Throws FormatError{kIo} if it cannot be opened or read.
std::vector<std::byte> read_file(const std::string& path);

}  // namespace bgqhf::util
