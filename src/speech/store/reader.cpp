#include "speech/store/reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/rng.h"

namespace bgqhf::speech::store {

double IoFault::delay_seconds(std::size_t shard) const {
  if (!armed()) return 0.0;
  const double u = util::Rng(seed).fork(shard).next_double();
  return delay_ms * (0.5 + u) * 1e-3;
}

MappedShard::MappedShard(const std::string& path,
                         std::size_t expect_feature_dim,
                         std::size_t expect_num_states)
    : path_(path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw DataError(DataFault::kIo, "cannot open shard: " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw DataError(DataFault::kIo, "cannot stat shard: " + path);
  }
  bytes_ = static_cast<std::size_t>(st.st_size);
  if (bytes_ < kShardHeaderBytes) {
    ::close(fd);
    throw DataError(DataFault::kCorrupt, "shard shorter than header: " + path);
  }
  void* map = ::mmap(nullptr, bytes_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (map == MAP_FAILED) {
    throw DataError(DataFault::kIo, "mmap failed: " + path);
  }
  data_ = static_cast<const char*>(map);

  // A throwing constructor never runs the destructor: unmap by hand on any
  // validation failure.
  try {
    util::ByteReader r(data_, bytes_, path);
    r.expect_header(kShardMagic, kShardVersion);
    r.pod<std::uint32_t>();  // reserved
    header_.feature_dim = r.pod<std::uint64_t>();
    header_.num_states = r.pod<std::uint64_t>();
    header_.num_records = r.pod<std::uint64_t>();
    if (header_.feature_dim != expect_feature_dim ||
        header_.num_states != expect_num_states) {
      r.fail(DataFault::kShapeMismatch,
             "shard shape (dim=" + std::to_string(header_.feature_dim) +
                 ", states=" + std::to_string(header_.num_states) +
                 ") does not match index (dim=" +
                 std::to_string(expect_feature_dim) +
                 ", states=" + std::to_string(expect_num_states) + ")");
    }
  } catch (...) {
    ::munmap(const_cast<char*>(data_), bytes_);
    data_ = nullptr;
    throw;
  }
}

MappedShard::~MappedShard() {
  if (data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), bytes_);
  }
}

MappedShard::MappedShard(MappedShard&& other) noexcept
    : path_(std::move(other.path_)),
      data_(other.data_),
      bytes_(other.bytes_),
      header_(other.header_) {
  other.data_ = nullptr;
  other.bytes_ = 0;
}

Utterance MappedShard::decode_at(std::uint64_t offset,
                                 std::size_t* consumed) const {
  if (offset < kShardHeaderBytes || offset >= bytes_) {
    throw DataError(DataFault::kCorrupt,
                    "record offset " + std::to_string(offset) +
                        " outside shard: " + path_);
  }
  util::ByteReader r(data_ + offset, bytes_ - offset, path_);
  Utterance utt =
      decode_record(r, header_.feature_dim, header_.num_states);
  if (consumed != nullptr) *consumed = r.pos();
  return utt;
}

Utterance MappedShard::read_at(std::uint64_t offset,
                               const IndexEntry* expect) const {
  Utterance utt = decode_at(offset, nullptr);
  if (expect != nullptr &&
      (utt.id != expect->id || utt.num_frames() != expect->frames)) {
    throw DataError(DataFault::kShapeMismatch,
                    "index expects id=" + std::to_string(expect->id) +
                        " frames=" + std::to_string(expect->frames) +
                        " but shard holds id=" + std::to_string(utt.id) +
                        " frames=" + std::to_string(utt.num_frames()) + ": " +
                        path_);
  }
  return utt;
}

Utterance MappedShard::read_sequential(std::uint64_t offset,
                                       std::uint64_t* next_offset) const {
  std::size_t consumed = 0;
  Utterance utt = decode_at(offset, &consumed);
  if (next_offset != nullptr) *next_offset = offset + consumed;
  return utt;
}

}  // namespace bgqhf::speech::store
