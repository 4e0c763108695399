#include "speech/store/format.h"

#include <cstring>

#include "util/checksum.h"

namespace bgqhf::speech::store {

namespace {

constexpr std::size_t kRecordFrameBytes = 8;   // u32 size + u32 crc
constexpr std::size_t kRecordFixedBytes = 24;  // id, speaker, pad, frames
static_assert(kMinRecordBytes == kRecordFrameBytes + kRecordFixedBytes);
constexpr std::uint64_t kMaxFrames = 1ull << 26;
constexpr std::size_t kIndexEntryBytes = 32;

std::size_t pad_to_8(std::size_t n) { return (8 - n % 8) % 8; }

std::size_t payload_bytes_for(std::uint64_t frames, std::size_t feature_dim) {
  return kRecordFixedBytes +
         static_cast<std::size_t>(frames) * sizeof(std::int32_t) +
         static_cast<std::size_t>(frames) * feature_dim * sizeof(float);
}

}  // namespace

std::string index_path(const std::string& dir) {
  if (dir.empty() || dir.back() == '/') return dir + kIndexFileName;
  return dir + "/" + kIndexFileName;
}

std::size_t CorpusIndex::total_frames() const {
  std::size_t n = 0;
  for (const auto& e : entries) n += e.frames;
  return n;
}

std::vector<std::size_t> CorpusIndex::lengths() const {
  std::vector<std::size_t> out;
  out.reserve(entries.size());
  for (const auto& e : entries) out.push_back(e.frames);
  return out;
}

// ---- record codec ----

void append_record(util::ByteWriter& out, const Utterance& utt,
                   std::size_t feature_dim) {
  if (utt.feature_dim() != feature_dim) {
    throw DataError(DataFault::kShapeMismatch,
                    "append_record: utterance dim " +
                        std::to_string(utt.feature_dim()) + " != corpus dim " +
                        std::to_string(feature_dim));
  }
  const std::uint64_t frames = utt.num_frames();
  if (frames == 0 || frames > kMaxFrames) {
    throw DataError(DataFault::kShapeMismatch,
                    "append_record: implausible frame count " +
                        std::to_string(frames));
  }
  const std::size_t payload = payload_bytes_for(frames, feature_dim);
  const std::size_t frame = out.bytes().size();
  out.pod(static_cast<std::uint32_t>(payload));
  out.pod(std::uint32_t{0});  // payload CRC, patched below
  out.pod(static_cast<std::uint64_t>(utt.id));
  out.pod(static_cast<std::int32_t>(utt.speaker));
  out.pod(std::uint32_t{0});
  out.pod(frames);
  for (const int label : utt.labels) out.pod(static_cast<std::int32_t>(label));
  out.raw(utt.features.data(), utt.features.size() * sizeof(float));
  std::byte* head = out.bytes().data() + frame;
  const std::uint32_t crc = util::crc32(head + kRecordFrameBytes, payload);
  std::memcpy(head + sizeof(std::uint32_t), &crc, sizeof(crc));
  constexpr std::byte kPad[8] = {};
  out.raw(kPad, pad_to_8(payload));
}

Utterance decode_record(util::ByteReader& in, std::size_t feature_dim,
                        std::size_t num_states) {
  if (in.remaining() < kMinRecordBytes) {
    in.fail(DataFault::kCorrupt, "truncated record frame");
  }
  const auto payload_bytes = in.pod<std::uint32_t>();
  const auto crc = in.pod<std::uint32_t>();
  if (payload_bytes < kRecordFixedBytes || payload_bytes > in.remaining()) {
    in.fail(DataFault::kCorrupt, "record frame exceeds remaining bytes");
  }
  const std::byte* payload = in.take(payload_bytes);
  util::ByteReader r(payload, payload_bytes, in.context());
  Utterance utt;
  utt.id = r.pod<std::uint64_t>();
  utt.speaker = r.pod<std::int32_t>();
  r.pod<std::uint32_t>();  // reserved
  const auto frames = r.pod<std::uint64_t>();
  if (frames == 0 || frames > kMaxFrames) {
    r.fail(DataFault::kCorrupt,
           "implausible frame count " + std::to_string(frames));
  }
  // A frame whose declared size disagrees with the shape its own frame
  // count implies is mislabelled, not merely truncated.
  if (feature_dim > kMaxFeatureDim ||
      payload_bytes != payload_bytes_for(frames, feature_dim)) {
    r.fail(DataFault::kShapeMismatch,
           "record payload " + std::to_string(payload_bytes) +
               " bytes does not match frames=" + std::to_string(frames) +
               " dim=" + std::to_string(feature_dim));
  }
  if (util::crc32(payload, payload_bytes) != crc) {
    r.fail(DataFault::kCorrupt, "record CRC mismatch");
  }
  utt.labels.resize(frames);
  for (int& label : utt.labels) {
    const auto v = r.pod<std::int32_t>();
    if (v < 0 || static_cast<std::size_t>(v) >= num_states) {
      r.fail(DataFault::kCorrupt,
             "label " + std::to_string(v) + " out of range");
    }
    label = v;
  }
  utt.features = blas::Matrix<float>(frames, feature_dim);
  const std::size_t feature_bytes = utt.features.size() * sizeof(float);
  std::memcpy(utt.features.data(), r.take(feature_bytes), feature_bytes);
  in.skip<std::byte>(pad_to_8(payload_bytes));
  return utt;
}

// ---- index I/O ----

void save_index(const CorpusIndex& index, const std::string& path) {
  util::ByteWriter w;
  w.header(kIndexMagic, kIndexVersion);
  w.pod(static_cast<std::uint32_t>(index.shard_files.size()));
  w.pod(static_cast<std::uint64_t>(index.feature_dim));
  w.pod(static_cast<std::uint64_t>(index.num_states));
  w.pod(static_cast<std::uint64_t>(index.entries.size()));
  for (const auto& name : index.shard_files) {
    w.pod(static_cast<std::uint32_t>(name.size()));
    w.raw(name.data(), name.size());
  }
  for (const auto& e : index.entries) {
    w.pod(e.id);
    w.pod(e.shard);
    w.pod(e.speaker);
    w.pod(e.offset);
    w.pod(e.frames);
  }
  util::write_file(path, std::move(w).seal());
}

CorpusIndex load_index(const std::string& path) {
  const std::vector<std::byte> bytes = util::read_file(path);
  util::ByteReader r =
      util::open_sealed(bytes, kIndexMagic, kIndexVersion, path);
  const auto num_shards = r.pod<std::uint32_t>();
  CorpusIndex index;
  index.feature_dim = r.pod<std::uint64_t>();
  index.num_states = r.pod<std::uint64_t>();
  const auto num_utts = r.pod<std::uint64_t>();
  r.check_count(num_shards, sizeof(std::uint32_t));
  index.shard_files.reserve(num_shards);
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    const auto len = r.pod<std::uint32_t>();
    index.shard_files.emplace_back(reinterpret_cast<const char*>(r.take(len)),
                                   len);
  }
  r.check_count(num_utts, kIndexEntryBytes);
  index.entries.reserve(static_cast<std::size_t>(num_utts));
  for (std::uint64_t u = 0; u < num_utts; ++u) {
    IndexEntry e;
    e.id = r.pod<std::uint64_t>();
    e.shard = r.pod<std::uint32_t>();
    e.speaker = r.pod<std::int32_t>();
    e.offset = r.pod<std::uint64_t>();
    e.frames = r.pod<std::uint64_t>();
    if (e.shard >= index.shard_files.size()) {
      r.fail(DataFault::kCorrupt,
             "index entry points at missing shard " + std::to_string(e.shard));
    }
    index.entries.push_back(e);
  }
  return index;
}

}  // namespace bgqhf::speech::store
