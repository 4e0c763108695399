// On-disk sharded corpus format (the "BGQS1" store).
//
// A stored corpus is a directory:
//
//   index.bgqsx            sample-list index (utterance id -> shard/offset)
//   shard-00000.bgqs       CRC-framed utterance records
//   shard-00001.bgqs       ...
//
// Shard file layout (little-endian, mmap-able — every record's absolute
// offset is recorded in the index, records are 8-byte aligned):
//
//   char[8] "BGQS1\0\0\0" | u32 version | u32 reserved |
//   u64 feature_dim | u64 num_states | u64 num_records |
//   records...
//
// Record framing (shared with the BGQC monolithic corpus container, which
// since v2 is a thin wrapper over this record codec):
//
//   u32 payload_bytes | u32 crc32(payload) |
//   payload: u64 id | i32 speaker | u32 reserved | u64 frames |
//            i32 labels[frames] | f32 features[frames * feature_dim] |
//   zero padding to the next 8-byte boundary
//
// Index file layout:
//
//   char[8] "BGQSIDX\0" | u32 version | u32 num_shards |
//   u64 feature_dim | u64 num_states | u64 num_utterances |
//   per shard:     u32 name_bytes | name chars |
//   per utterance: u64 id | u32 shard | i32 speaker | u64 offset |
//                  u64 frames |
//   u32 crc32 over every preceding byte
//
// The index is a sealed util/format.h container; the shard header uses the
// same magic/version check unsealed, since every record carries its own
// CRC. The index alone carries everything partitioning and held-out
// splitting need (ids, lengths, shard placement), so utterance assignment
// never touches shard data. Decoders validate magic, version, CRC, and
// shape and throw typed speech::DataError on any mismatch.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "speech/error.h"
#include "speech/utterance.h"
#include "util/format.h"

namespace bgqhf::speech::store {

inline constexpr std::string_view kShardMagic{"BGQS1\0\0\0", 8};
inline constexpr std::uint32_t kShardVersion = 1;
inline constexpr std::string_view kIndexMagic{"BGQSIDX\0", 8};
inline constexpr std::uint32_t kIndexVersion = 1;
/// Largest feature dimension a decoder accepts: keeps every record size
/// computed from a decoded shape far from overflow.
inline constexpr std::size_t kMaxFeatureDim = std::size_t{1} << 20;
inline constexpr const char* kIndexFileName = "index.bgqsx";
/// Fixed shard header size; the first record starts here.
inline constexpr std::size_t kShardHeaderBytes = 40;

/// Join `dir` and the index file name.
std::string index_path(const std::string& dir);

struct ShardHeader {
  std::uint64_t feature_dim = 0;
  std::uint64_t num_states = 0;
  std::uint64_t num_records = 0;
};

/// Sample-list row: where utterance `id` lives and how long it is.
struct IndexEntry {
  std::uint64_t id = 0;
  std::uint32_t shard = 0;   // into CorpusIndex::shard_files
  std::int32_t speaker = 0;
  std::uint64_t offset = 0;  // absolute byte offset of the record frame
  std::uint64_t frames = 0;
};

/// The sample list for one stored corpus. Loading this (a few dozen bytes
/// per utterance) is the only I/O partitioning and splitting ever do.
struct CorpusIndex {
  std::size_t feature_dim = 0;
  std::size_t num_states = 0;
  std::vector<std::string> shard_files;  // names relative to the store dir
  std::vector<IndexEntry> entries;       // in corpus order

  std::size_t num_utterances() const { return entries.size(); }
  std::size_t total_frames() const;
  /// Per-utterance frame counts, in corpus order (partitioner input).
  std::vector<std::size_t> lengths() const;
};

// ---- record codec ----

/// Smallest possible record frame (header plus fixed payload fields).
inline constexpr std::size_t kMinRecordBytes = 32;

/// Append the CRC-framed record for `utt` to `out`.
void append_record(util::ByteWriter& out, const Utterance& utt,
                   std::size_t feature_dim);

/// Decode the record at the reader's position and consume it (frame,
/// payload, and padding). Validates the frame, CRC, and shape against
/// `feature_dim`/`num_states`; errors name the reader's context.
Utterance decode_record(util::ByteReader& in, std::size_t feature_dim,
                        std::size_t num_states);

// ---- index I/O ----

/// Atomically write the index (tmp file + rename) with a CRC32 footer.
/// Throws DataError{kIo} on failure.
void save_index(const CorpusIndex& index, const std::string& path);

/// Load and CRC-validate an index written by save_index. Throws DataError
/// on I/O failure, bad magic/version, or corruption.
CorpusIndex load_index(const std::string& path);

}  // namespace bgqhf::speech::store
