// Corpus disk format: save/load synthesized corpora in one file.
//
// Big-data pipelines stage their training data once and reuse it across
// experiments (the paper's runs read a prepared corpus from the I/O
// nodes). The monolithic container is a util/format.h header (unsealed)
// over the sharded store's CRC-framed record codec (speech/store/format.h):
// one decoder, two containers. Format (little-endian, versioned):
//   magic "BGQC\0" | u32 version | u64 num_utts, feature_dim, num_states |
//   per utterance: one store record frame
//                  (u32 payload_bytes | u32 crc32 | payload | pad-to-8)
// Writes are atomic (tmp + rename).
//
// For corpora too large to materialize, use the sharded store
// (speech/store/) behind ShardedSource instead.
#pragma once

#include <string>

#include "speech/corpus.h"
#include "speech/error.h"

namespace bgqhf::speech {

/// Write the corpus to `path`. Throws DataError{kIo} on I/O failure.
void save_corpus(const Corpus& corpus, const std::string& path);

/// Read a corpus written by save_corpus. Throws DataError (kIo, kBadMagic,
/// kBadVersion, kCorrupt, kShapeMismatch) on failure; DataError derives
/// std::runtime_error so legacy catch sites keep working.
Corpus load_corpus(const std::string& path);

}  // namespace bgqhf::speech
