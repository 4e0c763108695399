#include "speech/corpus_io.h"

#include <cstdint>
#include <string_view>

#include "speech/store/format.h"

namespace bgqhf::speech {

namespace {

constexpr std::string_view kMagic{"BGQC\0", 5};
// v2: utterance bodies are store record frames (CRC-checked) instead of
// bare PODs. v1 files are no longer readable; regenerate with save_corpus
// or convert to a sharded store with the corpus_shard tool.
constexpr std::uint32_t kVersion = 2;

}  // namespace

void save_corpus(const Corpus& corpus, const std::string& path) {
  util::ByteWriter w;
  w.header(kMagic, kVersion);
  w.pod(static_cast<std::uint64_t>(corpus.utterances.size()));
  w.pod(static_cast<std::uint64_t>(corpus.feature_dim));
  w.pod(static_cast<std::uint64_t>(corpus.num_states));
  for (const Utterance& utt : corpus.utterances) {
    store::append_record(w, utt, corpus.feature_dim);
  }
  util::write_file(path, w.bytes());
}

Corpus load_corpus(const std::string& path) {
  const std::vector<std::byte> bytes = util::read_file(path);
  util::ByteReader r(bytes.data(), bytes.size(), path);
  r.expect_header(kMagic, kVersion);
  Corpus corpus;
  const auto num_utts = r.pod<std::uint64_t>();
  corpus.feature_dim = r.pod<std::uint64_t>();
  corpus.num_states = r.pod<std::uint64_t>();
  if (corpus.feature_dim == 0 || corpus.feature_dim > store::kMaxFeatureDim) {
    r.fail(DataFault::kShapeMismatch, "implausible feature_dim");
  }
  // The record stream goes through the shared store codec frame by frame:
  // the same decoder (and the same validation) shards use.
  r.check_count(num_utts, store::kMinRecordBytes);
  corpus.utterances.reserve(static_cast<std::size_t>(num_utts));
  for (std::uint64_t u = 0; u < num_utts; ++u) {
    corpus.utterances.push_back(
        store::decode_record(r, corpus.feature_dim, corpus.num_states));
  }
  return corpus;
}

}  // namespace bgqhf::speech
