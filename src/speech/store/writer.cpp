#include "speech/store/writer.h"

#include <sys/stat.h>

#include <cstdint>

namespace bgqhf::speech::store {

namespace {

std::string shard_file_name(const std::string& basename, std::size_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "-%05zu.bgqs", n);
  return basename + buf;
}

std::string join(const std::string& dir, const std::string& name) {
  if (dir.empty() || dir.back() == '/') return dir + name;
  return dir + "/" + name;
}

void write_all(std::FILE* f, const void* data, std::size_t n,
               const std::string& path) {
  if (std::fwrite(data, 1, n, f) != n) {
    throw DataError(DataFault::kIo, "short write: " + path);
  }
}

void write_all(std::FILE* f, util::ByteWriter& w, const std::string& path) {
  write_all(f, w.bytes().data(), w.bytes().size(), path);
}

}  // namespace

ShardWriter::ShardWriter(std::string dir, std::size_t feature_dim,
                         std::size_t num_states, WriterOptions options)
    : dir_(std::move(dir)), options_(std::move(options)) {
  if (feature_dim == 0 || num_states == 0) {
    throw DataError(DataFault::kShapeMismatch,
                    "ShardWriter: feature_dim and num_states must be > 0");
  }
  index_.feature_dim = feature_dim;
  index_.num_states = num_states;
  // Best-effort create; an existing directory is fine, anything else shows
  // up as an open failure on the first shard.
  ::mkdir(dir_.c_str(), 0755);
  open_next_shard();
}

ShardWriter::~ShardWriter() {
  if (shard_ != nullptr) std::fclose(shard_);
}

void ShardWriter::open_next_shard() {
  shard_name_ = shard_file_name(options_.basename, index_.shard_files.size());
  const std::string path = join(dir_, shard_name_);
  shard_ = std::fopen(path.c_str(), "wb");
  if (shard_ == nullptr) {
    throw DataError(DataFault::kIo, "cannot open shard: " + path);
  }
  util::ByteWriter header;
  header.header(kShardMagic, kShardVersion);
  header.pod(std::uint32_t{0});  // reserved
  header.pod(static_cast<std::uint64_t>(index_.feature_dim));
  header.pod(static_cast<std::uint64_t>(index_.num_states));
  header.pod(std::uint64_t{0});  // num_records, patched at seal
  write_all(shard_, header, path);
  shard_offset_ = kShardHeaderBytes;
  shard_records_ = 0;
  index_.shard_files.push_back(shard_name_);
}

void ShardWriter::seal_shard() {
  const std::string path = join(dir_, shard_name_);
  // Patch the record count into the header (offset 32).
  if (std::fseek(shard_, 32, SEEK_SET) != 0) {
    throw DataError(DataFault::kIo, "seek failed: " + path);
  }
  write_all(shard_, &shard_records_, sizeof(shard_records_), path);
  if (std::fclose(shard_) != 0) {
    shard_ = nullptr;
    throw DataError(DataFault::kIo, "close failed: " + path);
  }
  shard_ = nullptr;
}

void ShardWriter::add(const Utterance& utt) {
  if (finished_) {
    throw DataError(DataFault::kIo, "ShardWriter: add after finish");
  }
  if (shard_records_ > 0 && shard_offset_ >= options_.target_shard_bytes) {
    seal_shard();
    open_next_shard();
  }
  util::ByteWriter record;
  append_record(record, utt, index_.feature_dim);

  IndexEntry entry;
  entry.id = utt.id;
  entry.shard = static_cast<std::uint32_t>(index_.shard_files.size() - 1);
  entry.speaker = utt.speaker;
  entry.offset = shard_offset_;
  entry.frames = utt.num_frames();
  write_all(shard_, record, join(dir_, shard_name_));
  shard_offset_ += record.bytes().size();
  bytes_written_ += record.bytes().size();
  ++shard_records_;
  index_.entries.push_back(entry);
}

CorpusIndex ShardWriter::finish() {
  if (finished_) {
    throw DataError(DataFault::kIo, "ShardWriter: finish called twice");
  }
  finished_ = true;
  seal_shard();
  save_index(index_, index_path(dir_));
  return index_;
}

CorpusIndex write_sharded_corpus(const Corpus& corpus, const std::string& dir,
                                 WriterOptions options) {
  ShardWriter writer(dir, corpus.feature_dim, corpus.num_states,
                     std::move(options));
  for (const Utterance& utt : corpus.utterances) writer.add(utt);
  return writer.finish();
}

CorpusIndex generate_sharded_corpus(const CorpusSpec& spec,
                                    const std::string& dir,
                                    WriterOptions options) {
  CorpusGenerator gen(spec);
  ShardWriter writer(dir, spec.feature_dim, spec.num_states,
                     std::move(options));
  while (auto utt = gen.next()) writer.add(*utt);
  return writer.finish();
}

}  // namespace bgqhf::speech::store
