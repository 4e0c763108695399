// Seeded byte-mutation harness over every framed-format decoder.
//
// Each decoder gets a clean encoding of a fixed sample (format_samples.h)
// and a few hundred seeded mutations of it: bit flips, truncations,
// splices, and length lies (a count or size field overwritten with a huge
// value). For CRC-sealed formats half the flips and splices, and every
// length lie, are re-sealed, so the structural checks behind the CRC are
// exercised too; record-framed formats re-seal the first record's CRC.
//
// The contract: every outcome is a clean decode or a util::FormatError.
// Any other exception type (std::bad_alloc from sizing a vector off a
// lying count, std::length_error, an out-of-range read) fails the test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <typeinfo>
#include <vector>

#include "format_samples.h"
#include "hf/checkpoint.h"
#include "serve/quantized.h"
#include "speech/corpus_io.h"
#include "speech/store/reader.h"
#include "speech/store/writer.h"
#include "util/checksum.h"
#include "util/format.h"
#include "util/rng.h"

namespace bgqhf::format_samples {
namespace {

constexpr std::size_t kMutationsPerDecoder = 400;
constexpr std::size_t kNone = static_cast<std::size_t>(-1);

struct Field {
  std::size_t offset;
  std::size_t width;  // 4 or 8 bytes
};

struct Decoder {
  std::string name;
  std::vector<std::byte> clean;
  bool sealed = false;               // trailing CRC32 over every byte
  std::size_t first_record = kNone;  // offset of a CRC'd record frame
  std::vector<Field> lengths;        // count / size fields to lie about
  std::function<void(const std::vector<std::byte>&)> decode;
};

void put(std::vector<std::byte>& b, Field f, std::uint64_t v) {
  if (f.offset + f.width > b.size()) return;
  std::memcpy(b.data() + f.offset, &v, f.width);  // little-endian host
}

/// Re-seal whatever integrity check covers the mutated bytes: the
/// container footer, or the first record frame's payload CRC.
void reseal(const Decoder& d, std::vector<std::byte>& b) {
  if (d.sealed && b.size() >= 4) {
    const std::uint32_t crc = util::crc32(b.data(), b.size() - 4);
    std::memcpy(b.data() + b.size() - 4, &crc, 4);
  }
  if (d.first_record != kNone && d.first_record + 8 <= b.size()) {
    std::uint32_t payload = 0;
    std::memcpy(&payload, b.data() + d.first_record, 4);
    const std::size_t start = d.first_record + 8;
    if (payload <= b.size() - start) {
      const std::uint32_t crc = util::crc32(b.data() + start, payload);
      std::memcpy(b.data() + d.first_record + 4, &crc, 4);
    }
  }
}

std::uint64_t lie(util::Rng& rng) {
  constexpr std::uint64_t kLies[] = {
      ~0ull,        1ull << 63, 1ull << 62, (1ull << 61) + 1,
      1ull << 32,   0xFFFFFFFFull, 0x40000000ull, 0x7FFFFFFFull,
      0x10000000ull, 1ull << 20,  0};
  if (rng.below(4) == 0) return rng.next_u64();
  return kLies[rng.below(std::size(kLies))];
}

/// One seeded mutation of d.clean; `what` names it for failure messages.
std::vector<std::byte> mutate(const Decoder& d, util::Rng& rng,
                              std::size_t kind, std::string& what) {
  std::vector<std::byte> b = d.clean;
  const std::size_t n = b.size();
  switch (kind) {
    case 0: {  // bit flips
      const std::size_t flips = 1 + rng.below(4);
      what = "flip";
      for (std::size_t i = 0; i < flips; ++i) {
        const std::size_t at = rng.below(n);
        b[at] ^= std::byte{static_cast<unsigned char>(1u << rng.below(8))};
        what += " " + std::to_string(at);
      }
      if (rng.below(2) == 0) {
        reseal(d, b);
        what += " resealed";
      }
      break;
    }
    case 1: {  // truncation
      b.resize(rng.below(n));
      what = "truncate to " + std::to_string(b.size());
      break;
    }
    case 2: {  // splice: copy a span over another place, or duplicate it
      const std::size_t from = rng.below(n);
      const std::size_t len =
          1 + rng.below(std::min<std::size_t>(64, n - from));
      const std::vector<std::byte> chunk(b.begin() + from,
                                         b.begin() + from + len);
      const std::size_t to = rng.below(n);
      if (rng.below(2) == 0) {
        b.insert(b.begin() + to, chunk.begin(), chunk.end());
        what = "insert";
      } else {
        const std::size_t fit = std::min(len, n - to);
        std::copy(chunk.begin(), chunk.begin() + fit, b.begin() + to);
        what = "overwrite";
      }
      what += " [" + std::to_string(from) + "+" + std::to_string(len) +
              ") at " + std::to_string(to);
      if (rng.below(2) == 0) {
        reseal(d, b);
        what += " resealed";
      }
      break;
    }
    default: {  // length lie, integrity re-sealed
      Field f{};
      if (!d.lengths.empty() && rng.below(4) != 0) {
        f = d.lengths[rng.below(d.lengths.size())];
      } else {
        f = {rng.below(n / 4) * 4, 4u + 4u * rng.below(2)};
      }
      const std::uint64_t v = lie(rng);
      put(b, f, v);
      reseal(d, b);
      what = "lie " + std::to_string(v) + " at " + std::to_string(f.offset) +
             "/" + std::to_string(f.width);
      break;
    }
  }
  return b;
}

class FormatMutation : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "bgqhf_mutation";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string file(const std::string& name) const {
    return dir_ + "/" + name;
  }

  /// Clean decode first, then every mutation: count typed rejections and
  /// report any other exception type.
  void run(const Decoder& d, std::uint64_t seed) {
    ASSERT_NO_THROW(d.decode(d.clean)) << d.name << ": clean bytes";
    util::Rng rng(seed);
    std::size_t typed = 0;
    std::size_t untyped = 0;
    for (std::size_t i = 0; i < kMutationsPerDecoder; ++i) {
      std::string what;
      const std::vector<std::byte> bytes = mutate(d, rng, i % 4, what);
      try {
        d.decode(bytes);
      } catch (const util::FormatError&) {
        ++typed;
      } catch (const std::exception& e) {
        if (++untyped <= 3) {
          ADD_FAILURE() << d.name << " (" << what << ") threw "
                        << typeid(e).name() << ": " << e.what();
        }
      } catch (...) {
        if (++untyped <= 3) {
          ADD_FAILURE() << d.name << " (" << what << ") threw a non-std type";
        }
      }
    }
    EXPECT_EQ(untyped, 0u) << d.name << ": untyped exceptions";
    // The mutations must actually reach the decoder's checks.
    EXPECT_GT(typed, kMutationsPerDecoder / 4) << d.name;
  }

  /// Decoders that read a path: write the mutated bytes there first.
  std::function<void(const std::vector<std::byte>&)> via_file(
      const std::string& path,
      std::function<void(const std::string&)> load) const {
    return [path, load](const std::vector<std::byte>& bytes) {
      write_bytes(path, bytes);
      load(path);
    };
  }

  std::string dir_;
};

// Checkpoint offsets: magic 8 | version 4 | iterations, seed, lambda,
// loss_prev, stall (8 each) | n at 52 | theta, d0 | num_logs.
std::vector<Field> checkpoint_lengths(std::size_t n) {
  return {{52, 8}, {60 + 8 * n, 8}};
}

TEST_F(FormatMutation, TrainerCheckpoint) {
  const std::string path = file("ckpt");
  const hf::TrainerCheckpoint sample = checkpoint();
  hf::save_checkpoint(sample, path);
  Decoder d{"load_checkpoint", read_bytes(path), true, kNone,
            checkpoint_lengths(sample.theta.size()),
            via_file(path, [](const std::string& p) {
              (void)hf::load_checkpoint(p);
            })};
  run(d, 1);
}

TEST_F(FormatMutation, CheckpointWeightsOnly) {
  const std::string path = file("ckpt_weights");
  const hf::TrainerCheckpoint sample = checkpoint();
  hf::save_checkpoint(sample, path);
  Decoder d{"load_checkpoint_weights", read_bytes(path), true, kNone,
            checkpoint_lengths(sample.theta.size()),
            via_file(path, [](const std::string& p) {
              (void)hf::load_checkpoint_weights(p);
            })};
  run(d, 2);
}

// Weights blob: magic 8 | version 4 | wire 4 | iterations 8 | seed 8 |
// u64 body count at 32 | body from 40 (the bf16 body is a compress-codec
// blob with its own header and value count).
TEST_F(FormatMutation, WeightsBlobF32) {
  Decoder d{"decode_weights_blob f32",
            hf::encode_weights_blob(weights(), hf::WeightsWire::kF32), true,
            kNone, {{12, 4}, {32, 8}},
            [](const std::vector<std::byte>& b) {
              (void)hf::decode_weights_blob(b);
            }};
  run(d, 3);
}

TEST_F(FormatMutation, WeightsBlobBf16) {
  Decoder d{"decode_weights_blob bf16",
            hf::encode_weights_blob(weights(), hf::WeightsWire::kBf16), true,
            kNone, {{12, 4}, {32, 8}, {40, 8}, {48, 8}, {56, 8}},
            [](const std::vector<std::byte>& b) {
              (void)hf::decode_weights_blob(b);
            }};
  run(d, 4);
}

// Quantized model: magic 8 | version 4 | iterations 8 | num_layers at 20 |
// layer 0: in at 28, out at 36.
TEST_F(FormatMutation, QuantizedModel) {
  const std::string path = file("qw");
  quantized_model().save(path);
  Decoder d{"QuantizedModel::load", read_bytes(path), true, kNone,
            {{20, 8}, {28, 8}, {36, 8}},
            via_file(path, [](const std::string& p) {
              (void)serve::QuantizedModel::load(p);
            })};
  run(d, 5);
}

class StoreMutation : public FormatMutation {
 protected:
  void SetUp() override {
    FormatMutation::SetUp();
    speech::store::WriterOptions options;
    options.target_shard_bytes = kShardBytes;
    index_ = speech::store::write_sharded_corpus(corpus(), file("store"),
                                                 options);
  }
  speech::store::CorpusIndex index_;
};

// Index: magic 8 | version 4 | num_shards u32 at 12 | feature_dim,
// num_states, num_utterances (u64) at 16, 24, 32 | first name length at 40.
TEST_F(StoreMutation, Index) {
  const std::string path = speech::store::index_path(file("store"));
  Decoder d{"load_index", read_bytes(path), true, kNone,
            {{12, 4}, {16, 8}, {24, 8}, {32, 8}, {40, 4}},
            via_file(path, [](const std::string& p) {
              (void)speech::store::load_index(p);
            })};
  run(d, 6);
}

// Shard: 40-byte header (feature_dim, num_states, num_records at 16, 24,
// 32) then record frames; the first frame's payload_bytes is at 40 and
// its frame count at 40 + 8 + 16.
TEST_F(StoreMutation, ShardRecords) {
  const std::string path = file("store") + "/" + index_.shard_files.at(0);
  const speech::store::CorpusIndex index = index_;
  Decoder d{"MappedShard + decode_record", read_bytes(path), false, 40,
            {{16, 8}, {24, 8}, {32, 8}, {40, 4}, {64, 8}},
            via_file(path, [index](const std::string& p) {
              const speech::store::MappedShard shard(p, index.feature_dim,
                                                     index.num_states);
              for (const auto& e : index.entries) {
                if (e.shard == 0) (void)shard.read_at(e.offset, &e);
              }
              std::uint64_t offset = speech::store::kShardHeaderBytes;
              for (std::uint64_t r = 0; r < shard.header().num_records &&
                                        offset < shard.file_bytes();
                   ++r) {
                (void)shard.read_sequential(offset, &offset);
              }
            })};
  run(d, 7);
}

// BGQC: magic 5 | version 4 | num_utts, feature_dim, num_states (u64) at
// 9, 17, 25 | record frames from 33 (frame count at 33 + 8 + 16).
TEST_F(FormatMutation, MonolithicCorpus) {
  const std::string path = file("corpus.bgqc");
  speech::save_corpus(corpus(), path);
  Decoder d{"load_corpus", read_bytes(path), false, 33,
            {{9, 8}, {17, 8}, {25, 8}, {33, 4}, {57, 8}},
            via_file(path, [](const std::string& p) {
              (void)speech::load_corpus(p);
            })};
  run(d, 8);
}

}  // namespace
}  // namespace bgqhf::format_samples
