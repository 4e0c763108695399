// Golden bytes: every framed format writes exactly the bytes it always
// has. Each encoder runs on a fixed seeded sample (format_samples.h) and
// the output is pinned to the values the pre-codec encoders produced, so
// a refactor of the shared container cannot change a format without
// changing its version.
//
// The pin is (size, CRC32 of all but the last four bytes, last four
// bytes). A CRC over a whole sealed container is useless as a pin: with
// its own CRC32 footer appended, every message checks to the same
// residue, 0x2144DF1C.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "format_samples.h"
#include "hf/checkpoint.h"
#include "serve/quantized.h"
#include "speech/corpus_io.h"
#include "speech/store/writer.h"
#include "util/checksum.h"

namespace bgqhf::format_samples {
namespace {

struct Golden {
  std::size_t size;
  std::uint32_t head_crc;  // crc32 of bytes [0, size - 4)
  std::uint32_t tail;      // last four bytes, little-endian
};

void expect_golden(const char* format, const std::vector<std::byte>& bytes,
                   Golden want) {
  ASSERT_EQ(bytes.size(), want.size) << format;
  const std::size_t head = bytes.size() - sizeof(std::uint32_t);
  std::uint32_t tail = 0;
  std::memcpy(&tail, bytes.data() + head, sizeof(tail));
  EXPECT_EQ(util::crc32(bytes.data(), head), want.head_crc) << format;
  EXPECT_EQ(tail, want.tail) << format;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "bgqhf_golden_" + name;
}

TEST(FormatGolden, TrainerCheckpoint) {
  const std::string path = temp_path("ckpt");
  hf::save_checkpoint(checkpoint(), path);
  expect_golden("BGQHFCKP", read_bytes(path), {683, 0xF9028D0Fu, 0xF9028D0Fu});
  std::remove(path.c_str());
}

TEST(FormatGolden, WeightsBlobF32) {
  expect_golden("BGQHFWTS f32",
                hf::encode_weights_blob(weights(), hf::WeightsWire::kF32),
                {256, 0x30DBE838u, 0x30DBE838u});
}

TEST(FormatGolden, WeightsBlobBf16) {
  expect_golden("BGQHFWTS bf16",
                hf::encode_weights_blob(weights(), hf::WeightsWire::kBf16),
                {174, 0x0838AB00u, 0x0838AB00u});
}

TEST(FormatGolden, QuantizedModel) {
  const std::string path = temp_path("qw");
  quantized_model().save(path);
  expect_golden("BGQHFQW1", read_bytes(path), {183, 0x71F47BABu, 0x71F47BABu});
  std::remove(path.c_str());
}

TEST(FormatGolden, ShardStore) {
  const std::string dir = temp_path("store");
  std::filesystem::remove_all(dir);
  speech::store::WriterOptions options;
  options.target_shard_bytes = kShardBytes;
  const speech::store::CorpusIndex index =
      speech::store::write_sharded_corpus(corpus(), dir, options);
  EXPECT_EQ(index.shard_files.size(), 3u);
  expect_golden("BGQSIDX", read_bytes(speech::store::index_path(dir)),
                {296, 0xFCD2A56Fu, 0xFCD2A56Fu});
  expect_golden("BGQS1", read_bytes(dir + "/" + index.shard_files.at(0)),
                {320, 0xB57C0555u, 0xBF400000u});
  std::filesystem::remove_all(dir);
}

TEST(FormatGolden, MonolithicCorpus) {
  const std::string path = temp_path("bgqc");
  speech::save_corpus(corpus(), path);
  expect_golden("BGQC", read_bytes(path), {777, 0x0180D7A5u, 0x00000000u});
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bgqhf::format_samples
