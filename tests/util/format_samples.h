// Seeded sample inputs for every framed format: one small, fully
// deterministic value per encoder, shared by the golden-bytes and
// byte-mutation tests.
//
// Every float is a small dyadic rational drawn from util::Rng's integer
// stream, so the encoded bytes never depend on libm, the GEMM kernel tier,
// or summation order: the quantized model's calibration pass multiplies
// and adds exactly representable values only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "blas/matrix.h"
#include "hf/checkpoint.h"
#include "nn/network.h"
#include "serve/quantized.h"
#include "speech/corpus.h"
#include "util/rng.h"

namespace bgqhf::format_samples {

/// k / 8 for k uniform in [-8, 8]: exact in float, and small enough that
/// any dot product of a few dozen of them stays exact too.
inline float dyadic(util::Rng& rng) {
  return static_cast<float>(static_cast<int>(rng.below(17)) - 8) / 8.0f;
}

inline std::vector<float> dyadic_vector(util::Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (float& x : v) x = dyadic(rng);
  return v;
}

inline hf::TrainerCheckpoint checkpoint() {
  util::Rng rng(1201);
  hf::TrainerCheckpoint ckpt;
  ckpt.completed_iterations = 7;
  ckpt.hf_seed = 1234;
  ckpt.lambda = 0.375;
  ckpt.loss_prev = 2.5;
  ckpt.stall = 1;
  ckpt.theta = dyadic_vector(rng, 37);
  ckpt.d0 = dyadic_vector(rng, 37);
  for (std::size_t i = 0; i < 3; ++i) {
    hf::HfIterationLog log;
    log.iteration = i;
    log.train_loss = 3.0 - 0.25 * static_cast<double>(i);
    log.grad_norm = dyadic(rng);
    log.cg_iterations = rng.below(50);
    log.num_iterates = rng.below(8);
    log.chosen_iterate = rng.below(8);
    log.q_dn = dyadic(rng);
    log.rho = dyadic(rng);
    log.lambda = 0.5;
    log.alpha = 1.0;
    log.heldout_before = 2.75;
    log.heldout_after = 2.5;
    log.failed = i == 1;
    log.heldout_evals = rng.below(4);
    ckpt.logs.push_back(log);
  }
  return ckpt;
}

inline hf::CheckpointWeights weights() {
  util::Rng rng(1202);
  hf::CheckpointWeights w;
  w.completed_iterations = 9;
  w.hf_seed = 4321;
  w.theta = dyadic_vector(rng, 53);
  return w;
}

/// 6 -> 5 (ReLU) -> 3 network with dyadic weights, quantized against a
/// dyadic calibration corpus: every activation the calibration pass sees
/// is exact, so the static scales are the same on every kernel tier.
inline serve::QuantizedModel quantized_model() {
  util::Rng rng(1203);
  nn::Network net = nn::Network::mlp(6, {5}, 3, nn::Activation::kReLU);
  net.set_params(dyadic_vector(rng, net.num_params()));
  blas::Matrix<float> calibration(4, 6);
  for (std::size_t i = 0; i < calibration.rows(); ++i) {
    for (std::size_t j = 0; j < calibration.cols(); ++j) {
      calibration(i, j) = dyadic(rng);
    }
  }
  return serve::QuantizedModel::quantize(net, calibration.cview(), 11);
}

inline speech::Corpus corpus() {
  util::Rng rng(1204);
  speech::Corpus corpus;
  corpus.feature_dim = 4;
  corpus.num_states = 3;
  for (std::size_t u = 0; u < 6; ++u) {
    speech::Utterance utt;
    utt.id = 100 + u;
    utt.speaker = static_cast<int>(u % 2);
    const std::size_t frames = 2 + u;
    utt.features = blas::Matrix<float>(frames, corpus.feature_dim);
    for (std::size_t t = 0; t < frames; ++t) {
      for (std::size_t d = 0; d < corpus.feature_dim; ++d) {
        utt.features(t, d) = dyadic(rng);
      }
      utt.labels.push_back(static_cast<int>(rng.below(corpus.num_states)));
    }
    corpus.utterances.push_back(std::move(utt));
  }
  return corpus;
}

/// Small shards, so the sample corpus spans several of them.
inline constexpr std::size_t kShardBytes = 256;

inline std::vector<std::byte> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string s((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  return std::vector<std::byte>(p, p + s.size());
}

inline void write_bytes(const std::string& path,
                        const std::vector<std::byte>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

}  // namespace bgqhf::format_samples
