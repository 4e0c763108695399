// Immutable scoring graph over a trained network.
//
// A ModelRuntime is a frozen nn::Network behind a const API: once built it
// is never mutated, so any number of scoring workers share one instance
// without locks, and hot model swap is an atomic shared_ptr flip in the
// engine (in-flight batches finish on the runtime they snapshotted). The
// forward pass runs the fused bias+activation GEMMs of the training worker
// hot path — He & Smelyanskiy (arXiv:1606.00511) observe the same shapes
// dominate at inference, so the SIMD engine is reused as-is.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "blas/matrix.h"
#include "nn/network.h"
#include "serve/quantized.h"
#include "util/thread_pool.h"

namespace bgqhf::serve {

class ModelRuntime {
 public:
  /// Freeze an already-populated network (in-process handoff from a
  /// trainer, or tests building weights directly).
  explicit ModelRuntime(nn::Network net);

  /// Load HF checkpoint weights (weights-only path, CRC-validated) into a
  /// copy of `topology`. The checkpoint stores the flat parameter vector
  /// only, so the caller names the architecture it was trained with; a
  /// parameter-count mismatch throws hf::CheckpointError{kShapeMismatch}.
  static std::shared_ptr<const ModelRuntime> from_checkpoint(
      const std::string& path, const nn::Network& topology);

  /// Quantize `net` to int8 against a replay corpus and gate it: the
  /// runtime scores through the pre-packed VNNI path only if the worst
  /// calibration-corpus logit stays within `tolerance` of fp32 — else
  /// QuantizationRejected and nothing is installed. The fp32 network is
  /// retained for topology checks and as the gate reference.
  static std::shared_ptr<const ModelRuntime> with_int8(
      nn::Network net, blas::ConstMatrixView<float> calibration,
      float tolerance);

  /// Serve a quantized-model file (save()d QuantizedModel): the fp32
  /// network is reconstructed by dequantizing, scoring runs int8. Throws
  /// hf::CheckpointError on a bad file.
  static std::shared_ptr<const ModelRuntime> from_quantized_file(
      const std::string& path);

  std::size_t input_dim() const { return net_.input_dim(); }
  std::size_t output_dim() const { return net_.output_dim(); }
  std::size_t num_params() const { return net_.num_params(); }
  const nn::Network& network() const { return net_; }

  /// Checkpoint iteration count the weights came from (0 when built from a
  /// raw network); shown by swap logs to identify what is serving.
  std::uint64_t trained_iterations() const { return trained_iterations_; }

  /// Score a batch: logits (x.rows x output_dim) written into `out`
  /// through caller-owned per-thread scratch. Rows are independent, so
  /// scoring N utterances as one batch is bitwise identical to N separate
  /// calls (the parity test pins this).
  void score(blas::ConstMatrixView<float> x, blas::MatrixView<float> out,
             nn::ForwardScratch& scratch,
             util::ThreadPool* pool = nullptr) const;

  /// Precision-dispatching overload (the engine's worker path): scores
  /// through the int8 pre-packed weights when this runtime carries them,
  /// the fused fp32 forward otherwise. Same zero-alloc contract; the
  /// scratch embeds the fp32 ping-pong buffers, so a worker needs only
  /// this one scratch for both kinds of runtime.
  void score(blas::ConstMatrixView<float> x, blas::MatrixView<float> out,
             QuantizedScratch& scratch,
             util::ThreadPool* pool = nullptr) const;

  /// Allocating convenience overload (dispatches like the scratch form).
  blas::Matrix<float> score(blas::ConstMatrixView<float> x,
                            util::ThreadPool* pool = nullptr) const;

  /// Non-null when this runtime serves int8.
  const QuantizedModel* quantized() const { return quant_.get(); }

 private:
  nn::Network net_;
  std::shared_ptr<const QuantizedModel> quant_;
  std::uint64_t trained_iterations_ = 0;
};

}  // namespace bgqhf::serve
