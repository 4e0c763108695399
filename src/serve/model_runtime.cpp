#include "serve/model_runtime.h"

#include "hf/checkpoint.h"
#include "obs/span.h"

namespace bgqhf::serve {

ModelRuntime::ModelRuntime(nn::Network net) : net_(std::move(net)) {}

std::shared_ptr<const ModelRuntime> ModelRuntime::from_checkpoint(
    const std::string& path, const nn::Network& topology) {
  BGQHF_SPAN("serve", "model_load");
  const hf::CheckpointWeights weights = hf::load_checkpoint_weights(path);
  nn::Network net = topology;
  hf::install_weights(weights, net);
  auto runtime = std::make_shared<ModelRuntime>(std::move(net));
  runtime->trained_iterations_ = weights.completed_iterations;
  return runtime;
}

std::shared_ptr<const ModelRuntime> ModelRuntime::with_int8(
    nn::Network net, blas::ConstMatrixView<float> calibration,
    float tolerance) {
  BGQHF_SPAN("serve", "model_quantize");
  auto quant = std::make_shared<const QuantizedModel>(
      QuantizedModel::quantize(net, calibration));
  const float measured = quant->max_logit_delta(net, calibration);
  if (measured > tolerance) {
    throw QuantizationRejected(measured, tolerance);
  }
  auto runtime = std::make_shared<ModelRuntime>(std::move(net));
  runtime->quant_ = std::move(quant);
  return runtime;
}

std::shared_ptr<const ModelRuntime> ModelRuntime::from_quantized_file(
    const std::string& path) {
  BGQHF_SPAN("serve", "model_load");
  auto quant =
      std::make_shared<const QuantizedModel>(QuantizedModel::load(path));
  auto runtime = std::make_shared<ModelRuntime>(quant->dequantize());
  runtime->trained_iterations_ = quant->trained_iterations();
  runtime->quant_ = std::move(quant);
  return runtime;
}

void ModelRuntime::score(blas::ConstMatrixView<float> x,
                         blas::MatrixView<float> out,
                         nn::ForwardScratch& scratch,
                         util::ThreadPool* pool) const {
  BGQHF_SPAN("serve", "score");
  net_.forward_logits_into(x, out, scratch, pool);
}

void ModelRuntime::score(blas::ConstMatrixView<float> x,
                         blas::MatrixView<float> out,
                         QuantizedScratch& scratch,
                         util::ThreadPool* pool) const {
  if (quant_ != nullptr) {
    BGQHF_SPAN("serve", "score");
    quant_->score(x, out, scratch);
    return;
  }
  score(x, out, scratch.acts, pool);
}

blas::Matrix<float> ModelRuntime::score(blas::ConstMatrixView<float> x,
                                        util::ThreadPool* pool) const {
  blas::Matrix<float> out(x.rows, output_dim());
  QuantizedScratch scratch;
  score(x, out.view(), scratch, pool);
  return out;
}

}  // namespace bgqhf::serve
