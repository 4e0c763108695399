#include "serve/quantized.h"

#include <cmath>
#include <stdexcept>
#include <string_view>

#include "blas/epilogue.h"
#include "hf/checkpoint.h"
#include "obs/span.h"
#include "util/format.h"

namespace bgqhf::serve {

namespace {

constexpr std::string_view kMagic{"BGQHFQW1", 8};
constexpr std::uint32_t kVersion = 1;

/// max |v| over a matrix view (0 for an empty view).
float max_abs(blas::ConstMatrixView<float> m) {
  float mx = 0.0f;
  for (std::size_t i = 0; i < m.rows; ++i) {
    for (std::size_t j = 0; j < m.cols; ++j) {
      mx = std::max(mx, std::fabs(m(i, j)));
    }
  }
  return mx;
}

/// max-abs/127 with the all-zero fallback the weight quantizer uses too:
/// scale 1 keeps the codes (all zero) exact without a divide-by-zero.
float scale_of(float maxabs) { return maxabs > 0.0f ? maxabs / 127.0f : 1.0f; }

// Serialized layer with the smallest legal dimensions (in = out = 1):
// in, out, act, input_scale, then one row scale, one bias, one code.
constexpr std::size_t kMinLayerBytes = 8 + 8 + 1 + 4 + 4 + 4 + 1;

}  // namespace

QuantizedModel QuantizedModel::quantize(
    const nn::Network& net, blas::ConstMatrixView<float> calibration,
    std::uint64_t trained_iterations) {
  BGQHF_SPAN("serve", "quantize");
  if (calibration.rows == 0) {
    throw std::invalid_argument("quantize: empty calibration corpus");
  }
  if (calibration.cols != net.input_dim()) {
    throw std::invalid_argument(
        "quantize: corpus dim " + std::to_string(calibration.cols) +
        " != network input dim " + std::to_string(net.input_dim()));
  }

  // One fp32 replay pass: acts[l] is exactly what layer l+1 will see at
  // serve time, so its max-abs pins that layer's static activation scale.
  const nn::ForwardCache cache = net.forward(calibration);

  QuantizedModel q;
  q.trained_iterations_ = trained_iterations;
  q.layers_.resize(net.num_layers());
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    QuantizedLayer& ql = q.layers_[l];
    ql.in = net.layers()[l].in;
    ql.out = net.layers()[l].out;
    ql.act = net.layers()[l].act;
    ql.input_scale = scale_of(
        max_abs(l == 0 ? calibration : cache.acts[l - 1].view()));

    const nn::ConstLayerParams lp = net.layer(l);
    ql.wq.resize(ql.out * ql.in);
    ql.row_scale.resize(ql.out);
    ql.bias.assign(lp.b.begin(), lp.b.end());
    for (std::size_t i = 0; i < ql.out; ++i) {
      float mx = 0.0f;
      for (std::size_t j = 0; j < ql.in; ++j) {
        mx = std::max(mx, std::fabs(lp.w(i, j)));
      }
      const float scale = scale_of(mx);
      ql.row_scale[i] = scale;
      const float inv = 1.0f / scale;
      for (std::size_t j = 0; j < ql.in; ++j) {
        const long r = std::lrintf(lp.w(i, j) * inv);
        ql.wq[i * ql.in + j] =
            static_cast<std::int8_t>(std::clamp<long>(r, -127, 127));
      }
    }
    ql.packed =
        blas::pack_int8_weights(ql.wq.data(), ql.out, ql.in,
                                ql.row_scale.data());
  }
  return q;
}

void QuantizedModel::score(blas::ConstMatrixView<float> x,
                           blas::MatrixView<float> out,
                           QuantizedScratch& scratch) const {
  if (x.cols != input_dim()) {
    throw std::invalid_argument("int8 score: input dimension mismatch");
  }
  if (out.rows != x.rows || out.cols != output_dim()) {
    throw std::invalid_argument("int8 score: output shape mismatch");
  }
  BGQHF_SPAN("serve", "score_int8");
  blas::ConstMatrixView<float> in = x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const QuantizedLayer& ql = layers_[l];
    const bool last = l + 1 == layers_.size();
    const blas::MatrixView<float> dst =
        last ? out : scratch.acts.ensure(l % 2 == 1, x.rows, ql.out);
    blas::GemmEpilogue<float> ep;
    ep.bias = ql.bias.data();
    ep.act = nn::to_epilogue(ql.act);
    blas::gemm_int8_packed(in, ql.packed, dst, ep, scratch.int8,
                           ql.input_scale);
    in = dst;
  }
}

float QuantizedModel::max_logit_delta(
    const nn::Network& fp32, blas::ConstMatrixView<float> corpus) const {
  if (fp32.input_dim() != input_dim() ||
      fp32.output_dim() != output_dim()) {
    throw std::invalid_argument("max_logit_delta: topology mismatch");
  }
  const blas::Matrix<float> exact = fp32.forward_logits(corpus);
  blas::Matrix<float> approx(corpus.rows, output_dim());
  QuantizedScratch scratch;
  score(corpus, approx.view(), scratch);
  float mx = 0.0f;
  for (std::size_t i = 0; i < corpus.rows; ++i) {
    for (std::size_t j = 0; j < output_dim(); ++j) {
      mx = std::max(mx, std::fabs(approx(i, j) - exact.view()(i, j)));
    }
  }
  return mx;
}

nn::Network QuantizedModel::dequantize() const {
  std::vector<nn::LayerSpec> specs;
  specs.reserve(layers_.size());
  for (const QuantizedLayer& ql : layers_) {
    specs.push_back({ql.in, ql.out, ql.act});
  }
  nn::Network net(std::move(specs));
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const QuantizedLayer& ql = layers_[l];
    const nn::LayerParams lp = net.layer(l);
    for (std::size_t i = 0; i < ql.out; ++i) {
      for (std::size_t j = 0; j < ql.in; ++j) {
        lp.w(i, j) =
            static_cast<float>(ql.wq[i * ql.in + j]) * ql.row_scale[i];
      }
    }
    std::copy(ql.bias.begin(), ql.bias.end(), lp.b.begin());
  }
  return net;
}

void QuantizedModel::save(const std::string& path) const {
  BGQHF_SPAN("serve", "quantized_save");
  util::ByteWriter w;
  w.header(kMagic, kVersion);
  w.pod(trained_iterations_);
  w.pod(static_cast<std::uint64_t>(layers_.size()));
  for (const QuantizedLayer& ql : layers_) {
    w.pod(static_cast<std::uint64_t>(ql.in));
    w.pod(static_cast<std::uint64_t>(ql.out));
    w.pod(static_cast<std::uint8_t>(ql.act));
    w.pod(ql.input_scale);
    w.pod_vector(ql.row_scale);
    w.pod_vector(ql.bias);
    w.pod_vector(ql.wq);
  }
  util::write_file(path, std::move(w).seal());
}

QuantizedModel QuantizedModel::load(const std::string& path) {
  BGQHF_SPAN("serve", "quantized_load");
  using hf::CheckpointFault;
  const std::vector<std::byte> bytes = util::read_file(path);
  util::ByteReader r = util::open_sealed(bytes, kMagic, kVersion, path);

  QuantizedModel q;
  q.trained_iterations_ = r.pod<std::uint64_t>();
  const auto num_layers = r.pod<std::uint64_t>();
  if (num_layers == 0) r.fail(CheckpointFault::kCorrupt, "no layers");
  r.check_count(num_layers, kMinLayerBytes);
  q.layers_.resize(static_cast<std::size_t>(num_layers));
  for (std::size_t l = 0; l < q.layers_.size(); ++l) {
    QuantizedLayer& ql = q.layers_[l];
    ql.in = static_cast<std::size_t>(r.pod<std::uint64_t>());
    ql.out = static_cast<std::size_t>(r.pod<std::uint64_t>());
    if (ql.in == 0 || ql.out == 0) {
      r.fail(CheckpointFault::kCorrupt, "zero layer dimension");
    }
    if (l > 0 && ql.in != q.layers_[l - 1].out) {
      r.fail(CheckpointFault::kShapeMismatch,
             "layer " + std::to_string(l) + " input " +
                 std::to_string(ql.in) + " != previous output " +
                 std::to_string(q.layers_[l - 1].out));
    }
    const auto act = r.pod<std::uint8_t>();
    if (act > static_cast<std::uint8_t>(nn::Activation::kLinear)) {
      r.fail(CheckpointFault::kCorrupt, "bad activation code");
    }
    ql.act = static_cast<nn::Activation>(act);
    ql.input_scale = r.pod<float>();
    ql.row_scale = r.pod_vector<float>(ql.out);
    ql.bias = r.pod_vector<float>(ql.out);
    // out * in cannot overflow once in fits the bytes left per row.
    r.check_count(ql.in, ql.out);
    ql.wq = r.pod_vector<std::int8_t>(ql.out * ql.in);
    ql.packed = blas::pack_int8_weights(ql.wq.data(), ql.out, ql.in,
                                        ql.row_scale.data());
  }
  return q;
}

}  // namespace bgqhf::serve
