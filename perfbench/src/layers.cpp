// Direct nn timings: each pass called from outside on one batch.
#include <vector>

#include "flops.h"
#include "nn/backprop.h"
#include "nn/gaussnewton.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace nn = bgqhf::nn;
namespace blas = bgqhf::blas;

namespace {

/// Median seconds per call of `fn` over at least `min_calls` calls and at
/// least `min_s` seconds, after one untimed warm-up call.
template <typename Fn>
double median_call_s(Fn&& fn, int min_calls = 5, double min_s = 0.15) {
  fn();
  std::vector<double> samples;
  const auto start = SteadyClock::now();
  while (static_cast<int>(samples.size()) < min_calls ||
         std::chrono::duration<double>(SteadyClock::now() - start).count() <
             min_s) {
    const auto t0 = SteadyClock::now();
    fn();
    samples.push_back(
        std::chrono::duration<double>(SteadyClock::now() - t0).count());
  }
  return median(samples);
}

blas::Matrix<float> random_matrix(std::size_t rows, std::size_t cols,
                                  bgqhf::util::Rng& rng, double scale) {
  blas::Matrix<float> m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.uniform(-scale, scale));
  }
  return m;
}

}  // namespace

NnRates measure_nn(const nn::Network& net, std::size_t frames,
                   std::uint64_t seed, bool forward_only) {
  bgqhf::util::Rng rng(0x6e6eULL + seed);
  const blas::Matrix<float> x = random_matrix(frames, net.input_dim(), rng, 1.0);
  NnRates rates;
  const double fwd_s = median_call_s([&] { (void)net.forward(x.view()); });
  rates.forward_gflops = forward_flops(net, frames) / fwd_s * 1e-9;
  if (forward_only) return rates;

  const nn::ForwardCache cache = net.forward(x.view());
  const blas::Matrix<float> delta =
      random_matrix(frames, net.output_dim(), rng, 0.1);
  std::vector<float> grad(net.num_params(), 0.0f);
  // accumulate_gradient consumes its delta, so each call gets a copy; the
  // copy is frames x outputs, negligible next to the GEMMs.
  const double bp_s = median_call_s([&] {
    nn::accumulate_gradient(net, x.view(), cache, blas::Matrix<float>(delta),
                            grad);
  });
  rates.backprop_gflops = backprop_flops(net, frames) / bp_s * 1e-9;

  std::vector<float> v(net.num_params());
  for (float& e : v) e = static_cast<float>(rng.uniform(-0.01, 0.01));
  std::vector<float> gv(net.num_params(), 0.0f);
  const double gn_s = median_call_s([&] {
    nn::accumulate_gn_product(net, x.view(), cache,
                              nn::CurvatureKind::kSoftmaxCE, v, gv);
  });
  rates.gn_product_gflops = gn_product_flops(net, frames) / gn_s * 1e-9;
  return rates;
}

}  // namespace perfbench
