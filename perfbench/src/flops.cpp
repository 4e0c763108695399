#include "flops.h"

namespace perfbench {

namespace {

/// Sum of in*out over layers [first, L).
double macs_from(const bgqhf::nn::Network& net, std::size_t first) {
  double macs = 0.0;
  const auto& layers = net.layers();
  for (std::size_t l = first; l < layers.size(); ++l) {
    macs += static_cast<double>(layers[l].in) * static_cast<double>(layers[l].out);
  }
  return macs;
}

}  // namespace

double forward_flops(const bgqhf::nn::Network& net, std::size_t frames) {
  return 2.0 * static_cast<double>(frames) * macs_from(net, 0);
}

double backprop_flops(const bgqhf::nn::Network& net, std::size_t frames) {
  return 2.0 * static_cast<double>(frames) *
         (macs_from(net, 0) + macs_from(net, 1));
}

double gn_product_flops(const bgqhf::nn::Network& net, std::size_t frames) {
  return 2.0 * backprop_flops(net, frames);
}

}  // namespace perfbench
