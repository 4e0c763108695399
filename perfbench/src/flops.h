// Analytic FLOP counts of the network passes the benchmark times directly.
//
// Only GEMM work is counted (2 flops per multiply-add); bias, activation,
// softmax and loss element-wise work is left out, so achieved rates are
// GEMM-equivalent GFLOP/s. Per layer l (in_l x out_l) over N frames:
//   forward    : 2 N in_l out_l
//   backprop   : 2 N in_l out_l (dW), plus 2 N in_l out_l (dA) for l > 0
//   GN product : R-forward 2 N in_l out_l, plus another for l > 0, then a
//                backprop of the result - exactly twice the backprop count.
#pragma once

#include <cstddef>

#include "nn/network.h"

namespace perfbench {

double forward_flops(const bgqhf::nn::Network& net, std::size_t frames);
double backprop_flops(const bgqhf::nn::Network& net, std::size_t frames);
double gn_product_flops(const bgqhf::nn::Network& net, std::size_t frames);

}  // namespace perfbench
