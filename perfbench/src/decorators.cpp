#include "decorators.h"

#include <numeric>

#include "obs/span.h"

namespace perfbench {

namespace {

double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

}  // namespace

const char* prim_name(Prim p) {
  switch (p) {
    case Prim::kSetParams: return "set_params";
    case Prim::kGradient: return "gradient";
    case Prim::kPrepareCurvature: return "prepare_curvature";
    case Prim::kCurvatureProduct: return "curvature_product";
    case Prim::kHeldout: return "heldout_loss";
    case Prim::kCount: break;
  }
  return "?";
}

double PrimTotals::sum_seconds() const {
  return std::accumulate(seconds.begin(), seconds.end(), 0.0);
}

TimedCompute::TimedCompute(bgqhf::hf::HfCompute& inner) : inner_(inner) {}

double TimedCompute::since_start(SteadyClock::time_point t) const {
  return std::chrono::duration<double>(t - start_).count();
}

void TimedCompute::add(Prim p, SteadyClock::time_point t0) {
  const double s = seconds_since(t0);
  const auto i = static_cast<std::size_t>(p);
  totals_.seconds[i] += s;
  ++totals_.calls[i];
  if (p == Prim::kGradient) totals_.gradient_seconds.push_back(s);
}

void TimedCompute::mark_start() { start_ = SteadyClock::now(); }

void TimedCompute::mark_end() {
  wall_s_ = seconds_since(start_);
  if (totals_.calls_of(Prim::kGradient) > 0) {
    iter_end_s_.push_back(since_start(last_set_params_));
  }
}

void TimedCompute::set_params(std::span<const float> theta) {
  bgqhf::obs::Span span("perfbench", prim_name(Prim::kSetParams));
  const auto t0 = SteadyClock::now();
  last_set_params_ = t0;
  inner_.set_params(theta);
  add(Prim::kSetParams, t0);
}

bgqhf::nn::BatchLoss TimedCompute::gradient(std::span<float> grad_out) {
  if (totals_.calls_of(Prim::kGradient) > 0) {
    iter_end_s_.push_back(since_start(last_set_params_));
  }
  bgqhf::obs::Span span("perfbench", prim_name(Prim::kGradient));
  const auto t0 = SteadyClock::now();
  const bgqhf::nn::BatchLoss loss = inner_.gradient(grad_out);
  add(Prim::kGradient, t0);
  return loss;
}

bgqhf::nn::BatchLoss TimedCompute::gradient_with_squares(
    std::span<float> grad_out, std::span<float> grad_sq_out) {
  if (totals_.calls_of(Prim::kGradient) > 0) {
    iter_end_s_.push_back(since_start(last_set_params_));
  }
  bgqhf::obs::Span span("perfbench", prim_name(Prim::kGradient));
  const auto t0 = SteadyClock::now();
  const bgqhf::nn::BatchLoss loss =
      inner_.gradient_with_squares(grad_out, grad_sq_out);
  add(Prim::kGradient, t0);
  return loss;
}

void TimedCompute::prepare_curvature(std::uint64_t seed) {
  bgqhf::obs::Span span("perfbench", prim_name(Prim::kPrepareCurvature));
  const auto t0 = SteadyClock::now();
  inner_.prepare_curvature(seed);
  add(Prim::kPrepareCurvature, t0);
}

void TimedCompute::curvature_product(std::span<const float> v,
                                     std::span<float> out) {
  bgqhf::obs::Span span("perfbench", prim_name(Prim::kCurvatureProduct));
  const auto t0 = SteadyClock::now();
  inner_.curvature_product(v, out);
  add(Prim::kCurvatureProduct, t0);
}

bgqhf::nn::BatchLoss TimedCompute::heldout_loss() {
  bgqhf::obs::Span span("perfbench", prim_name(Prim::kHeldout));
  const auto t0 = SteadyClock::now();
  const bgqhf::nn::BatchLoss loss = inner_.heldout_loss();
  add(Prim::kHeldout, t0);
  return loss;
}

TimedWorkload::TimedWorkload(std::unique_ptr<bgqhf::hf::Workload> inner,
                             ShardTimes& times)
    : inner_(std::move(inner)), times_(times) {}

void TimedWorkload::set_params(std::span<const float> theta) {
  const auto t0 = SteadyClock::now();
  inner_->set_params(theta);
  times_.other_s += seconds_since(t0);
}

bgqhf::nn::BatchLoss TimedWorkload::gradient(std::span<float> grad_accum) {
  const auto t0 = SteadyClock::now();
  const bgqhf::nn::BatchLoss loss = inner_->gradient(grad_accum);
  times_.gradient_s += seconds_since(t0);
  return loss;
}

bgqhf::nn::BatchLoss TimedWorkload::gradient(std::span<float> grad_accum,
                                             bgqhf::hf::GradientSink* sink) {
  const auto t0 = SteadyClock::now();
  const bgqhf::nn::BatchLoss loss = inner_->gradient(grad_accum, sink);
  times_.gradient_s += seconds_since(t0);
  return loss;
}

bgqhf::nn::BatchLoss TimedWorkload::gradient_with_squares(
    std::span<float> grad_accum, std::span<float> grad_sq_accum) {
  const auto t0 = SteadyClock::now();
  const bgqhf::nn::BatchLoss loss =
      inner_->gradient_with_squares(grad_accum, grad_sq_accum);
  times_.gradient_s += seconds_since(t0);
  return loss;
}

void TimedWorkload::prepare_curvature(std::uint64_t seed) {
  const auto t0 = SteadyClock::now();
  inner_->prepare_curvature(seed);
  times_.other_s += seconds_since(t0);
}

void TimedWorkload::curvature_product(std::span<const float> v,
                                      std::span<float> out_accum) {
  const auto t0 = SteadyClock::now();
  inner_->curvature_product(v, out_accum);
  times_.product_s += seconds_since(t0);
}

bgqhf::nn::BatchLoss TimedWorkload::heldout_loss() {
  const auto t0 = SteadyClock::now();
  const bgqhf::nn::BatchLoss loss = inner_->heldout_loss();
  times_.heldout_s += seconds_since(t0);
  return loss;
}

}  // namespace perfbench
