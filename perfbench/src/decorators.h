// Timing decorators over the library's public compute interfaces.
//
// TimedCompute wraps the distributed master's hf::HfCompute and TimedWorkload
// wraps one serial hf::Workload shard. Both forward every call unchanged and
// only read a steady clock around it, so the wrapped program computes
// exactly what it computes bare (selftest pins this bitwise). When obs
// tracing is on they also record a "perfbench" span per call, which the
// traced roll-up nests the library's own spans under.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <memory>
#include <vector>

#include "hf/compute.h"
#include "hf/workload.h"

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

/// The HfCompute primitives the optimizer calls.
enum class Prim {
  kSetParams = 0,
  kGradient,
  kPrepareCurvature,
  kCurvatureProduct,
  kHeldout,
  kCount
};
inline constexpr std::size_t kNumPrims = static_cast<std::size_t>(Prim::kCount);

/// Span name of a primitive (a string literal, as obs spans require).
const char* prim_name(Prim p);

struct PrimTotals {
  std::array<double, kNumPrims> seconds{};
  std::array<std::size_t, kNumPrims> calls{};
  /// Every gradient latency, in seconds (one master -> workers -> master
  /// round trip each).
  std::vector<double> gradient_seconds;

  double sum_seconds() const;
  double seconds_of(Prim p) const { return seconds[static_cast<std::size_t>(p)]; }
  std::size_t calls_of(Prim p) const { return calls[static_cast<std::size_t>(p)]; }
};

class TimedCompute : public bgqhf::hf::HfCompute {
 public:
  explicit TimedCompute(bgqhf::hf::HfCompute& inner);

  std::size_t num_params() const override { return inner_.num_params(); }
  std::size_t total_train_frames() const override {
    return inner_.total_train_frames();
  }
  void set_params(std::span<const float> theta) override;
  bgqhf::nn::BatchLoss gradient(std::span<float> grad_out) override;
  bgqhf::nn::BatchLoss gradient_with_squares(
      std::span<float> grad_out, std::span<float> grad_sq_out) override;
  void prepare_curvature(std::uint64_t seed) override;
  void curvature_product(std::span<const float> v,
                         std::span<float> out) override;
  bgqhf::nn::BatchLoss heldout_loss() override;

  /// Call right before HfOptimizer::run and right after it returns.
  void mark_start();
  void mark_end();

  const PrimTotals& totals() const { return totals_; }
  /// Seconds from mark_start() to the end of each outer iteration. The
  /// optimizer calls set_params right before every iteration's gradient and
  /// once more after its loop, so iteration i ends where the set_params
  /// preceding gradient i+1 (or the final set_params) begins.
  const std::vector<double>& iteration_end_s() const { return iter_end_s_; }
  double wall_s() const { return wall_s_; }

 private:
  double since_start(SteadyClock::time_point t) const;
  void add(Prim p, SteadyClock::time_point t0);

  bgqhf::hf::HfCompute& inner_;
  PrimTotals totals_;
  SteadyClock::time_point start_{};
  SteadyClock::time_point last_set_params_{};
  std::vector<double> iter_end_s_;
  double wall_s_ = 0.0;
};

/// Per-shard compute time of the serial run (no communication at all).
struct ShardTimes {
  double gradient_s = 0.0;
  double product_s = 0.0;
  double heldout_s = 0.0;
  double other_s = 0.0;
};

class TimedWorkload : public bgqhf::hf::Workload {
 public:
  /// `times` must outlive this decorator.
  TimedWorkload(std::unique_ptr<bgqhf::hf::Workload> inner, ShardTimes& times);

  std::size_t num_params() const override { return inner_->num_params(); }
  std::size_t train_frames() const override { return inner_->train_frames(); }
  std::vector<std::size_t> segment_bounds() const override {
    return inner_->segment_bounds();
  }
  void set_params(std::span<const float> theta) override;
  bgqhf::nn::BatchLoss gradient(std::span<float> grad_accum) override;
  bgqhf::nn::BatchLoss gradient(std::span<float> grad_accum,
                                bgqhf::hf::GradientSink* sink) override;
  bgqhf::nn::BatchLoss gradient_with_squares(
      std::span<float> grad_accum, std::span<float> grad_sq_accum) override;
  void prepare_curvature(std::uint64_t seed) override;
  std::size_t curvature_frames() const override {
    return inner_->curvature_frames();
  }
  void set_curvature_fraction(double fraction) override {
    inner_->set_curvature_fraction(fraction);
  }
  void curvature_product(std::span<const float> v,
                         std::span<float> out_accum) override;
  bgqhf::nn::BatchLoss heldout_loss() override;

 private:
  std::unique_ptr<bgqhf::hf::Workload> inner_;
  ShardTimes& times_;
};

}  // namespace perfbench
