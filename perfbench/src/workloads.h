// Workload entry points and the pieces the self-tests reuse.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "decorators.h"
#include "hf/phase_stats.h"
#include "hf/trainer.h"
#include "metrics.h"
#include "simmpi/stats.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What the result line's correct / attempted / failed fields report.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_passed = true;
  std::vector<std::string> notes;  // one line per failed check

  void fail(const std::string& why) {
    ++failed;
    checks_passed = false;
    notes.push_back(why);
  }
};

// ---- training ----

struct TrainSpec {
  const char* name;
  double hours;
  double mean_utt_seconds;
  std::vector<std::size_t> hidden;
  std::size_t iterations;
  /// Share of each worker's utterances resampled per CG call.
  double curvature_fraction;
  /// Initial Levenberg-Marquardt damping.
  double lambda0;
  /// Held-out CE the run must reach; time_to_target_s is measured to it.
  double ce_target;
  /// Frames per batch for the direct nn timings (the workload's typical
  /// GEMM height: a gradient batch, or a curvature sample).
  std::size_t nn_batch;
};

/// nullptr for an unknown name.
const TrainSpec* find_train_spec(const std::string& name);

/// Paper-shaped trainer config: 40 features x 11-frame context (440 inputs),
/// 16 states, sigmoid hidden layers, master + 3 workers. Every knob is set
/// explicitly; nothing is read from the environment.
bgqhf::hf::TrainerConfig make_train_config(const TrainSpec& spec,
                                           std::uint64_t seed);

struct DistributedRun {
  bgqhf::hf::HfResult hf;
  std::vector<float> theta;
  PrimTotals prims;
  std::vector<double> iteration_end_s;
  double wall_s = 0.0;        // HfOptimizer::run on the master
  double distribute_s = 0.0;  // hf::distribute_shards on the master
  bgqhf::hf::PhaseStats master_phases;
  std::vector<bgqhf::hf::PhaseStats> worker_phases;
  bgqhf::simmpi::CommStats comm_total;
  bgqhf::simmpi::CommStats comm_master;
};

/// Mirror of hf::train_over with the master's HfCompute wrapped in
/// TimedCompute: distribute_shards + optimizer on rank 0, run_worker_rank
/// on the others.
DistributedRun run_distributed(const bgqhf::hf::TrainerConfig& config,
                               const bgqhf::hf::Shards& shards);

struct SerialRun {
  bgqhf::hf::HfResult hf;
  std::vector<float> theta;
  double wall_s = 0.0;
  std::vector<ShardTimes> shard_times;
};

/// hf::SerialCompute over the same shards, each wrapped in TimedWorkload
/// (the single-process baseline and the bitwise reference).
SerialRun run_serial(const bgqhf::hf::TrainerConfig& config,
                     const bgqhf::hf::Shards& shards);

/// Bitwise equality of two trajectories: held-out CE per iteration, the
/// final held-out CE and every parameter.
bool same_trajectory(const bgqhf::hf::HfResult& a,
                     const std::vector<float>& theta_a,
                     const bgqhf::hf::HfResult& b,
                     const std::vector<float>& theta_b);


void run_train(const TrainSpec& spec, const Args& args, MetricSheet& sheet,
               Outcome& outcome);

// ---- serving ----

void run_serve_open(const Args& args, MetricSheet& sheet, Outcome& outcome);

// ---- direct nn timings ----

struct NnRates {
  double forward_gflops = 0.0;
  double backprop_gflops = 0.0;
  double gn_product_gflops = 0.0;
};

/// Time Network::forward, nn::accumulate_gradient and
/// nn::accumulate_gn_product on one `frames`-row batch of `net`'s shape;
/// backprop and GN products are skipped (left 0) when `forward_only`.
NnRates measure_nn(const bgqhf::nn::Network& net, std::size_t frames,
                   std::uint64_t seed, bool forward_only);

// ---- traced roll-up ----

struct RollupTotals {
  double worker_busy_s = 0.0;
  double gemm_s = 0.0;
  std::size_t gemm_calls = 0;
};

/// Print the traced training roll-up (outer iteration -> HfCompute
/// primitive -> worker phase -> gemm / collective / other / unattributed)
/// from obs::collect_trace() and return the worker-side totals.
RollupTotals print_train_rollup(const DistributedRun& run);

/// Print the serving roll-up (serve/score_batch -> gemm / other /
/// unattributed) from obs::collect_trace() and return its totals.
RollupTotals print_serve_rollup();

}  // namespace perfbench
