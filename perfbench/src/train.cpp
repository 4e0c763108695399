// Training workloads: paper-shaped cross-entropy HF over master + 3 workers.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <string>

#include "hf/aggregate.h"
#include "hf/master_compute.h"
#include "hf/serial_compute.h"
#include "hf/speech_workload.h"
#include "obs/trace.h"
#include "simmpi/communicator.h"
#include "util/checksum.h"
#include "workloads.h"

namespace perfbench {

namespace hf = bgqhf::hf;
namespace simmpi = bgqhf::simmpi;

namespace {

double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

/// Timed outcome of one distributed training run.
struct RunTimes {
  double time_to_target_s = 0.0;
  double frames_per_s = 0.0;
  std::size_t iters_to_target = 0;
};

/// 0-based index of the first outer iteration whose held-out CE reaches
/// `target`, or -1 when the run never reaches it.
long first_iteration_at(const hf::HfResult& r, double target) {
  for (std::size_t i = 0; i < r.iterations.size(); ++i) {
    if (r.iterations[i].heldout_after <= target) return static_cast<long>(i);
  }
  return -1;
}

RunTimes times_of(const DistributedRun& run, std::size_t train_frames,
                  double target) {
  RunTimes t;
  const long hit = first_iteration_at(run.hf, target);
  if (hit >= 0 && static_cast<std::size_t>(hit) < run.iteration_end_s.size()) {
    t.time_to_target_s = run.iteration_end_s[static_cast<std::size_t>(hit)];
    t.iters_to_target = static_cast<std::size_t>(hit) + 1;
  }
  // Over the iterations up to the target: the ones after it converge at a
  // seed-dependent pace (CG and line-search counts vary) and would add the
  // data's spread to the machine's.
  if (t.iters_to_target > 0) {
    t.frames_per_s = static_cast<double>(t.iters_to_target) *
                     static_cast<double>(train_frames) / t.time_to_target_s;
  }
  return t;
}

std::size_t total_cg_iters(const hf::HfResult& r) {
  std::size_t n = 0;
  for (const auto& it : r.iterations) n += it.cg_iterations;
  return n;
}

std::uint32_t theta_checksum(const std::vector<float>& theta) {
  return bgqhf::util::crc32(theta.data(), theta.size() * sizeof(float));
}

void print_trajectory(const char* label, const hf::HfResult& r,
                      const std::vector<float>& theta) {
  std::printf("  %s held-out CE:", label);
  for (const auto& it : r.iterations) std::printf(" %.4f", it.heldout_after);
  std::printf("  final %.6f  theta crc32 %08x\n", r.final_heldout_loss,
              theta_checksum(theta));
}

}  // namespace

const TrainSpec* find_train_spec(const std::string& name) {
  // train_ce: ~0.1 h of 5 s utterances, 3x256 sigmoid - big worker GEMMs,
  //           1 MB vectors.
  // train_wide: ~0.01 h of 0.3 s utterances, 3x1024 sigmoid - 10 MB
  //           vectors around few-row GEMMs, collectives and master-local
  //           CG algebra on the critical path.
  static const TrainSpec specs[] = {
      {"train_ce", 0.1, 5.0, {256, 256, 256}, 10, 0.02, 1.0, 2.0, 1024},
      {"train_wide", 0.01, 0.3, {1024, 1024, 1024}, 6, 0.02, 0.1, 1.0, 32},
  };
  for (const TrainSpec& s : specs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

hf::TrainerConfig make_train_config(const TrainSpec& spec, std::uint64_t seed) {
  hf::TrainerConfig c;
  c.workers = 3;
  c.corpus.hours = spec.hours;
  c.corpus.feature_dim = 40;
  c.corpus.num_states = 16;
  c.corpus.mean_utt_seconds = spec.mean_utt_seconds;
  c.corpus.seed = 0x5eed0000ULL + seed;
  c.data = bgqhf::speech::StoreConfig{};
  c.context = 5;  // 11-frame window
  c.hidden = spec.hidden;
  c.criterion = hf::Criterion::kCrossEntropy;
  c.heldout_every_kth = 5;
  c.init = hf::InitScheme::kGlorot;
  c.batch_frames = 1024;
  c.init_seed = 0x1417ULL + seed;
  c.pool = nullptr;
  c.aggregation = hf::AggregationOptions{};
  c.hf.max_iterations = spec.iterations;
  c.hf.hyper = hf::HyperParams{};
  c.hf.hyper.curvature_fraction = spec.curvature_fraction;
  c.hf.hyper.lambda0 = spec.lambda0;
  c.hf.seed = 0xcafeULL + seed;
  return c;
}

DistributedRun run_distributed(const hf::TrainerConfig& config,
                               const hf::Shards& shards) {
  DistributedRun out;
  out.worker_phases.assign(static_cast<std::size_t>(config.workers),
                           hf::PhaseStats{});
  simmpi::World world(config.workers + 1);
  simmpi::run_ranks(world, [&](simmpi::Comm& comm) {
    if (comm.rank() != 0) {
      hf::run_worker_rank(
          comm, config,
          &out.worker_phases[static_cast<std::size_t>(comm.rank() - 1)]);
      return;
    }
    const auto t0 = SteadyClock::now();
    hf::distribute_shards(comm, config, shards, &out.master_phases);
    out.distribute_s = seconds_since(t0);
    hf::MasterCompute master(comm, shards.net.num_params(),
                             shards.total_train_frames, &out.master_phases,
                             config.ft, config.aggregation,
                             hf::layer_segment_bounds(shards.net));
    TimedCompute timed(master);
    out.theta.assign(shards.net.params().begin(), shards.net.params().end());
    hf::HfOptimizer optimizer(config.hf);
    try {
      timed.mark_start();
      out.hf = optimizer.run(timed, out.theta);
      timed.mark_end();
    } catch (...) {
      try {
        master.shutdown();
      } catch (...) {
      }
      throw;
    }
    master.shutdown();
    out.prims = timed.totals();
    out.iteration_end_s = timed.iteration_end_s();
    out.wall_s = timed.wall_s();
  });
  out.comm_total = world.total_stats();
  out.comm_master = world.stats(0);
  return out;
}

SerialRun run_serial(const hf::TrainerConfig& config,
                     const hf::Shards& shards) {
  SerialRun out;
  out.shard_times.assign(shards.train.size(), ShardTimes{});
  const hf::SpeechWorkloadOptions opts = hf::make_workload_options(
      config, shards.num_states, shards.advance_prob, nullptr);
  std::vector<std::unique_ptr<hf::Workload>> workloads;
  for (std::size_t w = 0; w < shards.train.size(); ++w) {
    workloads.push_back(std::make_unique<TimedWorkload>(
        std::make_unique<hf::SpeechWorkload>(shards.net, shards.train[w],
                                             shards.heldout[w], w, opts),
        out.shard_times[w]));
  }
  hf::SerialCompute compute(std::move(workloads), config.aggregation);
  out.theta.assign(shards.net.params().begin(), shards.net.params().end());
  hf::HfOptimizer optimizer(config.hf);
  const auto t0 = SteadyClock::now();
  out.hf = optimizer.run(compute, out.theta);
  out.wall_s = seconds_since(t0);
  return out;
}

bool same_trajectory(const hf::HfResult& a, const std::vector<float>& theta_a,
                     const hf::HfResult& b, const std::vector<float>& theta_b) {
  if (a.iterations.size() != b.iterations.size()) return false;
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    const double x = a.iterations[i].heldout_after;
    const double y = b.iterations[i].heldout_after;
    if (std::memcmp(&x, &y, sizeof x) != 0) return false;
  }
  if (std::memcmp(&a.final_heldout_loss, &b.final_heldout_loss,
                  sizeof(double)) != 0) {
    return false;
  }
  return theta_a.size() == theta_b.size() &&
         std::memcmp(theta_a.data(), theta_b.data(),
                     theta_a.size() * sizeof(float)) == 0;
}

void run_train(const TrainSpec& spec, const Args& args, MetricSheet& sheet,
               Outcome& outcome) {
  const hf::TrainerConfig config = make_train_config(spec, args.seed);

  // ---- set-up: corpus synthesis, split, normalization, sharding ----
  std::vector<double> build_s;
  hf::Shards shards;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = SteadyClock::now();
    shards = hf::build_shards(config);
    build_s.push_back(seconds_since(t0));
  }
  const std::size_t train_frames = shards.total_train_frames;
  std::printf("%s: seed %llu, %zu training frames, %zu params, target CE %.3f\n",
              spec.name, static_cast<unsigned long long>(args.seed),
              train_frames, shards.net.num_params(), spec.ce_target);

  // ---- timed distributed runs ----
  std::vector<DistributedRun> runs;
  auto attempt = [&](const char* what) -> bool {
    ++outcome.attempted;
    try {
      runs.push_back(run_distributed(config, shards));
    } catch (const std::exception& e) {
      outcome.fail(std::string(what) + " threw: " + e.what());
      return false;
    }
    const DistributedRun& r = runs.back();
    if (first_iteration_at(r.hf, spec.ce_target) < 0) {
      print_trajectory(what, r.hf, r.theta);
      outcome.fail(std::string(what) + " missed the CE target");
      return false;
    }
    if (runs.size() > 1 &&
        !same_trajectory(runs.front().hf, runs.front().theta, r.hf, r.theta)) {
      outcome.fail(std::string(what) + " diverged from the first run");
      return false;
    }
    return true;
  };

  if (args.trace) {
    // Untraced run for the overhead baseline, then the traced run that
    // every per-layer number comes from.
    attempt("untraced run");
    bgqhf::obs::clear_trace();
    bgqhf::obs::set_tracing(true);
    const bool ok = attempt("traced run");
    bgqhf::obs::set_tracing(false);
    if (!ok || runs.size() != 2) return;
  } else {
    const auto window = SteadyClock::now();
    do {
      if (!attempt("distributed run")) return;
    } while (seconds_since(window) < args.seconds);
  }
  const double rss = peak_rss_mb();
  const DistributedRun& first = runs.front();
  print_trajectory("distributed", first.hf, first.theta);

  // ---- correctness: serial over the same shards must match bitwise ----
  ++outcome.attempted;
  SerialRun serial;
  try {
    serial = run_serial(config, shards);
    print_trajectory("serial     ", serial.hf, serial.theta);
    std::printf("  serial baseline %.2f s; per-shard compute s "
                "(gradient / GN products / held-out / other):",
                serial.wall_s);
    for (const ShardTimes& t : serial.shard_times) {
      std::printf("  %.2f/%.2f/%.2f/%.2f", t.gradient_s, t.product_s,
                  t.heldout_s, t.other_s);
    }
    std::printf("\n");
    if (!same_trajectory(first.hf, first.theta, serial.hf, serial.theta)) {
      outcome.fail("serial != distributed trajectory");
    }
  } catch (const std::exception& e) {
    outcome.fail(std::string("serial run threw: ") + e.what());
  }

  // Full-data gradient round trips (master bcast -> every worker's shard ->
  // 1 MB reduce), pooled over every run in the window.
  std::vector<double> ttt, fps, distribute_s, gradient_ms;
  for (const DistributedRun& r : runs) {
    const RunTimes t = times_of(r, train_frames, spec.ce_target);
    ttt.push_back(t.time_to_target_s);
    fps.push_back(t.frames_per_s);
    distribute_s.push_back(r.distribute_s);
    for (const double s : r.prims.gradient_seconds) gradient_ms.push_back(s * 1e3);
  }
  const double tail_q = supported_tail_quantile(gradient_ms.size());
  std::printf("  %zu distributed run(s); %zu gradient round trips, tail = "
              "p%.1f\n",
              runs.size(), gradient_ms.size(), tail_q * 100);

  if (!args.trace) {
    sheet.set("time_to_target_s", median(ttt));
    sheet.set("throughput_per_s", median(fps));
    sheet.set("setup_s", median(build_s) + median(distribute_s));
    sheet.set("peak_rss_mb", rss);
    // Reported, not gated (see NOTES.md).
    sheet.set("gradient_round_trip_p50_ms", percentile(gradient_ms, 0.5));
    sheet.set("gradient_round_trip_tail_ms", percentile(gradient_ms, tail_q));
    sheet.set("final_heldout_ce", first.hf.final_heldout_loss);
    sheet.set("failed_frac", static_cast<double>(outcome.failed) /
                                 static_cast<double>(outcome.attempted));
    return;
  }

  // ---- per-layer metrics from the traced run ----
  const DistributedRun& traced = runs.back();
  const PrimTotals& p = traced.prims;
  const RunTimes t = times_of(traced, train_frames, spec.ce_target);
  sheet.set("hf.gradient_s", p.seconds_of(Prim::kGradient));
  sheet.set("hf.gradient_calls",
            static_cast<double>(p.calls_of(Prim::kGradient)));
  sheet.set("hf.gn_product_s", p.seconds_of(Prim::kCurvatureProduct));
  sheet.set("hf.gn_product_calls",
            static_cast<double>(p.calls_of(Prim::kCurvatureProduct)));
  sheet.set("hf.gn_products_per_s",
            static_cast<double>(p.calls_of(Prim::kCurvatureProduct)) /
                p.seconds_of(Prim::kCurvatureProduct));
  sheet.set("hf.prepare_curvature_s", p.seconds_of(Prim::kPrepareCurvature));
  sheet.set("hf.heldout_s", p.seconds_of(Prim::kHeldout));
  sheet.set("hf.heldout_calls", static_cast<double>(p.calls_of(Prim::kHeldout)));
  sheet.set("hf.set_params_s", p.seconds_of(Prim::kSetParams));
  sheet.set("hf.optimizer_self_s", traced.wall_s - p.sum_seconds());
  sheet.set("hf.cg_iters", static_cast<double>(total_cg_iters(traced.hf)));
  sheet.set("hf.outer_iters_to_target", static_cast<double>(t.iters_to_target));
  sheet.set("hf.final_heldout_ce", traced.hf.final_heldout_loss);

  double busy_sum = 0.0, grad_sum = 0.0, grad_max = 0.0;
  for (const hf::PhaseStats& w : traced.worker_phases) {
    busy_sum += w.total_seconds() - w.seconds(hf::Phase::kLoadData) -
                w.seconds(hf::Phase::kShutdown);
    const double g = w.seconds(hf::Phase::kGradient);
    grad_sum += g;
    grad_max = std::max(grad_max, g);
  }
  const double nworkers = static_cast<double>(traced.worker_phases.size());
  sheet.set("hf.worker.busy_frac", busy_sum / nworkers / traced.wall_s);
  sheet.set("hf.worker.gradient_imbalance", grad_max / (grad_sum / nworkers));

  double shard_sum = 0.0, shard_max = 0.0;
  for (const ShardTimes& s : serial.shard_times) {
    shard_sum += s.gradient_s;
    shard_max = std::max(shard_max, s.gradient_s);
  }
  sheet.set("hf.serial.train_s", serial.wall_s);
  sheet.set("hf.serial.shard_gradient_imbalance",
            shard_sum > 0.0
                ? shard_max / (shard_sum / static_cast<double>(
                                               serial.shard_times.size()))
                : 0.0);

  const NnRates nn = measure_nn(shards.net, spec.nn_batch, args.seed, false);
  sheet.set("nn.forward_gflops", nn.forward_gflops);
  sheet.set("nn.backprop_gflops", nn.backprop_gflops);
  sheet.set("nn.gn_product_gflops", nn.gn_product_gflops);

  const RollupTotals roll = print_train_rollup(traced);
  sheet.set("blas.gemm_s", roll.gemm_s);
  sheet.set("blas.gemm_calls", static_cast<double>(roll.gemm_calls));
  sheet.set("blas.gemm_share",
            roll.worker_busy_s > 0.0 ? roll.gemm_s / roll.worker_busy_s : 0.0);

  const simmpi::CommStats& c = traced.comm_total;
  const simmpi::OpStats bc = c.op(simmpi::CollOp::kBcast);
  const simmpi::OpStats rd = c.op(simmpi::CollOp::kReduce);
  std::size_t wire = 0;
  for (std::size_t o = 0; o < simmpi::kNumCollOps; ++o) {
    wire += c.op(static_cast<simmpi::CollOp>(o)).wire_bytes;
  }
  sheet.set("simmpi.bcast_bytes", static_cast<double>(bc.bytes));
  sheet.set("simmpi.bcast_calls", static_cast<double>(bc.calls));
  sheet.set("simmpi.bcast_s", bc.seconds);
  sheet.set("simmpi.reduce_bytes", static_cast<double>(rd.bytes));
  sheet.set("simmpi.reduce_calls", static_cast<double>(rd.calls));
  sheet.set("simmpi.reduce_s", rd.seconds);
  sheet.set("simmpi.wire_bytes", static_cast<double>(wire));
  sheet.set("simmpi.p2p_bytes", static_cast<double>(c.p2p_bytes()));
  sheet.set("simmpi.master_blocked_s", traced.comm_master.collective_seconds() +
                                           traced.comm_master.p2p_seconds());

  sheet.set("speech.build_shards_s", median(build_s));
  sheet.set("speech.distribute_s", traced.distribute_s);
  sheet.set("speech.train_frames", static_cast<double>(train_frames));

  for (const char* name :
       {"serve.due_p50_us", "serve.due_p99_us", "serve.queue_wait_us_p50",
        "serve.queue_wait_us_p99",
        "serve.service_us_p50", "serve.service_us_p99", "serve.gen_lag_us_p99",
        "serve.rejected_overloaded", "serve.rejected_deadline"}) {
    sheet.set(name, 0.0);  // serving is not exercised by training
  }

  const RunTimes untraced = times_of(runs.front(), train_frames, spec.ce_target);
  sheet.set("obs.trace_overhead_frac",
            t.time_to_target_s / untraced.time_to_target_s - 1.0);
}

}  // namespace perfbench
