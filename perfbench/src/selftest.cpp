// Self-tests of the benchmark itself:
//  * metric names are legal and unique;
//  * the analytic FLOP formulas match a hand count on tiny networks;
//  * the percentile helpers pick the ranks they document;
//  * a run through the timing decorators is bitwise identical to the
//    undecorated hf::train_distributed / hf::train_serial on a tiny config,
//    so wrapping does not change the program being measured.
#include <cstdio>
#include <set>
#include <string>

#include "flops.h"
#include "hf/trainer.h"
#include "util/config.h"
#include "workloads.h"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void metric_names() {
  std::set<std::string> seen;
  bool legal = true;
  bool unique = true;
  for (const auto* defs : {&perfbench::end_to_end_metrics(),
                           &perfbench::per_layer_metrics()}) {
    for (const perfbench::MetricDef& d : *defs) {
      legal = legal && perfbench::valid_metric_name(d.name);
      unique = seen.insert(d.name).second && unique;
    }
  }
  check(legal, "metric names match [A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  check(unique, "metric names are unique across both lists");
  check(!perfbench::valid_metric_name("bad name") &&
            !perfbench::valid_metric_name(".lead") &&
            !perfbench::valid_metric_name(""),
        "illegal names are rejected");
}

void flop_formulas() {
  using bgqhf::nn::Network;
  // 3 -> 4 -> 2, 5 frames: forward 2*5*(3*4 + 4*2) = 200; backprop adds the
  // dA GEMM of layer 1 only: 200 + 2*5*(4*2) = 280; GN product doubles it.
  const Network a = Network::mlp(3, {4}, 2);
  check(perfbench::forward_flops(a, 5) == 200.0, "forward flops, 3-4-2 x5");
  check(perfbench::backprop_flops(a, 5) == 280.0, "backprop flops, 3-4-2 x5");
  check(perfbench::gn_product_flops(a, 5) == 560.0, "GN flops, 3-4-2 x5");
  // 2 -> 3 -> 3 -> 2, 1 frame: MACs 6 + 9 + 6 = 21, layers >= 1: 15.
  const Network b = Network::mlp(2, {3, 3}, 2);
  check(perfbench::forward_flops(b, 1) == 42.0, "forward flops, 2-3-3-2 x1");
  check(perfbench::backprop_flops(b, 1) == 72.0, "backprop flops, 2-3-3-2 x1");
  check(perfbench::gn_product_flops(b, 1) == 144.0, "GN flops, 2-3-3-2 x1");
}

void statistics() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  check(perfbench::percentile(v, 0.99) == 99.0 &&
            perfbench::percentile(v, 0.5) == 50.0 &&
            perfbench::percentile(v, 1.0) == 100.0,
        "nearest-rank percentile");
  check(perfbench::median({3.0, 1.0, 2.0, 10.0}) == 2.5, "median");
  check(perfbench::supported_tail_quantile(100) == 0.9 &&
            perfbench::supported_tail_quantile(1000) == 0.99 &&
            perfbench::supported_tail_quantile(20000) == 0.999 &&
            perfbench::supported_tail_quantile(30) == 0.666 &&
            perfbench::supported_tail_quantile(5) == 0.5,
        "tail percentile keeps ten samples beyond it");
}

void decorators_are_transparent() {
  const perfbench::TrainSpec tiny{"tiny", 0.004, 1.0, {24}, 3, 0.1, 1.0, 10.0, 8};
  const bgqhf::hf::TrainerConfig config = perfbench::make_train_config(tiny, 3);
  const bgqhf::hf::Shards shards = bgqhf::hf::build_shards(config);

  const perfbench::DistributedRun timed =
      perfbench::run_distributed(config, shards);
  const bgqhf::hf::TrainOutcome bare = bgqhf::hf::train_distributed(config);
  check(perfbench::same_trajectory(timed.hf, timed.theta, bare.hf, bare.theta),
        "TimedCompute run == hf::train_distributed, bitwise");
  check(timed.iteration_end_s.size() == timed.hf.iterations.size(),
        "one iteration end per outer iteration");
  bool increasing = true;
  for (std::size_t i = 1; i < timed.iteration_end_s.size(); ++i) {
    increasing = increasing &&
                 timed.iteration_end_s[i] > timed.iteration_end_s[i - 1];
  }
  check(increasing && !timed.iteration_end_s.empty() &&
            timed.iteration_end_s.back() <= timed.wall_s,
        "iteration ends increase and fall within the optimizer wall time");
  check(timed.prims.calls_of(perfbench::Prim::kGradient) ==
            timed.hf.iterations.size(),
        "one gradient call per outer iteration");

  const perfbench::SerialRun serial = perfbench::run_serial(config, shards);
  const bgqhf::hf::TrainOutcome bare_serial = bgqhf::hf::train_serial(config);
  check(perfbench::same_trajectory(serial.hf, serial.theta, bare_serial.hf,
                                   bare_serial.theta),
        "TimedWorkload run == hf::train_serial, bitwise");
  check(perfbench::same_trajectory(serial.hf, serial.theta, timed.hf,
                                   timed.theta),
        "serial == distributed, bitwise");
}

}  // namespace

int main() {
  bgqhf::util::RuntimeEnv::set_for_tests(bgqhf::util::RuntimeEnv{});
  metric_names();
  flop_formulas();
  statistics();
  decorators_are_transparent();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
