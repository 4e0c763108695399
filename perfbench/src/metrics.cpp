#include "metrics.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"time_to_target_s", "s"},
      {"throughput_per_s", "1/s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      // hf: master-side HfCompute decorator, HfResult counts, PhaseStats.
      {"hf.gradient_s", "s"},
      {"hf.gradient_calls", "count"},
      {"hf.gn_product_s", "s"},
      {"hf.gn_product_calls", "count"},
      {"hf.gn_products_per_s", "1/s"},
      {"hf.prepare_curvature_s", "s"},
      {"hf.heldout_s", "s"},
      {"hf.heldout_calls", "count"},
      {"hf.set_params_s", "s"},
      {"hf.optimizer_self_s", "s"},
      {"hf.cg_iters", "count"},
      {"hf.outer_iters_to_target", "count"},
      {"hf.final_heldout_ce", "nats"},
      {"hf.worker.busy_frac", "fraction"},
      {"hf.worker.gradient_imbalance", "ratio"},
      {"hf.serial.train_s", "s"},
      {"hf.serial.shard_gradient_imbalance", "ratio"},
      // nn: direct calls on one batch of the workload's shape.
      {"nn.forward_gflops", "GFLOP/s"},
      {"nn.backprop_gflops", "GFLOP/s"},
      {"nn.gn_product_gflops", "GFLOP/s"},
      // blas: the library's own gemm spans in the traced run.
      {"blas.gemm_s", "s"},
      {"blas.gemm_calls", "count"},
      {"blas.gemm_share", "fraction"},
      // simmpi: World::stats after the traced training run.
      {"simmpi.bcast_bytes", "bytes"},
      {"simmpi.bcast_calls", "count"},
      {"simmpi.bcast_s", "s"},
      {"simmpi.reduce_bytes", "bytes"},
      {"simmpi.reduce_calls", "count"},
      {"simmpi.reduce_s", "s"},
      {"simmpi.wire_bytes", "bytes"},
      {"simmpi.p2p_bytes", "bytes"},
      {"simmpi.master_blocked_s", "s"},
      // speech: data staging.
      {"speech.build_shards_s", "s"},
      {"speech.distribute_s", "s"},
      {"speech.train_frames", "count"},
      // serve: per-request Response timings and the benchmark's own clock.
      {"serve.due_p50_us", "us"},
      {"serve.due_p99_us", "us"},
      {"serve.queue_wait_us_p50", "us"},
      {"serve.queue_wait_us_p99", "us"},
      {"serve.service_us_p50", "us"},
      {"serve.service_us_p99", "us"},
      {"serve.gen_lag_us_p99", "us"},
      {"serve.rejected_overloaded", "count"},
      {"serve.rejected_deadline", "count"},
      // obs: traced vs untraced headline latency.
      {"obs.trace_overhead_frac", "fraction"},
  };
  return defs;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void MetricSheet::set(const std::string& name, double value) {
  values_[name] = value;
}

bool MetricSheet::has(const std::string& name) const {
  return values_.count(name) != 0;
}

double MetricSheet::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::logic_error("metric never set: " + name);
  }
  return it->second;
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) {
    throw std::logic_error("non-finite metric value");
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g",
                std::numeric_limits<double>::max_digits10, v);
  return buf;
}

const char* unit_of(const std::string& name) {
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& d : *defs) {
      if (name == d.name) return d.unit;
    }
  }
  return "";
}

}  // namespace

std::string MetricSheet::report() const {
  std::ostringstream os;
  for (const auto& [name, value] : values_) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "  %-36s %14.6g %s\n", name.c_str(), value,
                  unit_of(name));
    os << buf;
  }
  return os.str();
}

std::string MetricSheet::result_json(const std::vector<MetricDef>& defs,
                                     bool correct, std::uint64_t attempted,
                                     std::uint64_t failed) const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    if (!first) os << ", ";
    first = false;
    os << '"' << d.name << "\": {\"value\": " << number(get(d.name))
       << ", \"unit\": \"" << d.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // The epsilon keeps q * n from rounding up past an exact integer rank.
  const double rank = std::ceil(q * static_cast<double>(v.size()) - 1e-9);
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double supported_tail_quantile(std::size_t samples) {
  // The largest q, in thousandths and at most 0.999, whose nearest-rank
  // quantile leaves ten samples beyond it: ceil(q n) <= n - 10.
  for (std::size_t per_mille = 999; per_mille > 500; --per_mille) {
    const std::size_t rank = (samples * per_mille + 999) / 1000;
    if (rank + 10 <= samples) return static_cast<double>(per_mille) / 1000.0;
  }
  return 0.5;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

}  // namespace perfbench
