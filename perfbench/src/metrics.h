// Metric sheet, statistics helpers and the one-line JSON result.
//
// Every workload fills one MetricSheet. The end-to-end names (untraced run)
// and the per-layer names (traced run) are fixed lists, shared by all three
// workloads, so the last stdout line always carries the same keys; a layer a
// workload bypasses reports 0 for its counts and times.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed with --trace 0 (BENCHMARK.json end_to_end).
const std::vector<MetricDef>& end_to_end_metrics();
/// Per-layer metrics, printed with --trace 1 (BENCHMARK.json per_layer).
const std::vector<MetricDef>& per_layer_metrics();

/// True when `name` is a legal metric name: [A-Za-z0-9_.-]+, starting with
/// a letter or digit, at most 64 characters.
bool valid_metric_name(const std::string& name);

class MetricSheet {
 public:
  void set(const std::string& name, double value);
  bool has(const std::string& name) const;
  double get(const std::string& name) const;

  /// Human-readable "name = value unit" lines for every metric set so far
  /// (including informational ones not in either fixed list).
  std::string report() const;

  /// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":
  /// {..}} holding exactly the metrics of `defs`. Throws std::logic_error
  /// if any of them was never set.
  std::string result_json(const std::vector<MetricDef>& defs, bool correct,
                          std::uint64_t attempted,
                          std::uint64_t failed) const;

 private:
  std::map<std::string, double> values_;
};

double median(std::vector<double> v);
/// Nearest-rank percentile (q in [0,1]) of an unsorted sample; 0 if empty.
double percentile(std::vector<double> v, double q);
/// Highest quantile (in thousandths, at most 0.999, at least 0.5) that has
/// at least ten samples beyond it.
double supported_tail_quantile(std::size_t samples);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

}  // namespace perfbench
