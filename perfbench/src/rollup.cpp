// Traced roll-ups built from obs::collect_trace().
//
// Training: the master's wall time splits, per outer iteration, into the
// benchmark's HfCompute primitive spans plus the optimizer's own time (the
// remainder, so nothing is left over); the workers' busy time splits, per
// phase span, into the library's gemm / collective / other child spans plus
// an explicit "unattributed" row for phase time no child span covers.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "hf/phase_stats.h"
#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {

namespace obs = bgqhf::obs;

namespace {

constexpr double kNs = 1e-9;

bool is(const char* a, const char* b) { return std::strcmp(a, b) == 0; }

bool contains(const obs::TraceEvent& outer, const obs::TraceEvent& inner) {
  return inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns;
}

enum Bucket { kGemm = 0, kCollective, kOther, kUnattributed, kNumBuckets };
const char* const kBucketNames[kNumBuckets] = {"gemm", "collective", "other",
                                               "unattributed"};

Bucket bucket_of(const obs::TraceEvent& e) {
  if (is(e.category, "gemm")) return kGemm;
  if (is(e.category, "collective")) return kCollective;
  return kOther;
}

/// Split `parent` into the top-level child spans recorded by the same
/// thread inside it; returns seconds per bucket (unattributed = the rest).
/// A child of the parent's own category (serve/score inside
/// serve/score_batch) is split the same way instead of counted whole.
/// `thread_events` holds that thread's events sorted by start time.
std::array<double, kNumBuckets> split_span(
    const obs::TraceEvent& parent,
    const std::vector<const obs::TraceEvent*>& thread_events,
    std::size_t* gemm_calls) {
  std::array<double, kNumBuckets> out{};
  std::int64_t covered_until = parent.start_ns;
  auto it = std::lower_bound(
      thread_events.begin(), thread_events.end(), parent.start_ns,
      [](const obs::TraceEvent* e, std::int64_t t) { return e->start_ns < t; });
  double covered = 0.0;
  for (; it != thread_events.end() && (*it)->start_ns < parent.end_ns; ++it) {
    const obs::TraceEvent& child = **it;
    if (&child == &parent || !contains(parent, child)) continue;
    if (child.start_ns < covered_until) continue;  // nested in a child
    covered += static_cast<double>(child.end_ns - child.start_ns) * kNs;
    covered_until = child.end_ns;
    if (is(child.category, parent.category)) {
      const auto inner = split_span(child, thread_events, gemm_calls);
      for (int k = 0; k < kNumBuckets; ++k) out[k] += inner[k];
      continue;
    }
    const Bucket b = bucket_of(child);
    out[b] += static_cast<double>(child.end_ns - child.start_ns) * kNs;
    if (b == kGemm && gemm_calls != nullptr) ++*gemm_calls;
  }
  out[kUnattributed] +=
      static_cast<double>(parent.end_ns - parent.start_ns) * kNs - covered;
  return out;
}

bool is_worker_phase(const obs::TraceEvent& e) {
  if (e.rank < 1 || !is(e.name, "worker")) return false;
  for (int p = 0; p < static_cast<int>(bgqhf::hf::Phase::kCount); ++p) {
    if (is(e.category, bgqhf::hf::phase_label(static_cast<bgqhf::hf::Phase>(p)))) {
      return true;
    }
  }
  return false;
}

using ThreadKey = std::pair<int, std::uint32_t>;

std::map<ThreadKey, std::vector<const obs::TraceEvent*>> by_thread(
    const std::vector<obs::TraceEvent>& events) {
  std::map<ThreadKey, std::vector<const obs::TraceEvent*>> m;
  for (const obs::TraceEvent& e : events) m[{e.rank, e.tid}].push_back(&e);
  for (auto& [key, v] : m) {
    std::stable_sort(v.begin(), v.end(),
                     [](const obs::TraceEvent* a, const obs::TraceEvent* b) {
                       return a->start_ns < b->start_ns;
                     });
  }
  return m;
}

}  // namespace

RollupTotals print_train_rollup(const DistributedRun& run) {
  const std::vector<obs::TraceEvent> events = obs::collect_trace();
  const auto threads = by_thread(events);

  std::vector<const obs::TraceEvent*> iters;
  std::vector<const obs::TraceEvent*> prims;
  std::vector<const obs::TraceEvent*> phases;
  for (const obs::TraceEvent& e : events) {
    if (e.rank == 0 && is(e.category, "hf") && is(e.name, "outer_iteration")) {
      iters.push_back(&e);
    } else if (e.rank == 0 && is(e.category, "perfbench")) {
      prims.push_back(&e);
    } else if (is_worker_phase(e)) {
      phases.push_back(&e);
    }
  }

  // ---- master: iteration -> primitive + optimizer self ----
  std::printf("\n  traced roll-up, master (rank 0), seconds\n");
  std::printf("  %-6s %8s", "iter", "wall");
  for (std::size_t p = 0; p < kNumPrims; ++p) {
    std::printf(" %17s", prim_name(static_cast<Prim>(p)));
  }
  std::printf(" %14s %9s %9s %9s %9s\n", "optimizer_self", "w.busy", "w.gemm",
              "w.coll", "w.unattr");
  std::array<double, kNumPrims> prim_in_iters{};
  double iter_wall = 0.0;
  RollupTotals totals;
  std::array<double, kNumBuckets> worker_total{};
  std::map<std::string, std::array<double, kNumBuckets + 1>> by_phase;

  auto worker_split = [&](const obs::TraceEvent& ph) {
    const auto& te = threads.at({ph.rank, ph.tid});
    return split_span(ph, te, nullptr);
  };

  for (std::size_t i = 0; i < iters.size(); ++i) {
    const obs::TraceEvent& it = *iters[i];
    const double wall = static_cast<double>(it.end_ns - it.start_ns) * kNs;
    std::array<double, kNumPrims> s{};
    std::array<std::size_t, kNumPrims> n{};
    for (const obs::TraceEvent* p : prims) {
      if (!contains(it, *p)) continue;
      for (std::size_t k = 0; k < kNumPrims; ++k) {
        if (is(p->name, prim_name(static_cast<Prim>(k)))) {
          s[k] += static_cast<double>(p->end_ns - p->start_ns) * kNs;
          ++n[k];
        }
      }
    }
    double busy = 0.0;
    std::array<double, kNumBuckets> wb{};
    for (const obs::TraceEvent* ph : phases) {
      if (ph->start_ns < it.start_ns || ph->start_ns >= it.end_ns) continue;
      busy += static_cast<double>(ph->end_ns - ph->start_ns) * kNs;
      const auto b = worker_split(*ph);
      for (int k = 0; k < kNumBuckets; ++k) wb[k] += b[k];
    }
    double sum = 0.0;
    std::printf("  %-6zu %8.3f", i + 1, wall);
    for (std::size_t k = 0; k < kNumPrims; ++k) {
      char cell[32];
      std::snprintf(cell, sizeof cell, "%.3f (%zu)", s[k], n[k]);
      std::printf(" %17s", cell);
      sum += s[k];
      prim_in_iters[k] += s[k];
    }
    std::printf(" %14.3f %9.3f %9.3f %9.3f %9.3f\n", wall - sum, busy,
                wb[kGemm], wb[kCollective], wb[kUnattributed]);
    iter_wall += wall;
  }

  const PrimTotals& pt = run.prims;
  double outside = run.wall_s - iter_wall;
  std::printf("  %-6s %8.3f", "outside", outside);
  double outside_prims = 0.0;
  for (std::size_t k = 0; k < kNumPrims; ++k) {
    const double s = pt.seconds[k] - prim_in_iters[k];
    std::printf(" %17.3f", s);
    outside_prims += s;
  }
  std::printf(" %14.3f\n", outside - outside_prims);
  std::printf("  %-6s %8.3f", "total", run.wall_s);
  for (std::size_t k = 0; k < kNumPrims; ++k) {
    std::printf(" %17.3f", pt.seconds[k]);
  }
  const double self = run.wall_s - pt.sum_seconds();
  std::printf(" %14.3f\n", self);
  std::printf("  master unattributed = wall - primitives - optimizer_self = "
              "%.6f s (optimizer_self is the remainder by definition)\n",
              run.wall_s - pt.sum_seconds() - self);

  // ---- workers: phase -> gemm / collective / other / unattributed ----
  for (const obs::TraceEvent* ph : phases) {
    const bool counted = !is(ph->category, "load_data") &&
                         !is(ph->category, "shutdown");
    const auto& te = threads.at({ph->rank, ph->tid});
    std::size_t calls = 0;
    const auto b = split_span(*ph, te, &calls);
    auto& row = by_phase[ph->category];
    const double d = static_cast<double>(ph->end_ns - ph->start_ns) * kNs;
    row[kNumBuckets] += d;
    for (int k = 0; k < kNumBuckets; ++k) row[k] += b[k];
    if (counted) {
      totals.worker_busy_s += d;
      totals.gemm_s += b[kGemm];
      totals.gemm_calls += calls;
      for (int k = 0; k < kNumBuckets; ++k) worker_total[k] += b[k];
    }
  }
  std::printf("\n  traced roll-up, workers (ranks 1..%zu summed), seconds\n",
              run.worker_phases.size());
  std::printf("  %-18s %9s", "phase", "busy");
  for (const char* b : kBucketNames) std::printf(" %12s", b);
  std::printf("\n");
  for (const auto& [name, row] : by_phase) {
    std::printf("  %-18s %9.3f", name.c_str(), row[kNumBuckets]);
    for (int k = 0; k < kNumBuckets; ++k) std::printf(" %12.3f", row[k]);
    std::printf("\n");
  }
  std::printf("  %-18s %9.3f", "busy (excl. load)", totals.worker_busy_s);
  for (int k = 0; k < kNumBuckets; ++k) std::printf(" %12.3f", worker_total[k]);
  std::printf("\n  unattributed share of worker busy time: %.1f %%; gemm calls "
              "%zu; trace events dropped %zu\n",
              totals.worker_busy_s > 0.0
                  ? 100.0 * worker_total[kUnattributed] / totals.worker_busy_s
                  : 0.0,
              totals.gemm_calls, obs::trace_dropped());
  return totals;
}

RollupTotals print_serve_rollup() {
  const std::vector<obs::TraceEvent> events = obs::collect_trace();
  const auto threads = by_thread(events);
  RollupTotals totals;
  std::array<double, kNumBuckets> sum{};
  std::size_t batches = 0;
  double batch_form_s = 0.0;
  for (const obs::TraceEvent& e : events) {
    if (!is(e.category, "serve")) continue;
    if (is(e.name, "batch_form")) {
      batch_form_s += static_cast<double>(e.end_ns - e.start_ns) * kNs;
    }
    if (!is(e.name, "score_batch")) continue;
    ++batches;
    totals.worker_busy_s += static_cast<double>(e.end_ns - e.start_ns) * kNs;
    const auto b = split_span(e, threads.at({e.rank, e.tid}), &totals.gemm_calls);
    for (int k = 0; k < kNumBuckets; ++k) sum[k] += b[k];
  }
  totals.gemm_s = sum[kGemm];
  std::printf("\n  traced roll-up, serving workers, seconds\n");
  std::printf("  %-14s %9s", "span", "total");
  for (const char* b : kBucketNames) std::printf(" %12s", b);
  std::printf("\n  %-14s %9.3f", "score_batch", totals.worker_busy_s);
  for (int k = 0; k < kNumBuckets; ++k) std::printf(" %12.3f", sum[k]);
  std::printf("\n  batches %zu, batch_form %.3f s, gemm calls %zu, trace "
              "events dropped %zu\n",
              batches, batch_form_s, totals.gemm_calls, obs::trace_dropped());
  return totals;
}

}  // namespace perfbench
