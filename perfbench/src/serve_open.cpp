// serve_open: open-loop Poisson scoring through serve::Engine.
//
// The benchmark owns the clock: every request is timed from the moment it
// was due (its scheduled arrival), not from when the engine enqueued it, so
// a stalled generator or a full queue shows up as latency, and a refused
// request counts as missing the latency limit. Inputs come from
// serve::generate_trace (seeded); the replay loop is the benchmark's own.
//
// Latency percentiles are taken per window of kWindow consecutive requests
// and the median over windows is reported: p99 of 1000 requests keeps ten
// samples beyond it, and the median over windows keeps one multi-ms stall of
// the host (a descheduled virtual CPU) from deciding the whole run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <vector>

#include "nn/network.h"
#include "obs/trace.h"
#include "serve/engine.h"
#include "serve/error.h"
#include "serve/loadgen.h"
#include "serve/model_runtime.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace serve = bgqhf::serve;
namespace blas = bgqhf::blas;

namespace {

constexpr std::size_t kInputDim = 440;  // 40 features x 11 frames
constexpr std::size_t kStates = 16;
constexpr std::size_t kMinFrames = 1;
constexpr std::size_t kMaxFrames = 8;
constexpr double kFixedRate = 8000.0;    // requests/s, below saturation
constexpr double kLadderStep = 1.25;      // geometric rung spacing
constexpr int kLadderRungs = 16;
constexpr int kLadderRefinements = 3;  // bisections after the first miss
constexpr double kLatencyLimitUs = 5000.0;  // on window p99, from due time
// Generous admission, so a rung past capacity shows up as latency over the
// limit rather than as refused requests: a rung at most 25 % over capacity
// queues well under kQueueCapacity requests, and a full queue drains well
// within the deadline at any rate the ladder reaches.
constexpr std::size_t kQueueCapacity = 8192;
constexpr std::uint64_t kDeadlineUs = 2000000;
constexpr std::size_t kWindow = 1000;  // requests per percentile window
constexpr std::size_t kBurstRequests = 8000;
constexpr std::size_t kBurstWindow = 512;  // outstanding offline requests
constexpr double kRefusedUs = 1e9;  // latency charged to a refused request

serve::ServeOptions engine_options() {
  serve::ServeOptions o;
  o.max_batch_frames = 128;
  o.batch_timeout_us = 1000;
  o.queue_capacity = kQueueCapacity;
  o.threads = 2;
  return o;
}

bgqhf::nn::Network make_network(std::uint64_t seed) {
  bgqhf::nn::Network net =
      bgqhf::nn::Network::mlp(kInputDim, {256, 256, 256}, kStates);
  bgqhf::util::Rng rng(0x5e7eULL + seed);
  net.init_glorot(rng);
  return net;
}

std::vector<serve::TimedRequest> make_trace(double rate, std::size_t n,
                                            std::uint64_t seed) {
  serve::LoadGenOptions o;
  o.num_requests = n;
  o.rate_rps = rate;
  o.min_frames = kMinFrames;
  o.max_frames = kMaxFrames;
  o.seed = seed;
  return serve::generate_trace(o, kInputDim);
}

/// One replayed phase: per-request outcomes, in trace order.
struct PhaseResult {
  std::uint64_t trace_seed = 0;
  double rate = 0.0;  // 0 = burst
  std::size_t n = 0;
  std::vector<double> latency_us;  // from due; kRefusedUs when refused
  std::vector<double> gen_lag_us;
  std::vector<double> queue_wait_us;  // completed requests only
  std::vector<double> service_us;     // total - queue wait
  std::vector<blas::Matrix<float>> logits;  // empty = not completed
  std::size_t rejected_overloaded = 0;
  std::size_t rejected_deadline = 0;
  std::size_t other_failed = 0;
  double wall_s = 0.0;

  std::size_t refused() const {
    return rejected_overloaded + rejected_deadline + other_failed;
  }
  std::size_t within(double limit_us) const {
    return static_cast<std::size_t>(
        std::count_if(latency_us.begin(), latency_us.end(),
                      [&](double v) { return v <= limit_us; }));
  }
};

/// Median over consecutive kWindow-request windows of each window's p50 and
/// p99, plus the p50 of the last window (a growing backlog shows there).
struct WindowStats {
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double last_p50_us = 0.0;
  std::size_t windows = 0;
};

WindowStats window_stats(const std::vector<double>& latency_us) {
  WindowStats w;
  w.windows = std::max<std::size_t>(1, latency_us.size() / kWindow);
  std::vector<double> p50s, p90s, p99s;
  for (std::size_t k = 0; k < w.windows; ++k) {
    const auto first = latency_us.begin() + static_cast<long>(k * kWindow);
    const auto last = k + 1 == w.windows ? latency_us.end() : first + kWindow;
    const std::vector<double> window(first, last);
    p50s.push_back(percentile(window, 0.5));
    p90s.push_back(percentile(window, 0.9));
    p99s.push_back(percentile(window, 0.99));
  }
  w.p50_us = median(p50s);
  w.p90_us = median(p90s);
  w.p99_us = median(p99s);
  w.last_p50_us = p50s.back();
  return w;
}

/// Spin to `due`: a sleeping generator on a virtual machine wakes up
/// milliseconds late, which would charge the host's scheduler to the
/// engine. The remaining lateness is reported as generator lag.
void wait_until(SteadyClock::time_point due) {
  while (SteadyClock::now() < due) {
  }
}

PhaseResult replay_open(serve::Engine& engine, double rate, std::size_t n,
                        std::uint64_t seed) {
  PhaseResult r;
  r.trace_seed = seed;
  r.rate = rate;
  r.n = n;
  std::vector<serve::TimedRequest> trace = make_trace(rate, n, seed);
  std::vector<std::future<serve::Response>> futures(n);
  r.gen_lag_us.assign(n, 0.0);
  r.latency_us.assign(n, kRefusedUs);
  r.logits.resize(n);
  const auto start = SteadyClock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = 0; i < n; ++i) {
    const auto due =
        start + std::chrono::duration_cast<SteadyClock::duration>(
                    std::chrono::duration<double>(trace[i].arrival_s));
    wait_until(due);
    r.gen_lag_us[i] =
        std::chrono::duration<double, std::micro>(SteadyClock::now() - due)
            .count();
    try {
      futures[i] = engine.submit(std::move(trace[i].features),
                                 std::chrono::microseconds(kDeadlineUs));
    } catch (const serve::Overloaded&) {
      ++r.rejected_overloaded;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!futures[i].valid()) continue;
    try {
      serve::Response resp = futures[i].get();
      // Enqueue is stamped inside submit(), right after the lag was read;
      // the gap is the admission call itself.
      r.latency_us[i] = r.gen_lag_us[i] + resp.total_us;
      r.queue_wait_us.push_back(resp.queue_wait_us);
      r.service_us.push_back(resp.total_us - resp.queue_wait_us);
      r.logits[i] = std::move(resp.logits);
    } catch (const serve::DeadlineExceeded&) {
      ++r.rejected_deadline;
    } catch (...) {
      ++r.other_failed;
    }
  }
  r.wall_s = std::chrono::duration<double>(SteadyClock::now() - start).count();
  return r;
}

/// Offline burst: the whole trace is scored as fast as the engine takes it
/// (at most kBurstWindow outstanding); wall_s runs to the last response.
PhaseResult replay_burst(serve::Engine& engine, std::uint64_t seed) {
  PhaseResult r;
  r.trace_seed = seed;
  r.n = kBurstRequests;
  std::vector<serve::TimedRequest> trace = make_trace(0.0, r.n, seed);
  r.logits.resize(r.n);
  std::deque<std::pair<std::size_t, std::future<serve::Response>>> inflight;
  auto retire = [&] {
    auto& [i, fut] = inflight.front();
    try {
      r.logits[i] = fut.get().logits;
    } catch (...) {
      ++r.other_failed;
    }
    inflight.pop_front();
  };
  const auto start = SteadyClock::now();
  for (std::size_t i = 0; i < r.n; ++i) {
    while (inflight.size() >= kBurstWindow) retire();
    try {
      inflight.emplace_back(i, engine.submit(std::move(trace[i].features)));
    } catch (const serve::Overloaded&) {
      ++r.rejected_overloaded;
    }
  }
  while (!inflight.empty()) retire();
  r.wall_s = std::chrono::duration<double>(SteadyClock::now() - start).count();
  return r;
}

/// Every completed response must equal ModelRuntime::score on the same
/// features, bitwise. Each phase's trace is regenerated from its seed and
/// scored in large batches (rows are scored independently, so a batch of N
/// requests is bitwise N single requests).
std::size_t count_mismatches(const serve::ModelRuntime& model,
                             const std::vector<PhaseResult>& phases) {
  constexpr std::size_t kChunk = 4096;  // requests per reference batch
  bgqhf::util::ThreadPool pool(3);
  std::size_t mismatches = 0;
  for (const PhaseResult& p : phases) {
    const std::vector<serve::TimedRequest> trace =
        make_trace(p.rate, p.n, p.trace_seed);
    for (std::size_t first = 0; first < p.n; first += kChunk) {
      const std::size_t last = std::min(p.n, first + kChunk);
      std::size_t rows = 0;
      for (std::size_t i = first; i < last; ++i) {
        if (p.logits[i].rows() > 0) rows += trace[i].features.rows();
      }
      blas::Matrix<float> x(rows, kInputDim);
      std::size_t row = 0;
      for (std::size_t i = first; i < last; ++i) {
        if (p.logits[i].rows() == 0) continue;  // refused; counted separately
        const blas::Matrix<float>& f = trace[i].features;
        std::memcpy(x.data() + row * kInputDim, f.data(),
                    f.size() * sizeof(float));
        row += f.rows();
      }
      const blas::Matrix<float> want = model.score(x.view(), &pool);
      row = 0;
      for (std::size_t i = first; i < last; ++i) {
        const blas::Matrix<float>& got = p.logits[i];
        if (got.rows() == 0) continue;
        if (got.rows() != trace[i].features.rows() || got.cols() != kStates ||
            std::memcmp(got.data(), want.data() + row * kStates,
                        got.size() * sizeof(float)) != 0) {
          ++mismatches;
        }
        row += trace[i].features.rows();
      }
    }
  }
  return mismatches;
}

std::uint64_t phase_seed(std::uint64_t seed, std::uint64_t phase) {
  return seed * 1000003ULL + phase;
}

double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

void set_traced_layers(const PhaseResult& untraced, const PhaseResult& traced,
                       const serve::ModelRuntime& model, std::uint64_t seed,
                       MetricSheet& sheet) {
  const RollupTotals roll = print_serve_rollup();
  const WindowStats plain = window_stats(untraced.latency_us);
  sheet.set("blas.gemm_s", roll.gemm_s);
  sheet.set("blas.gemm_calls", static_cast<double>(roll.gemm_calls));
  sheet.set("blas.gemm_share",
            roll.worker_busy_s > 0.0 ? roll.gemm_s / roll.worker_busy_s : 0.0);
  sheet.set("obs.trace_overhead_frac",
            window_stats(traced.latency_us).p50_us / plain.p50_us - 1.0);
  sheet.set("serve.due_p50_us", plain.p50_us);
  sheet.set("serve.due_p99_us", plain.p99_us);
  sheet.set("serve.queue_wait_us_p50", percentile(traced.queue_wait_us, 0.5));
  sheet.set("serve.queue_wait_us_p99", percentile(traced.queue_wait_us, 0.99));
  sheet.set("serve.service_us_p50", percentile(traced.service_us, 0.5));
  sheet.set("serve.service_us_p99", percentile(traced.service_us, 0.99));
  sheet.set("serve.gen_lag_us_p99", percentile(traced.gen_lag_us, 0.99));
  sheet.set("serve.rejected_overloaded",
            static_cast<double>(untraced.rejected_overloaded +
                                traced.rejected_overloaded));
  sheet.set("serve.rejected_deadline",
            static_cast<double>(untraced.rejected_deadline +
                                traced.rejected_deadline));
  // A typical engine batch: ~36 frames per 1 ms batch timeout at 8000
  // requests/s of 4.5 frames.
  const NnRates nn = measure_nn(model.network(), 32, seed, true);
  sheet.set("nn.forward_gflops", nn.forward_gflops);
  sheet.set("nn.backprop_gflops", 0.0);  // scoring runs forward only
  sheet.set("nn.gn_product_gflops", 0.0);
  // Serving bypasses the training layers entirely.
  for (const MetricDef& d : per_layer_metrics()) {
    const std::string n = d.name;
    if (n.rfind("hf.", 0) == 0 || n.rfind("simmpi.", 0) == 0 ||
        n.rfind("speech.", 0) == 0) {
      sheet.set(n, 0.0);
    }
  }
}

}  // namespace

void run_serve_open(const Args& args, MetricSheet& sheet, Outcome& outcome) {
  // ---- set-up: model build + engine start + first response (a cold
  // start), several times ----
  std::vector<double> setup_s;
  const blas::Matrix<float> first_request =
      std::move(make_trace(0.0, 1, phase_seed(args.seed, 998)).front().features);
  for (int rep = 0; rep < 41; ++rep) {
    const auto t0 = SteadyClock::now();
    auto model =
        std::make_shared<const serve::ModelRuntime>(make_network(args.seed));
    serve::Engine engine(model, engine_options());
    (void)engine.submit(blas::Matrix<float>(first_request)).get();
    setup_s.push_back(seconds_since(t0));
  }
  auto model =
      std::make_shared<const serve::ModelRuntime>(make_network(args.seed));
  serve::Engine engine(model, engine_options());
  std::printf("serve_open: seed %llu, 2 scoring threads, %zu-%zu frames per "
              "request, limit %.1f ms on p99 from due time (per %zu-request "
              "window, median over windows)\n",
              static_cast<unsigned long long>(args.seed), kMinFrames,
              kMaxFrames, kLatencyLimitUs * 1e-3, kWindow);

  // Warm-up (scratch growth, page faults), not measured or checked.
  (void)replay_open(engine, kFixedRate, 2000, phase_seed(args.seed, 999));

  std::vector<PhaseResult> phases;
  std::uint64_t next_phase = 0;
  const double fixed_s = std::max(1.0, 0.2 * args.seconds);
  auto run_fixed = [&] {
    phases.push_back(replay_open(engine, kFixedRate,
                                 static_cast<std::size_t>(kFixedRate * fixed_s),
                                 phase_seed(args.seed, next_phase++)));
  };

  if (args.trace) {
    run_fixed();
    bgqhf::obs::clear_trace();
    bgqhf::obs::set_tracing(true);
    run_fixed();
    bgqhf::obs::set_tracing(false);
    set_traced_layers(phases[0], phases[1], *model, args.seed, sheet);
  } else {
    run_fixed();
    const WindowStats fw = window_stats(phases.back().latency_us);

    // Rate ladder: the highest rate whose window p99 meets the limit, with
    // no refusals and a last window still within it (no growing backlog).
    // Geometric rungs up to the first miss, then bisection between the last
    // rung met and the first missed.
    const double rung_s = std::max(0.6, 0.025 * args.seconds);
    auto meets_limit = [&](double rate) {
      const auto n = static_cast<std::size_t>(rate * rung_s);
      phases.push_back(
          replay_open(engine, rate, n, phase_seed(args.seed, next_phase++)));
      const PhaseResult& p = phases.back();
      const WindowStats w = window_stats(p.latency_us);
      const bool ok = p.refused() == 0 && w.p99_us <= kLatencyLimitUs &&
                      w.last_p50_us <= kLatencyLimitUs;
      std::printf("  ladder %6.0f req/s: %5zu sent, window p99 %6.3f ms, "
                  "last-window p50 %6.3f ms, refused %zu -> %s\n",
                  rate, n, w.p99_us * 1e-3, w.last_p50_us * 1e-3, p.refused(),
                  ok ? "ok" : "over");
      return ok;
    };
    // The fixed-rate phase is the ladder's first rung.
    const bool fixed_ok = fw.p99_us <= kLatencyLimitUs &&
                          fw.last_p50_us <= kLatencyLimitUs &&
                          phases.front().refused() == 0;
    double max_rps = fixed_ok ? kFixedRate : 0.0;
    double missed = fixed_ok ? 0.0 : kFixedRate;
    for (int k = 1; k <= kLadderRungs && missed == 0.0; ++k) {
      const double rate = kFixedRate * std::pow(kLadderStep, k);
      (meets_limit(rate) ? max_rps : missed) = rate;
    }
    for (int k = 0; k < kLadderRefinements && max_rps > 0.0 && missed > 0.0;
         ++k) {
      const double mid = std::sqrt(max_rps * missed);
      (meets_limit(mid) ? max_rps : missed) = mid;
    }

    std::vector<double> burst_s;
    for (int rep = 0; rep < 5; ++rep) {
      phases.push_back(
          replay_burst(engine, phase_seed(args.seed, next_phase++)));
      burst_s.push_back(phases.back().wall_s);
    }
    const double rss = peak_rss_mb();

    const PhaseResult& f = phases.front();
    std::printf("  fixed %.0f req/s for %.1f s: %zu sent, %zu windows; "
                "overall p50 %.3f p99 %.3f p99.9 %.3f ms; generator lag p99 "
                "%.1f us\n",
                kFixedRate, fixed_s, f.n, fw.windows,
                percentile(f.latency_us, 0.5) * 1e-3,
                percentile(f.latency_us, 0.99) * 1e-3,
                percentile(f.latency_us, 0.999) * 1e-3,
                percentile(f.gen_lag_us, 0.99));
    // The ladder's answer swings with host stalls near the knee (14-30 k
    // req/s across runs on a 4-vCPU VM), so the gated throughput is the
    // offline burst's; the ladder result is reported alongside.
    sheet.set("time_to_target_s", median(burst_s));
    sheet.set("throughput_per_s",
              static_cast<double>(kBurstRequests) / median(burst_s));
    sheet.set("setup_s", median(setup_s));
    sheet.set("peak_rss_mb", rss);
    // Reported, not gated: due-time latencies follow the host's scheduling
    // noise (see NOTES.md).
    sheet.set("serve_p50_ms", fw.p50_us * 1e-3);
    sheet.set("serve_p90_ms", fw.p90_us * 1e-3);
    sheet.set("serve_p99_ms", fw.p99_us * 1e-3);
    sheet.set("serve_goodput_rps",
              static_cast<double>(f.within(kLatencyLimitUs)) / fixed_s);
    sheet.set("serve_max_rps", max_rps);
  }

  std::size_t refused = 0;
  for (const PhaseResult& p : phases) {
    outcome.attempted += p.n;
    refused += p.refused();
  }
  if (refused > 0) {
    outcome.failed += refused;
    outcome.checks_passed = false;
    outcome.notes.push_back(std::to_string(refused) +
                            " requests refused (overloaded/deadline)");
  }
  const std::size_t bad = count_mismatches(*model, phases);
  std::printf("  served == ModelRuntime::score on every response: %s (%zu "
              "mismatches)\n",
              bad == 0 ? "yes" : "NO", bad);
  if (bad > 0) {
    outcome.failed += bad;
    outcome.checks_passed = false;
    outcome.notes.push_back(std::to_string(bad) + " served != direct score");
  }
  if (!args.trace) {
    sheet.set("failed_frac", static_cast<double>(outcome.failed) /
                                 static_cast<double>(outcome.attempted));
  }
}

}  // namespace perfbench
