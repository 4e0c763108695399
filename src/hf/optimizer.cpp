#include "hf/optimizer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include <memory>

#include "blas/level1.h"
#include "hf/checkpoint.h"
#include "hf/preconditioner.h"
#include "obs/span.h"
#include "util/logging.h"
#include "util/rng.h"

namespace bgqhf::hf {

HfResult HfOptimizer::run(HfCompute& compute, std::span<float> theta,
                          const TrainerCheckpoint* resume) {
  const std::size_t n = compute.num_params();
  if (theta.size() != n) {
    throw std::invalid_argument("HfOptimizer: theta size mismatch");
  }

  HfResult result;
  LevenbergMarquardt lm(options_.hyper, options_.damping);
  util::Rng seed_rng(options_.seed);

  std::vector<float> d0(n, 0.0f);
  std::vector<float> grad(n, 0.0f);
  std::vector<float> trial(n, 0.0f);

  double loss_prev = 0.0;
  std::size_t stall = 0;
  std::size_t first_iter = 1;
  if (resume != nullptr) {
    if (resume->theta.size() != n || resume->d0.size() != n) {
      throw CheckpointError(
          CheckpointFault::kShapeMismatch,
          "HfOptimizer: checkpoint has " +
              std::to_string(resume->theta.size()) +
              " parameters, network wants " + std::to_string(n));
    }
    if (resume->hf_seed != options_.seed) {
      // A different seed would silently diverge the curvature-sample
      // stream from the run that wrote the checkpoint.
      throw CheckpointError(CheckpointFault::kSeedMismatch,
                            "HfOptimizer: checkpoint seed " +
                                std::to_string(resume->hf_seed) +
                                " != configured seed " +
                                std::to_string(options_.seed));
    }
    std::copy(resume->theta.begin(), resume->theta.end(), theta.begin());
    std::copy(resume->d0.begin(), resume->d0.end(), d0.begin());
    lm.set_lambda(resume->lambda);
    loss_prev = resume->loss_prev;
    stall = static_cast<std::size_t>(resume->stall);
    result.iterations = resume->logs;
    // seed_rng draws exactly one u64 per iteration (prepare_curvature), so
    // replaying the completed draws restores the exact stream position.
    for (std::uint64_t i = 0; i < resume->completed_iterations; ++i) {
      (void)seed_rng.next_u64();
    }
    first_iter = static_cast<std::size_t>(resume->completed_iterations) + 1;
    compute.set_params(theta);
  } else {
    compute.set_params(theta);
    loss_prev = compute.heldout_loss().mean_loss();
  }

  // loss_prev always equals the held-out loss at the current theta, so
  // saving it lets resume skip the initial evaluation without drift.
  auto save_state = [&](std::size_t completed) {
    if (options_.checkpoint_path.empty() || options_.checkpoint_every == 0) {
      return;
    }
    if (completed % options_.checkpoint_every != 0 &&
        completed != options_.max_iterations) {
      return;
    }
    TrainerCheckpoint ckpt;
    ckpt.completed_iterations = completed;
    ckpt.hf_seed = options_.seed;
    ckpt.lambda = lm.lambda();
    ckpt.loss_prev = loss_prev;
    ckpt.stall = stall;
    ckpt.theta.assign(theta.begin(), theta.end());
    ckpt.d0 = d0;
    ckpt.logs = result.iterations;
    save_checkpoint(ckpt, options_.checkpoint_path);
  };

  for (std::size_t iter = first_iter; iter <= options_.max_iterations;
       ++iter) {
    BGQHF_SPAN("hf", "outer_iteration");
    HfIterationLog log;
    log.iteration = iter;
    log.lambda = lm.lambda();
    log.heldout_before = loss_prev;

    compute.set_params(theta);
    std::fill(grad.begin(), grad.end(), 0.0f);
    std::vector<float> grad_squares;
    nn::BatchLoss train;
    if (options_.use_preconditioner) {
      grad_squares.assign(n, 0.0f);
      train = compute.gradient_with_squares(grad, grad_squares);
    } else {
      train = compute.gradient(grad);
    }
    log.train_loss = train.mean_loss();
    log.grad_norm = blas::nrm2<float>(grad);

    compute.prepare_curvature(seed_rng.next_u64());
    const double lambda = lm.lambda();
    const Matvec apply_a = [&](std::span<const float> v,
                               std::span<float> out) {
      compute.curvature_product(v, out);
      for (std::size_t i = 0; i < v.size(); ++i) {
        out[i] += static_cast<float>(lambda) * v[i];
      }
    };

    std::unique_ptr<JacobiPreconditioner> precond;
    Matvec apply_minv;
    if (options_.use_preconditioner) {
      precond = std::make_unique<JacobiPreconditioner>(
          std::move(grad_squares), lambda,
          options_.preconditioner_exponent);
      apply_minv = precond->as_matvec();
    }
    CgResult cg;
    {
      BGQHF_SPAN("hf", "cg_minimize");
      cg = cg_minimize(apply_a, grad, d0, options_.cg,
                       options_.hyper.cg_max_iters,
                       precond ? &apply_minv : nullptr);
    }
    log.cg_iterations = cg.iterations;
    log.num_iterates = cg.iterates.size();
    log.q_dn = cg.q_values.back();

    // Evaluate held-out loss at theta + d for a given iterate.
    auto loss_at_step = [&](std::span<const float> d, double scale) {
      for (std::size_t i = 0; i < n; ++i) {
        trial[i] = theta[i] + static_cast<float>(scale) * d[i];
      }
      compute.set_params(trial);
      ++log.heldout_evals;
      return compute.heldout_loss().mean_loss();
    };

    // --- Backtracking over the CG iterate sequence (Algorithm 1). ---
    const std::size_t last = cg.iterates.size() - 1;
    std::size_t best_idx = last;
    double loss_best = loss_at_step(cg.iterates[last], 1.0);
    for (std::size_t i = last; i-- > 0;) {
      const double loss_curr = loss_at_step(cg.iterates[i], 1.0);
      if (loss_prev >= loss_best && loss_curr >= loss_best) break;
      // Algorithm 1 assigns L_best <- L_curr unconditionally here: the
      // scan keeps walking toward shorter steps while they keep helping
      // (or while even the best found is still worse than L_prev).
      loss_best = loss_curr;
      best_idx = i;
    }
    log.chosen_iterate = best_idx;

    if (loss_prev < loss_best) {
      // Failed iteration: no iterate improved the held-out loss.
      lm.on_failed_iteration();
      std::fill(d0.begin(), d0.end(), 0.0f);
      log.failed = true;
      log.heldout_after = loss_prev;
      result.iterations.push_back(log);
      if (options_.verbose) {
        BGQHF_INFO << "hf iter " << iter << " FAILED lambda->"
                   << lm.lambda();
      }
      save_state(iter);
      continue;
    }

    // rho: actual change vs. the model-predicted change q(d_N). Both are
    // negative on a successful iteration, so rho > 0 and rho ~ 1 means the
    // quadratic model tracked the true loss well. (The paper prints the
    // numerator as L_prev - L_best; as with the lambda update we follow the
    // Martens sign convention the text says it implements.)
    const double q_dn = cg.q_values.back();
    if (q_dn < 0.0) {
      log.rho = (loss_best - loss_prev) / q_dn;
      lm.on_rho(log.rho);
    }

    // --- Armijo line search along the chosen iterate. ---
    // Backtracking already evaluated theta + 1.0 * d (the same float
    // expression, so the same bits): reuse loss_best for alpha == 1.0
    // rather than paying another set_params broadcast and held-out pass.
    const std::span<const float> d = cg.iterates[best_idx];
    const double directional = blas::dot<float>(grad, d);
    LineSearchOptions ls_opts = options_.linesearch;
    const LineSearchResult ls = armijo_backtrack(
        [&](double alpha) {
          return alpha == 1.0 ? loss_best : loss_at_step(d, alpha);
        },
        loss_prev, directional, ls_opts);

    if (ls.alpha <= 0.0) {
      lm.on_failed_iteration();
      std::fill(d0.begin(), d0.end(), 0.0f);
      log.failed = true;
      log.heldout_after = loss_prev;
      result.iterations.push_back(log);
      save_state(iter);
      continue;
    }

    for (std::size_t i = 0; i < n; ++i) {
      theta[i] += static_cast<float>(ls.alpha) * d[i];
    }
    log.alpha = ls.alpha;
    log.heldout_after = ls.loss;

    // d_0 <- beta * d_N for the next CG call.
    const std::vector<float>& dn = cg.iterates.back();
    for (std::size_t i = 0; i < n; ++i) {
      d0[i] = static_cast<float>(options_.momentum) * dn[i];
    }

    const double rel_improvement =
        loss_prev > 0.0 ? (loss_prev - ls.loss) / loss_prev : 0.0;
    loss_prev = ls.loss;
    result.iterations.push_back(log);

    if (options_.verbose) {
      BGQHF_INFO << "hf iter " << iter << " train=" << log.train_loss
                 << " heldout=" << log.heldout_after << " cg="
                 << log.cg_iterations << " rho=" << log.rho
                 << " lambda=" << lm.lambda() << " alpha=" << log.alpha;
    }

    if (options_.min_relative_improvement > 0.0) {
      stall = rel_improvement < options_.min_relative_improvement ? stall + 1
                                                                  : 0;
      if (stall >= options_.patience) {
        result.early_stopped = true;
        save_state(iter);
        break;
      }
    }
    save_state(iter);
  }

  compute.set_params(theta);
  const nn::BatchLoss final_loss = compute.heldout_loss();
  result.final_heldout_loss = final_loss.mean_loss();
  result.final_heldout_accuracy = final_loss.accuracy();
  result.final_lambda = lm.lambda();
  return result;
}

}  // namespace bgqhf::hf
