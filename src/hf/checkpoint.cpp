#include "hf/checkpoint.h"

#include <span>
#include <stdexcept>
#include <string_view>

#include "nn/network.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "simmpi/compress.h"

namespace bgqhf::hf {

namespace {

constexpr std::string_view kMagic{"BGQHFCKP", 8};
constexpr std::uint32_t kVersion = 1;

// In-memory weights blob (encode_weights_blob): distinct magic so a wire
// payload is never mistaken for (or fed to) the file-checkpoint loaders.
constexpr std::string_view kWeightsMagic{"BGQHFWTS", 8};

// Serialized HfIterationLog: eleven 8-byte fields plus the u8 failed flag.
constexpr std::size_t kLogBytes = 11 * 8 + 1;

void write_log(util::ByteWriter& w, const HfIterationLog& log) {
  w.pod(static_cast<std::uint64_t>(log.iteration));
  w.pod(log.train_loss);
  w.pod(log.grad_norm);
  w.pod(static_cast<std::uint64_t>(log.cg_iterations));
  w.pod(static_cast<std::uint64_t>(log.num_iterates));
  w.pod(static_cast<std::uint64_t>(log.chosen_iterate));
  w.pod(log.q_dn);
  w.pod(log.rho);
  w.pod(log.lambda);
  w.pod(log.alpha);
  w.pod(log.heldout_before);
  w.pod(log.heldout_after);
  w.pod(static_cast<std::uint8_t>(log.failed ? 1 : 0));
  w.pod(static_cast<std::uint64_t>(log.heldout_evals));
}

HfIterationLog read_log(util::ByteReader& r) {
  HfIterationLog log;
  log.iteration = static_cast<std::size_t>(r.pod<std::uint64_t>());
  log.train_loss = r.pod<double>();
  log.grad_norm = r.pod<double>();
  log.cg_iterations = static_cast<std::size_t>(r.pod<std::uint64_t>());
  log.num_iterates = static_cast<std::size_t>(r.pod<std::uint64_t>());
  log.chosen_iterate = static_cast<std::size_t>(r.pod<std::uint64_t>());
  log.q_dn = r.pod<double>();
  log.rho = r.pod<double>();
  log.lambda = r.pod<double>();
  log.alpha = r.pod<double>();
  log.heldout_before = r.pod<double>();
  log.heldout_after = r.pod<double>();
  log.failed = r.pod<std::uint8_t>() != 0;
  log.heldout_evals = static_cast<std::size_t>(r.pod<std::uint64_t>());
  return log;
}

/// Both loaders' common prefix: the header fields, then theta. Leaves the
/// reader at d0 and returns the parameter count.
std::uint64_t read_through_theta(util::ByteReader& r,
                                 TrainerCheckpoint& ckpt) {
  ckpt.completed_iterations = r.pod<std::uint64_t>();
  ckpt.hf_seed = r.pod<std::uint64_t>();
  ckpt.lambda = r.pod<double>();
  ckpt.loss_prev = r.pod<double>();
  ckpt.stall = r.pod<std::uint64_t>();
  const auto n_params = r.pod<std::uint64_t>();
  ckpt.theta = r.pod_vector<float>(n_params);
  return n_params;
}

}  // namespace

void save_checkpoint(const TrainerCheckpoint& ckpt, const std::string& path) {
  BGQHF_SPAN("fault", "checkpoint_save");
  obs::global_add(obs::Schema::global().counter("hf.checkpoint.saves"));
  if (ckpt.theta.size() != ckpt.d0.size()) {
    throw std::invalid_argument("checkpoint: theta/d0 size mismatch");
  }
  util::ByteWriter w;
  w.header(kMagic, kVersion);
  w.pod(ckpt.completed_iterations);
  w.pod(ckpt.hf_seed);
  w.pod(ckpt.lambda);
  w.pod(ckpt.loss_prev);
  w.pod(ckpt.stall);
  w.pod(static_cast<std::uint64_t>(ckpt.theta.size()));
  w.pod_vector(ckpt.theta);
  w.pod_vector(ckpt.d0);
  w.pod(static_cast<std::uint64_t>(ckpt.logs.size()));
  for (const auto& log : ckpt.logs) write_log(w, log);
  util::write_file(path, std::move(w).seal());
}

TrainerCheckpoint load_checkpoint(const std::string& path) {
  BGQHF_SPAN("fault", "checkpoint_load");
  obs::global_add(obs::Schema::global().counter("hf.checkpoint.loads"));
  const std::vector<std::byte> bytes = util::read_file(path);
  util::ByteReader r = util::open_sealed(bytes, kMagic, kVersion, path);
  TrainerCheckpoint ckpt;
  const std::uint64_t n_params = read_through_theta(r, ckpt);
  ckpt.d0 = r.pod_vector<float>(n_params);
  const auto n_logs = r.pod<std::uint64_t>();
  r.check_count(n_logs, kLogBytes);
  ckpt.logs.reserve(static_cast<std::size_t>(n_logs));
  for (std::uint64_t i = 0; i < n_logs; ++i) ckpt.logs.push_back(read_log(r));
  return ckpt;
}

CheckpointWeights load_checkpoint_weights(const std::string& path) {
  BGQHF_SPAN("serve", "checkpoint_load_weights");
  obs::global_add(
      obs::Schema::global().counter("hf.checkpoint.weight_loads"));
  const std::vector<std::byte> bytes = util::read_file(path);
  util::ByteReader r = util::open_sealed(bytes, kMagic, kVersion, path);
  TrainerCheckpoint ckpt;
  const std::uint64_t n_params = read_through_theta(r, ckpt);
  r.skip<float>(n_params);  // d0: CG-restart momentum, training-only
  return {ckpt.completed_iterations, ckpt.hf_seed, std::move(ckpt.theta)};
}

std::vector<std::byte> encode_weights_blob(const CheckpointWeights& weights,
                                           WeightsWire wire) {
  obs::global_add(obs::Schema::global().counter("hf.checkpoint.encodes"));
  util::ByteWriter w;
  w.header(kWeightsMagic, kVersion);
  w.pod(static_cast<std::uint32_t>(wire));
  w.pod(weights.completed_iterations);
  w.pod(weights.hf_seed);
  if (wire == WeightsWire::kBf16) {
    // Dense bf16 body through the compress codec (a fresh state per blob:
    // a one-shot exchange has no error-feedback stream to carry, the
    // rounding residual the carrier retains is discarded with the copy).
    simmpi::CompressOptions copts;
    copts.mode = simmpi::CompressMode::kBf16;
    copts.min_values = 0;
    simmpi::CompressState state;
    std::vector<float> carrier = weights.theta;
    const simmpi::Payload body = simmpi::compress(carrier, copts, state);
    w.pod(static_cast<std::uint64_t>(body.size()));
    w.raw(body.data(), body.size());
  } else {
    w.pod(static_cast<std::uint64_t>(weights.theta.size()));
    w.pod_vector(weights.theta);
  }
  return std::move(w).seal();
}

CheckpointWeights decode_weights_blob(const std::vector<std::byte>& blob) {
  util::ByteReader r =
      util::open_sealed(blob, kWeightsMagic, kVersion, "weights blob");
  const auto wire = r.pod<std::uint32_t>();
  CheckpointWeights w;
  w.completed_iterations = r.pod<std::uint64_t>();
  w.hf_seed = r.pod<std::uint64_t>();
  const auto count = r.pod<std::uint64_t>();
  switch (static_cast<WeightsWire>(wire)) {
    case WeightsWire::kF32:
      w.theta = r.pod_vector<float>(count);
      break;
    case WeightsWire::kBf16: {
      r.check_count(count, 1);
      const std::span<const std::byte> body(
          r.take(static_cast<std::size_t>(count)),
          static_cast<std::size_t>(count));
      // The body is a compress-codec blob with its own header; a dense
      // bf16 body holds two bytes per value, so a larger claimed count is
      // a lie, and any codec rejection is corruption of this blob.
      try {
        const std::size_t values = simmpi::decoded_values(body);
        if (values > body.size() / sizeof(std::uint16_t)) {
          r.fail(CheckpointFault::kCorrupt, "bf16 body value count");
        }
        w.theta.assign(values, 0.0f);
        simmpi::decode_overwrite(body, w.theta);
      } catch (const std::logic_error& e) {
        r.fail(CheckpointFault::kCorrupt, e.what());
      }
      break;
    }
    default:
      r.fail(CheckpointFault::kCorrupt,
             "wire tag " + std::to_string(wire));
  }
  return w;
}

void install_weights(const CheckpointWeights& weights, nn::Network& net) {
  if (weights.theta.size() != net.num_params()) {
    throw CheckpointError(
        CheckpointFault::kShapeMismatch,
        "checkpoint has " + std::to_string(weights.theta.size()) +
            " parameters, network wants " + std::to_string(net.num_params()));
  }
  net.set_params(weights.theta);
}

}  // namespace bgqhf::hf
