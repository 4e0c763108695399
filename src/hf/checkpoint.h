// Trainer checkpoint/restart.
//
// Serializes everything Algorithm 1 carries across iterations — theta, the
// Levenberg-Marquardt lambda, the CG-restart momentum direction d0, the
// held-out loss driving backtracking, the early-stop stall counter, the
// RNG draw position, and the per-iteration logs — so a run interrupted by
// a master-observed failure resumes and, absent faults, reproduces the
// bitwise-identical trajectory of an uninterrupted run.
//
// The file is a sealed util/format.h container, magic "BGQHFCKP",
// version 1, whose payload is (little-endian; docs/MODEL.md has the map):
//   u64 completed_iterations | u64 hf_seed |
//   f64 lambda | f64 loss_prev | u64 stall |
//   u64 n | f32 theta[n] | f32 d0[n] |
//   u64 num_logs | per log: fixed 14-field record
// Writes are atomic (tmp + rename); loads throw CheckpointError.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hf/optimizer.h"
#include "util/format.h"

namespace bgqhf::nn {
class Network;
}

namespace bgqhf::hf {

/// Checkpoint loads throw the shared container codec's typed error
/// (util/format.h); callers (the serving engine's hot-swap path in
/// particular) branch on fault() instead of parsing what() text.
using CheckpointFault = util::FormatFault;
using CheckpointError = util::FormatError;

struct TrainerCheckpoint {
  /// Iterations fully executed (successful or failed) before the save.
  std::uint64_t completed_iterations = 0;
  /// HfOptions::seed of the saving run; resume refuses a mismatch, since
  /// the curvature-sample stream would silently diverge otherwise.
  std::uint64_t hf_seed = 0;
  double lambda = 0.0;     // Levenberg-Marquardt damping
  double loss_prev = 0.0;  // held-out loss at theta (backtracking anchor)
  std::uint64_t stall = 0;  // early-stop patience counter
  std::vector<float> theta;
  std::vector<float> d0;  // beta * d_N CG-restart momentum
  std::vector<HfIterationLog> logs;
};

/// Atomically write `ckpt` to `path` (tmp file + rename) with a CRC32
/// footer. Throws CheckpointError{kIo} on I/O failure.
void save_checkpoint(const TrainerCheckpoint& ckpt, const std::string& path);

/// Load a checkpoint written by save_checkpoint. Throws CheckpointError
/// (a std::runtime_error) on I/O failure, bad magic/version, or CRC
/// mismatch.
TrainerCheckpoint load_checkpoint(const std::string& path);

/// Weights-only view of a checkpoint: just what inference needs, none of
/// the optimizer trajectory (d0, lambda, logs) a training resume carries.
struct CheckpointWeights {
  std::uint64_t completed_iterations = 0;
  std::uint64_t hf_seed = 0;
  std::vector<float> theta;
};

/// Load only the weights from a checkpoint written by save_checkpoint. The
/// whole file is still CRC-validated (the footer covers every byte), but
/// the CG-restart direction and iteration logs are never materialized.
/// Throws CheckpointError on I/O failure, corruption, or format mismatch.
CheckpointWeights load_checkpoint_weights(const std::string& path);

/// Validate that `weights` fits `net` (parameter count) and install them.
/// Throws CheckpointError{kShapeMismatch} with both sizes in the message
/// when the checkpoint was trained on a different topology.
void install_weights(const CheckpointWeights& weights, nn::Network& net);

/// Wire body for encode_weights_blob: fp32 ships theta verbatim (decode
/// round-trips bitwise); bf16 ships the compress codec's dense bfloat16
/// payload (half the theta bytes; decode widens back, so the round-trip
/// equals theta passed through blas::bf16_round). Both are covered by the
/// blob's CRC32 footer.
enum class WeightsWire : std::uint32_t { kF32 = 0, kBf16 = 1 };

/// In-memory weights-only codec ("BGQHFWTS" magic) for live exchange
/// between trainers — the LTFB tournament ships these blobs over simmpi
/// instead of rendezvousing on the filesystem. The same sealed container
/// as the file format: the footer covers every byte, and decode throws
/// CheckpointError{kCorrupt/kBadMagic/kBadVersion} on damage, so a
/// bit-flipped wire payload is rejected rather than installed. Payload:
/// u32 wire | u64 completed_iterations | u64 hf_seed | u64 count | body.
std::vector<std::byte> encode_weights_blob(
    const CheckpointWeights& weights, WeightsWire wire = WeightsWire::kF32);
CheckpointWeights decode_weights_blob(const std::vector<std::byte>& blob);

}  // namespace bgqhf::hf
