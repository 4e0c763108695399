// Typed data-access errors.
//
// Every failure the corpus store and the DataSource implementations can
// hit (unreadable files, CRC mismatches, foreign or stale formats, shape
// disagreements between an index and its shards) throws the shared
// container codec's typed error (util/format.h), the same type
// hf::CheckpointError names. Callers (the trainer's staging path, the
// corpus_shard CLI) branch on fault() instead of parsing what() text.
#pragma once

#include "util/format.h"

namespace bgqhf::speech {

using DataFault = util::FormatFault;
using DataError = util::FormatError;

}  // namespace bgqhf::speech
