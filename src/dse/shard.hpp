#pragma once
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "dse/sweep.hpp"

namespace syndcim::dse {

// Multi-process sharded sweeps: `syndcim sweep --shard i/N --shard-out F`
// partitions the spec grid deterministically across worker processes
// (shard i owns the specs whose *global* grid index is congruent to i mod
// N), each worker writes its per-owned-spec Pareto sets to a shard file,
// and `--merge-shards` folds the files back into a frontier byte-identical
// to the single-process run.
//
// Determinism argument (also in DESIGN.md): per-spec searches are
// independent pure functions of (library, spec) — run_sweep merges
// per-spec fronts that were computed in preallocated slots, so a spec's
// Pareto set does not depend on which process (or thread) evaluated it.
// Shard files carry the full spec grid and global spec indices, so the
// merge rebuilds exactly the per_spec array a single-process run would
// hold, then reuses the same dedup + dominance + lint + JSON code. Caches
// (L1 or a shared on-disk L2) never change results — decoded artifacts
// are bit-identical to computed ones — so warm shards merge identically
// to cold ones.

/// One worker's contribution: the full grid it was sliced from plus the
/// Pareto set of every spec it owned.
struct ShardResult {
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  std::vector<core::PerfSpec> specs;  ///< the FULL grid, all shards alike
  struct OwnedSpec {
    std::size_t spec_index = 0;  ///< global index into `specs`
    std::vector<core::DesignPoint> pareto;
  };
  std::vector<OwnedSpec> owned;
};

/// True iff shard `shard_index` of `shard_count` owns global spec index
/// `spec_index` — the single partition rule every piece of the sharding
/// path shares.
[[nodiscard]] constexpr bool shard_owns(std::size_t spec_index,
                                        std::size_t shard_index,
                                        std::size_t shard_count) {
  return shard_count <= 1 || spec_index % shard_count == shard_index;
}

/// Extracts this run's shard file payload from a finished (sharded)
/// sweep over `specs`.
[[nodiscard]] ShardResult make_shard_result(
    const std::vector<core::PerfSpec>& specs, const SweepReport& rep,
    std::size_t shard_index, std::size_t shard_count);

/// Binary shard-file codec ("SYSH" magic, versioned; bit-exact doubles).
/// decode throws core::BinDecodeError on malformed input.
[[nodiscard]] std::string encode_shard_result(const ShardResult& s);
[[nodiscard]] ShardResult decode_shard_result(std::string_view payload);

/// Writes/reads a shard file; write returns false on I/O failure, read
/// throws std::runtime_error (bad path) or core::BinDecodeError (bad
/// bytes).
bool write_shard_file(const std::string& path, const ShardResult& s);
[[nodiscard]] ShardResult read_shard_file(const std::string& path);

struct MergeOptions {
  /// Directory the frontier-lint store reads through and flushes to
  /// (empty: in-memory only). Results are byte-identical either way, warm
  /// is just faster.
  std::string store_dir;
  core::DiagEngine* diag = nullptr;  ///< store/codec findings sink
};

/// Folds shard files into a SweepReport whose frontier (and frontier
/// JSON) is byte-identical to the single-process run over the same grid,
/// then lints every merged-frontier point (the same lint_frontier_points
/// pass run_sweep does, on a pool of hardware-concurrency workers).
/// Throws std::invalid_argument when the shard set is inconsistent or
/// incomplete (mismatched grids or counts, missing or duplicate shards).
[[nodiscard]] SweepReport merge_shards(const cell::Library& lib,
                                       const std::vector<std::string>& paths,
                                       const MergeOptions& opt = {});

}  // namespace syndcim::dse
