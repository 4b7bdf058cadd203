#pragma once
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cell/library.hpp"
#include "core/searcher.hpp"
#include "core/stage.hpp"
#include "dse/eval_cache.hpp"
#include "dse/pool.hpp"
#include "obs/obs.hpp"

namespace syndcim::dse {

/// Cartesian spec grid: every listed dimension is swept around `base`
/// (an empty dimension keeps the base value). `precisions` entries set
/// input and weight bit lists together — {{4},{8},{4,8}} sweeps an
/// INT4-only, an INT8-only and a multi-precision macro.
struct SweepGrid {
  core::PerfSpec base;
  std::vector<double> mac_freqs_mhz;
  std::vector<int> mcrs;
  std::vector<std::vector<int>> precisions;
  std::vector<core::PpaPreference> prefs;
  [[nodiscard]] std::vector<core::PerfSpec> expand() const;
};

/// Builds a SweepGrid from `key=value` string pairs, consuming the
/// `sweep_*` dimension keys (`sweep_mac_mhz`, `sweep_mcr`, `sweep_bits`
/// with `;`-separated precision groups, `sweep_pref` preset names); the
/// remaining keys form the base spec via core::spec_from_kv. When no
/// dimension is given, the default 12-point frequency x MCR x preference
/// grid around the base spec is used. Shared by the CLI and the serve
/// protocol's sweep request.
[[nodiscard]] SweepGrid grid_from_kv(std::map<std::string, std::string> kv);

struct SweepOptions {
  int threads = 0;  ///< <= 0: hardware concurrency
  /// The content-addressed artifact store every worker evaluates
  /// through: slice characterizations (reused across specs, trajectories
  /// and preference-only spec variants) and, under them, the modules and
  /// per-cone activity a one-knob config delta still shares.
  /// Disabling it is the cold reference path: the exact same code with
  /// every tier bypassed, so each evaluation re-characterizes its slice —
  /// the frontier JSON is byte-identical either way.
  bool use_artifact_cache = true;
  /// Lint the elaborated netlist of every global-frontier point after the
  /// merge, through implement()'s `lint` stage and its `lints` memo (see
  /// lint_frontier_points). Off for pure benchmarking runs.
  bool lint_frontier = true;
  /// Process-wide artifact store to characterize through instead of a
  /// sweep-private one (nullptr = private). The serve daemon points every
  /// request here so subcircuit artifacts are shared across requests and
  /// tenants; report/metric statistics are per-run deltas either way.
  core::ArtifactStore* shared_store = nullptr;
  /// Cooperative cancellation: checked before every (spec, trajectory)
  /// task and before the frontier lint. A tripped token makes the sweep
  /// return early with whatever completed and `SweepReport::cancelled`
  /// set — partial results, not an exception, so interrupted batch runs
  /// can still flush their reports.
  const core::CancelToken* cancel = nullptr;
  /// Durable on-disk artifact store directory (core::DiskBlobStore).
  /// When set (and no shared_store is adopted), the sweep's artifact
  /// store reads through and writes back to this directory, so a second
  /// invocation over the same grid starts warm — and concurrent shard
  /// processes share it as their common cache. Empty = in-memory only.
  std::string store_dir;
  /// Deterministic multi-process partition of the spec grid: this run
  /// evaluates only the specs whose global index i satisfies
  /// i % shard_count == shard_index (see dse/shard.hpp). Spec indices
  /// stay global, so shard results merge byte-identically to a
  /// single-process run. shard_count <= 1 = no sharding.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  /// Sink for the on-disk store's CACHE-* findings. nullptr = counted in
  /// the store statistics but not reported as diagnostics.
  core::DiagEngine* diag = nullptr;
};

/// One spec's complete search outcome inside the sweep.
struct SpecResult {
  core::PerfSpec spec;
  core::SearchResult result;
};

/// A global-frontier member, annotated with the first spec (by sweep
/// order) that produced it and, when SweepOptions::lint_frontier is set,
/// with the lint result of its elaborated netlist (-1 = not linted).
struct FrontierPoint {
  core::DesignPoint point;
  std::size_t spec_index = 0;
  /// Stable content id of (config, spec timing knobs): 16 lowercase hex
  /// digits of FNV-1a over the canonical serializations — the same pair
  /// the merge deduplicates on, so two frontier points share an id iff
  /// they are the same evaluation. Survives reordering, re-sweeping and
  /// thread-count changes; netmap allocations name the exact frontier
  /// point they selected with it, keeping reports diffable across runs.
  std::string point_id;
  int lint_errors = -1;
  int lint_warnings = 0;
  /// Per-point stages recorded while the frontier was linted: `lint`,
  /// preceded by `map` when the `lints` tier missed. Emitted in the full
  /// report JSON only — wall times and cache outcomes vary between runs,
  /// and the frontier JSON must stay byte-identical across runs and
  /// thread counts.
  obs::PhaseTimeline timeline;
};

struct SweepReport {
  std::vector<SpecResult> per_spec;
  /// Deduplicated global Pareto frontier: union of the per-spec fronts
  /// (the "shard fronts"), identical (config, timing-knob) points
  /// merged, then non-dominated filtering over the union on
  /// (power, area, throughput) — throughput joins the per-spec
  /// power/area objectives because specs differ in clock target.
  std::vector<FrontierPoint> frontier;
  /// This run's evaluation memo traffic: the `slices` tier's per-run
  /// hits, misses and in-flight waits (one lookup per evaluation).
  core::ArtifactTierStats cache;
  /// Per-tier hit/miss/occupancy of the artifact store (modules, flats,
  /// activity, ..., slices — see core::ArtifactStore).
  std::vector<core::ArtifactTierStats> artifacts;
  WorkStealingPool::Stats pool;
  double wall_ms = 0.0;
  std::size_t n_tasks = 0;  ///< (spec, trajectory) tasks executed
  /// True when SweepOptions::cancel tripped mid-run: per-spec results and
  /// the frontier cover only the tasks that finished, and the frontier
  /// was not linted.
  bool cancelled = false;
  /// On-disk store statistics JSON (DiskBlobStore::stats_json) when
  /// SweepOptions::store_dir was used; empty otherwise.
  std::string store_json;

  [[nodiscard]] std::uint64_t artifact_hits() const;
  [[nodiscard]] std::uint64_t artifact_misses() const;
};

/// Parallel multi-spec exploration: fans (spec x trajectory) tasks out on
/// a work-stealing pool, evaluates through one shared artifact store, and
/// reduces per-spec fronts into one global frontier. The merge is
/// performed in (spec, trajectory) index order from preallocated slots,
/// so the report is bit-identical for any thread count.
[[nodiscard]] SweepReport run_sweep(const cell::Library& lib,
                                    const std::vector<core::PerfSpec>& specs,
                                    const SweepOptions& opt = {});

/// Global reduction shared by run_sweep and dse::merge_shards: merges
/// the per-spec Pareto fronts in global spec order, drops duplicate
/// (config, timing-knob) evaluations, then dominance-filters over the
/// union. Pure function of `per_spec` — the shard-merge determinism
/// argument rests on both callers funneling through this.
[[nodiscard]] std::vector<FrontierPoint> merge_global_frontier(
    const std::vector<SpecResult>& per_spec);

/// The frontier lint run_sweep performs, shared with dse::merge_shards:
/// one core::lint_config per point. Points whose lint `store` holds in
/// memory cost one `lints` lookup on the calling thread; the others run
/// on a pool of up to `threads` workers. Each lint fills only its own
/// point's lint_errors, lint_warnings and timeline, which keeps the
/// result independent of the schedule. The first exception a task
/// throws is rethrown here.
void lint_frontier_points(const cell::Library& lib,
                          std::vector<FrontierPoint>& frontier,
                          core::ArtifactStore& store, int threads);

/// Content id of one (config, spec) evaluation — see
/// FrontierPoint::point_id.
[[nodiscard]] std::string frontier_point_id(const rtlgen::MacroConfig& cfg,
                                            const core::PerfSpec& spec);

/// Deterministic JSON of the merged global frontier only (byte-identical
/// across thread counts).
[[nodiscard]] std::string sweep_frontier_json(const SweepReport& r);
/// Full JSON report: per-spec summaries, frontier, slice-tier, artifact
/// and pool statistics, wall time.
[[nodiscard]] std::string sweep_report_json(const SweepReport& r);

}  // namespace syndcim::dse
