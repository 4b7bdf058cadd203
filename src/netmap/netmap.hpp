#pragma once
// Full-network evaluation: map a netmap::Model onto a *fleet* of DCIM
// macros chosen from a sweep frontier. Layers execute sequentially (the
// model is a chain); within a layer its tile grid is spread across
// `count` identical macros of the type the allocator picked for it.
// Heterogeneity means different layers may pick different frontier
// points — the multi-spec DSE becomes the inner loop of "compile a macro
// fleet for this model".
//
// Allocation is a two-stage greedy + local-refinement search:
//   Stage A  per-layer energy-minimal candidate at count = 1, then a
//            repair loop that merges macro types until the owned fleet
//            (one bank of hardware per type, sized by that type's
//            busiest layer) fits the macro-count/area budget.
//   Stage B  latency hill-climb: repeatedly apply the single move
//            (increment a layer's count, or switch its type) that cuts
//            end-to-end time the most while the fleet stays inside the
//            budget AND total energy stays <= the best homogeneous
//            fleet's energy.
// Because per-layer energy is non-decreasing in count (extra macros only
// add idle/drain energy), stage A's energy is <= every homogeneous
// baseline, and stage B never crosses the cap — the heterogeneous result
// beats or ties the best single-frontier-point fleet on energy by
// construction (a guarded fallback adopts the baseline outright if the
// repair loop ever lands above it).
#include <cstddef>
#include <string>
#include <vector>

#include "dse/sweep.hpp"
#include "netmap/model.hpp"
#include "netmap/tile.hpp"

namespace syndcim::netmap {

/// One macro type the allocator may instantiate: the architecture,
/// effective clocks and characterized PPA of a single frontier point.
struct MacroCandidate {
  std::string point_id;  ///< dse::frontier_point_id of the source point
  std::string label;     ///< human-readable trail label
  int rows = 64;
  int cols = 64;
  int mcr = 2;
  std::vector<int> input_bits;   ///< supported precisions, ascending
  std::vector<int> weight_bits;  ///< supported precisions, ascending
  double mac_mhz = 0.0;          ///< effective MAC clock (spec vs fmax)
  double wupdate_mhz = 0.0;      ///< effective weight-update clock
  double fmax_mhz = 0.0;
  double power_uw = 0.0;  ///< at the effective MAC clock
  double area_um2 = 0.0;
  double energy_per_mac_fj = 0.0;
  int latency_cycles = 0;

  /// Smallest supported precision >= `bits` (serial cycles / column
  /// packing run at the supported width), or -1 when unsupported.
  [[nodiscard]] int effective_input_bits(int bits) const;
  [[nodiscard]] int effective_weight_bits(int bits) const;
  /// Candidate can run the layer at all (both precisions supported and
  /// at least one weight column fits).
  [[nodiscard]] bool supports(const Layer& layer) const;
};

/// Candidate pool from an in-memory sweep (infeasible points are never
/// on the global frontier; clocks are the producing spec's targets).
[[nodiscard]] std::vector<MacroCandidate> candidates_from_frontier(
    const dse::SweepReport& report);

/// Candidate pool from a persisted frontier JSON (`syndcim sweep
/// --frontier-json` output). Points missing the "macro"/"point_id"
/// members (pre-point_id reports) are NETMAP-BADFRONTIER errors; callers
/// check `diag.has_errors()`.
[[nodiscard]] std::vector<MacroCandidate> candidates_from_frontier_json(
    const std::string& json_text, core::DiagEngine& diag,
    const std::string& source = "<frontier>");

/// Fleet budget. A fleet owns `count` physical macros of each selected
/// type (sized by that type's busiest layer — layers run sequentially,
/// so one bank per type is reused across layers).
struct Budget {
  int max_macros = 8;       ///< total owned macros across all types
  double max_area_um2 = 0;  ///< total owned silicon; 0 = unlimited
};

/// One layer's mapping: which candidate, how many instances, and the
/// resulting tile/schedule/energy breakdown.
struct LayerAssignment {
  std::size_t layer_index = 0;
  std::size_t candidate_index = 0;  ///< into NetmapResult::candidates
  int count = 1;                    ///< macros allocated to this layer
  int input_bits_eff = 0;           ///< precision the macro runs at
  int weight_bits_eff = 0;
  TileGrid grid;
  LayerSchedule sched;
  double time_us = 0.0;
  double mac_energy_pj = 0.0;
  double write_energy_pj = 0.0;
  double dead_energy_pj = 0.0;
  [[nodiscard]] double energy_pj() const {
    return mac_energy_pj + write_energy_pj + dead_energy_pj;
  }
  /// Useful word-MACs over the layer-time MAC capacity of the macros it
  /// ran on.
  double utilization = 0.0;
};

/// One owned hardware bank: a macro type and how many instances the
/// fleet keeps of it (the max any single layer uses).
struct FleetEntry {
  std::size_t candidate_index = 0;
  int count = 0;
  double area_um2 = 0.0;  ///< count * per-macro area
};

/// Best homogeneous (single macro type everywhere) baseline, for the
/// het-vs-homog comparison the reports and CI assert on.
struct HomogBaseline {
  bool valid = false;  ///< some candidate supports every layer
  std::size_t candidate_index = 0;
  int count = 0;  ///< owned macros after its own latency refinement
  double time_us = 0.0;
  double energy_pj = 0.0;
};

struct NetmapResult {
  Model model;  ///< the mapped model (layers align with `layers` below)
  std::vector<MacroCandidate> candidates;  ///< the pool considered
  std::vector<LayerAssignment> layers;     ///< one per model layer
  std::vector<FleetEntry> fleet;
  Budget budget;
  int fleet_macros = 0;
  double fleet_area_um2 = 0.0;
  double total_time_us = 0.0;
  double total_energy_pj = 0.0;
  double utilization = 0.0;  ///< MAC-weighted mean of layer utilizations
  HomogBaseline homog;
  /// True when the repair loop could not hold the energy guarantee and
  /// the allocator adopted the homogeneous baseline outright.
  bool fallback_homog = false;
};

/// Maps `model` onto `candidates` under the budget. Throws
/// std::invalid_argument when the model/pool is empty, the budget is
/// degenerate (max_macros < 1), or some layer is supported by no
/// candidate that fits the area budget.
[[nodiscard]] NetmapResult run_netmap(
    const Model& model, const std::vector<MacroCandidate>& candidates,
    const Budget& budget = {});

/// Deterministic "syndcim-netmap" v1 report (trailing newline,
/// %.17g numbers) — byte-identical for identical inputs, and therefore
/// across sweep thread counts and the CLI/serve paths.
[[nodiscard]] std::string netmap_report_json(const NetmapResult& r);

}  // namespace syndcim::netmap
