#pragma once
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cell/library.hpp"
#include "core/diag.hpp"
#include "core/searcher.hpp"
#include "core/stage.hpp"
#include "layout/floorplan.hpp"
#include "lint/lint.hpp"
#include "obs/obs.hpp"
#include "power/power.hpp"
#include "rtlgen/macro.hpp"
#include "sta/sta.hpp"

namespace syndcim::core {

/// Workload statistics used for the post-layout power measurement
/// (Table II is measured at 12.5% input density / 50% weight density).
struct Workload {
  int n_macs = 8;
  double input_density = 0.5;   ///< P(input bit == 1)
  double weight_density = 0.5;  ///< P(weight bit == 1)
  int input_bits = 4;
  int weight_bits = 4;
  unsigned seed = 1;
  /// Bit-parallel simulation lanes in [1, 64]: each simulated cycle
  /// carries `lanes` independent MAC workloads through the gate-level
  /// netlist, with lane stimulus drawn from per-lane RNG streams derived
  /// deterministically from `seed`. 1 (the default) is the
  /// scalar-identical control arm — the exact pre-lane drive schedule.
  int lanes = 1;
};

/// Post-layout signoff results of one implemented design (the paper's
/// "synthesis + APR + DRC/LVS + post-layout simulation" stage).
struct Implementation {
  rtlgen::MacroDesign macro;
  /// `macro` flattened once, by the `map` stage: placement, signoff, the
  /// power simulation and write_artifacts all read this netlist.
  std::shared_ptr<const netlist::FlatNetlist> flat;
  layout::Floorplan floorplan;
  lint::LintSummary lint;        ///< netlist static checks (pre-signoff)
  DiagEngine diagnostics;        ///< lint/STA/floorplan findings
  layout::DrcReport drc;
  layout::LvsReport lvs;
  sta::TimingReport timing;      ///< with back-annotated wire parasitics
  power::PowerReport power;      ///< simulation-based activity
  power::AreaReport cell_area;
  /// Wall time + peak RSS of every pipeline stage this implementation
  /// went through (rtlgen → map → lint → floorplan → route → sta →
  /// power), always recorded; trace spans mirror it when obs is enabled.
  /// Skipped stages appear too — a stage whose artifact was cached is
  /// still a phase the compile went through, just a near-instant one.
  obs::PhaseTimeline timeline;
  /// Per-stage run/skip trace: which stages executed and which spliced a
  /// cached artifact, with the content key each ran under.
  std::vector<StageRecord> stages;
  double fmax_mhz = 0.0;
  double macro_area_mm2 = 0.0;
  double total_power_uw = 0.0;
  double tops_1b = 0.0;          ///< at the achieved fmax
  [[nodiscard]] double tops_per_w() const {
    return total_power_uw > 0 ? tops_1b / (total_power_uw * 1e-6) : 0.0;
  }
  [[nodiscard]] double tops_per_mm2() const {
    return macro_area_mm2 > 0 ? tops_1b / macro_area_mm2 : 0.0;
  }
  [[nodiscard]] bool signoff_clean() const {
    return lint.clean() && drc.clean() && lvs.clean() && timing.met();
  }
};

struct CompileResult {
  SearchResult search;
  DesignPoint selected;
  Implementation impl;
};

/// SynDcimCompiler::compile's error when the search finds no design point
/// for the spec. The message names the spec. It is the caller's error:
/// the daemon answers 400 (as for any std::invalid_argument) and the CLI
/// exits 1.
class InfeasibleSpecError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Lints `cfg` through implement()'s `lint` stage, under implement()'s
/// keys and phase names: only a `lints` miss elaborates the macro and
/// runs the `map` stage, so a configuration that an earlier sweep, served
/// request or compile already linted costs one lookup. The stages land in
/// `timeline` (lint, preceded by map on a miss). Sweep frontier lint
/// calls this from worker threads, so `lib.fingerprint()` must already
/// have been computed.
[[nodiscard]] std::shared_ptr<const LintArtifact> lint_config(
    const cell::Library& lib, ArtifactStore& as,
    const rtlgen::MacroConfig& cfg, obs::PhaseTimeline* timeline);

/// Whether `as` holds lint_config's result for `cfg` in memory, so that
/// lint_config would cost one lookup. Counts no lookup.
[[nodiscard]] bool lint_cached(const cell::Library& lib,
                               const ArtifactStore& as,
                               const rtlgen::MacroConfig& cfg);

/// End-to-end SynDCIM compiler: specification -> MSO search -> selected
/// Pareto design -> full macro elaboration -> SDP placement ->
/// DRC/LVS -> post-layout STA and simulation-based power (paper Fig. 2
/// and Fig. 6).
class SynDcimCompiler {
 public:
  explicit SynDcimCompiler(const cell::Library& lib)
      : lib_(lib), scl_(lib), searcher_(scl_) {}
  /// Shares `store` — the serve daemon points every request-scoped
  /// compiler at one process-wide store, so tenant B's compile warm-hits
  /// the subcircuit artifacts tenant A's requests produced.
  SynDcimCompiler(const cell::Library& lib,
                  std::shared_ptr<ArtifactStore> store)
      : lib_(lib), scl_(lib, std::move(store)), searcher_(scl_) {}

  /// Full flow at the spec's PPA preference; throws InfeasibleSpecError
  /// when no design point meets the spec. `cancel` (optional) is
  /// polled cooperatively — between search and each implementation
  /// attempt, and at every stage boundary inside implement() — and
  /// unwinds the flow with CancelledError when tripped; partial state is
  /// discarded, the compiler object stays reusable.
  [[nodiscard]] CompileResult compile(const PerfSpec& spec,
                                      const Workload& workload = {},
                                      const CancelToken* cancel = nullptr);

  /// Search only (no implementation) — what the paper's DSE loop calls.
  [[nodiscard]] SearchResult search(const PerfSpec& spec) {
    return searcher_.search(spec);
  }

  /// Implements one concrete configuration (used for every point a user
  /// picks off the Pareto front, and by the baseline compiler models).
  ///
  /// The flattened netlist is linted before placement; error-severity
  /// findings (multiply-driven nets, floating nets, combinational loops,
  /// ...) abort the flow with std::runtime_error — running STA/power on a
  /// structurally broken netlist would produce confident garbage. The
  /// full diagnostic list (including warnings from the floorplanner and
  /// STA constraint checks) is kept in Implementation::diagnostics.
  [[nodiscard]] Implementation implement(const rtlgen::MacroConfig& cfg,
                                         const PerfSpec& spec,
                                         const Workload& workload = {},
                                         const CancelToken* cancel = nullptr);

  [[nodiscard]] SubcircuitLibrary& scl() { return scl_; }

 private:
  const cell::Library& lib_;
  SubcircuitLibrary scl_;
  MsoSearcher searcher_;
};

}  // namespace syndcim::core
