#pragma once
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/artifact_cache.hpp"
#include "core/cancel.hpp"
#include "core/diag.hpp"
#include "layout/floorplan.hpp"
#include "lint/lint.hpp"
#include "netlist/flatten.hpp"
#include "obs/obs.hpp"
#include "power/activity.hpp"
#include "power/power.hpp"
#include "rtlgen/macro.hpp"
#include "sta/sta.hpp"

namespace syndcim::core {

// ---------------------------------------------------------------------------
// Stage artifacts
// ---------------------------------------------------------------------------
// Every artifact is the complete observable output of its stage, including
// the diagnostics it emitted: replaying a cached artifact must be
// indistinguishable from re-running the stage, or the warm path would drop
// findings the cold path reports.

/// Pre-signoff netlist lint result (lint stage).
struct LintArtifact {
  lint::LintSummary summary;
  std::vector<Diagnostic> diags;
};

/// SDP placement result (floorplan stage).
struct PlacedArtifact {
  layout::Floorplan floorplan;
  std::vector<Diagnostic> diags;
};

/// Signoff checks plus extracted parasitics (route stage).
struct RouteArtifact {
  layout::DrcReport drc;
  layout::LvsReport lvs;
  sta::WireModel wire;
};

/// Timing analysis result (sta stage).
struct TimingArtifact {
  sta::TimingReport timing;
  std::vector<Diagnostic> diags;
};

/// Power + cell-area roll-up (power stage).
struct PowerArtifact {
  power::PowerReport power;
  power::AreaReport area;
};

/// Characterized PPA of one macro configuration, obtained by elaborating a
/// single-OFU-group *slice* of the macro (all columns are identical, so
/// the slice's stage timing and per-group power/area compose exactly into
/// the full macro). This is the paper's "subcircuit library with PPA
/// lookup tables": the searcher consults these entries (the `slices`
/// tier) instead of re-elaborating full macros.
struct SliceEval {
  int slice_cols = 0;
  // Nominal-voltage timing (scale by TechNode::delay_scale for other VDD).
  double min_period_ps = 0.0;        ///< MAC-domain limit incl. OFU/outputs
  double min_write_period_ps = 0.0;  ///< weight-update limit
  /// Minimum feasible period of the MAC array pipeline stages (column
  /// tree/S&A plus drivers/alignment), excluding the OFU/output stage —
  /// the "adder path" of Algorithm 1.
  double mac_path_period_ps = 0.0;
  /// Minimum feasible period of the OFU/output stage ("OFU path").
  double ofu_path_period_ps = 0.0;

  // Per-group nominal dynamic energy (fJ per cycle, 50% data activity),
  // leakage (nW) and cell area (um^2), keyed by depth-1 group name.
  struct GroupCost {
    std::string group;
    double dynamic_fj = 0.0;
    double leakage_nw = 0.0;
    double area_um2 = 0.0;
  };
  std::vector<GroupCost> groups;
};

/// Replays `diags` into `sink` (used when a cached artifact is spliced in
/// place of running its stage).
void replay_diags(const std::vector<Diagnostic>& diags, DiagEngine& sink);

// ---------------------------------------------------------------------------
// ArtifactStore
// ---------------------------------------------------------------------------

/// The subcircuit-artifact cache, shared across configurations, specs,
/// sweep worker threads and serve requests: one content-addressed tier
/// per implement() stage output, the slice characterizations the search
/// prices candidates from, and the module and per-cone activity tiers
/// both build on. It is the compiler's only memo layer, and each result
/// lives in exactly one tier. A repeated slice is one `slices` hit. The
/// slice stages have no tier of their own, because the slice key covers
/// all of their inputs; a one-knob configuration delta that misses
/// `slices` still reuses the modules and per-cone activity the delta did
/// not touch.
///
/// Keys are 32-hex content digests (see ArtifactHasher) prefixed with a
/// stage/version tag. What a key covers is stage-specific:
///  - modules / flats: generator parameters only (netlist structure is
///    library-independent),
///  - activity: group structure + boundary probabilities + workload spec
///    + library fingerprint,
///  - lints / placed / routes / timings / powers / act_models: config
///    key + library fingerprint (+ spec timing knobs / workload where the
///    stage reads them),
///  - slices: slice content key + library fingerprint.
///
/// Disabling the store (`set_enabled(false)`) turns every tier into a
/// silent bypass: the cold reference path runs the exact same code, which
/// is what makes cold-vs-warm byte-identity testable.
///
/// Every tier is entered through ArtifactCache::get_or_compute (see its
/// comment for the one concurrency rule). for_each_tier is the one list
/// of tiers: the store-wide operations walk it, so adding a tier takes
/// its member, its line there and its codec (artifact_codec.cpp).
struct ArtifactStore {
  /// Installs the deep-payload-bytes accounting hooks on every tier
  /// (see artifact_codec.hpp), so byte caps bound real memory from the
  /// first insert.
  ArtifactStore();

  /// Calls `f(tier)` on every tier, in declaration order.
  template <typename F>
  void for_each_tier(F&& f) {
    visit_tiers(*this, f);
  }
  template <typename F>
  void for_each_tier(F&& f) const {
    visit_tiers(*this, f);
  }

  rtlgen::ModuleCache modules{"modules"};
  ArtifactCache<netlist::FlatNetlist> flats{"flats"};
  power::ActivityCache activity{"activity"};
  ArtifactCache<LintArtifact> lints{"lints"};
  ArtifactCache<PlacedArtifact> placed{"placed"};
  ArtifactCache<RouteArtifact> routes{"routes"};
  ArtifactCache<TimingArtifact> timings{"timings"};
  ArtifactCache<PowerArtifact> powers{"powers"};
  /// Workload-simulated activity models (implement()'s power stage).
  ArtifactCache<power::ActivityModel> act_models{"act_models"};
  /// Slice characterizations (SubcircuitLibrary::slice), the one memo
  /// of the slice stages.
  ArtifactCache<SliceEval> slices{"slices"};

  void set_enabled(bool on);

  /// Bounds every tier to `max_entries` entries / `max_bytes` approximate
  /// bytes (0 = unlimited), LRU-evicting past either cap — what keeps a
  /// long-running daemon's resident artifact set finite. Totals are per
  /// tier, not across the store.
  void set_capacity(std::size_t max_entries, std::size_t max_bytes = 0);

  /// Attaches `l2` (e.g. a DiskBlobStore) as the durable layer under
  /// every tier, wiring each tier's binary codec; nullptr detaches. With
  /// an L2 attached, lookups read through on L1 miss and inserts are
  /// written back by flush_l2() or on eviction. `l2` is not owned.
  void attach_blob_store(BlobStore* l2);

  /// Encodes every dirty entry of every tier into the attached L2 and
  /// returns how many objects were written (0 when no L2 is attached).
  /// Called by the daemon's drain and at the end of batch runs.
  std::size_t flush_l2();

  /// Per-tier snapshots, in declaration order.
  [[nodiscard]] std::vector<ArtifactTierStats> stats() const;
  [[nodiscard]] std::uint64_t total_hits() const;
  [[nodiscard]] std::uint64_t total_misses() const;
  [[nodiscard]] std::size_t total_entries() const;
  [[nodiscard]] std::uint64_t total_evicted() const;

  /// {"format": "syndcim-artifact-store", "tiers": [{"name", "hits",
  ///  "misses", "entries", "evicted", "inflight_waits", ...}, ...]} —
  /// tier order is stable.
  [[nodiscard]] std::string stats_json() const;

  /// Publishes per-tier counts into the obs metrics registry as
  /// `<prefix>.<tier>.{hits,misses,entries,evicted,inflight_waits,...}`
  /// (no-op when observability is disabled).
  void publish_metrics(const std::string& prefix = "artifact") const;

 private:
  template <typename Store, typename F>
  static void visit_tiers(Store& s, F& f) {
    f(s.modules);
    f(s.flats);
    f(s.activity);
    f(s.lints);
    f(s.placed);
    f(s.routes);
    f(s.timings);
    f(s.powers);
    f(s.act_models);
    f(s.slices);
  }
};

// ---------------------------------------------------------------------------
// StagePipeline
// ---------------------------------------------------------------------------

/// One executed (or skipped) stage of a pipeline run.
struct StageRecord {
  std::string stage;
  std::string key;       ///< artifact content key the stage ran under
  bool skipped = false;  ///< true: stage body not run (artifact reused)
};

/// Deterministic stage runner: each stage declares its input key and its
/// artifact tier; when the tier already holds the key, or another thread
/// is computing it, the stage body is skipped and the tier's artifact
/// spliced in. Stages always land in the attached phase timeline (skipped
/// stages too — a skip is still a phase the compile went through, just a
/// near-instant one), and skips emit `<pipeline>.<stage>.skip` trace
/// spans plus `pipeline.stage.skips` metrics when observability is on.
class StagePipeline {
 public:
  explicit StagePipeline(std::string name,
                         obs::PhaseTimeline* timeline = nullptr)
      : name_(std::move(name)), tl_(timeline) {}

  /// Attaches a cancellation token: `run` checks it at every stage
  /// boundary (before the cache lookup) and unwinds with CancelledError
  /// when it is tripped — the cooperative-cancellation granularity of the
  /// compile pipeline. nullptr detaches.
  void set_cancel(const CancelToken* token) { cancel_ = token; }

  /// Runs one cached stage: `compute` must be a pure function of the
  /// inputs summarized by `key`. Returns the (possibly cached) artifact.
  /// Pass `cache == nullptr` for an uncacheable stage (always runs).
  template <typename T, typename F>
  std::shared_ptr<const T> run(const std::string& stage,
                               ArtifactCache<T>* cache,
                               const std::string& key, F&& compute) {
    if (cancel_ != nullptr) cancel_->check(name_ + "." + stage);
    std::optional<obs::PhaseScope> phase;
    if (tl_ != nullptr) phase.emplace(*tl_, stage);
    const std::uint64_t t0 = obs::now_ns();
    bool ran = false;
    const auto body = [&] {
      ran = true;
      std::optional<obs::SpanGuard> span;
      if (tl_ == nullptr && obs::enabled()) span.emplace(name_ + "." + stage);
      return std::forward<F>(compute)();
    };
    std::shared_ptr<const T> out =
        cache != nullptr ? cache->get_or_compute(key, body)
                         : std::make_shared<const T>(body());
    note(stage, key, !ran, t0);
    return out;
  }

  [[nodiscard]] const std::vector<StageRecord>& records() const {
    return records_;
  }

 private:
  void note(const std::string& stage, const std::string& key, bool skipped,
            std::uint64_t t0);

  std::string name_;
  obs::PhaseTimeline* tl_ = nullptr;
  const CancelToken* cancel_ = nullptr;
  std::vector<StageRecord> records_;
};

}  // namespace syndcim::core
