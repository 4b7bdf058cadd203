#pragma once
#include <memory>
#include <string>
#include <vector>

#include "cell/library.hpp"
#include "core/design_point.hpp"
#include "core/spec.hpp"
#include "core/stage.hpp"
#include "rtlgen/arch.hpp"

namespace syndcim::core {

/// Timing classification at the spec voltage for Algorithm 1: does the
/// MAC ("adder") path meet, does the OFU path meet, does the write path
/// meet?
struct PathStatus {
  double mac_period_ps = 0.0;
  double ofu_period_ps = 0.0;
  double write_period_ps = 0.0;
  bool mac_ok = false;
  bool ofu_ok = false;
  bool write_ok = false;
  [[nodiscard]] bool all_ok() const { return mac_ok && ofu_ok && write_ok; }
};

/// Everything the searcher needs to know about one (configuration, spec)
/// pair: the PPA estimate and the per-path timing classification, both
/// derived from one slice characterization.
struct EvalOutcome {
  PpaEstimate ppa;
  PathStatus timing;
};

/// The SynDCIM Subcircuit Library (SCL).
///
/// Characterization runs as a staged pipeline (gen+stitch -> floorplan ->
/// route -> sta -> activity -> power) over a content-addressed
/// ArtifactStore; each stage skips when its input key is already present,
/// and the composed SliceEval lands in the store's `slices` tier. Because
/// the slice content key normalizes the column count, every configuration
/// differing only in `cols` shares one characterization, and a one-knob
/// delta re-runs only the stages its knob reaches.
///
/// The library holds no state besides its store, and the store's tiers
/// are thread-safe with in-flight deduplication, so any number of
/// threads (sweep workers, serve requests) may evaluate through one
/// library — or through several libraries sharing one store — at once.
class SubcircuitLibrary {
 public:
  /// Owns a private artifact store.
  explicit SubcircuitLibrary(const cell::Library& lib)
      : SubcircuitLibrary(lib, std::make_shared<ArtifactStore>()) {}
  /// Shares `store` — the sweep points every worker at one store so
  /// subcircuit artifacts are reused across specs and threads.
  SubcircuitLibrary(const cell::Library& lib,
                    std::shared_ptr<ArtifactStore> store);

  /// Slice characterization of `cfg`: one lookup in the `slices` tier,
  /// characterizing on a miss.
  [[nodiscard]] std::shared_ptr<const SliceEval> slice(
      const rtlgen::MacroConfig& cfg) const;

  /// Full-macro search-time PPA estimate and path timing of `cfg` under
  /// `spec`'s frequency/voltage, from one slice() lookup.
  [[nodiscard]] EvalOutcome evaluate(const rtlgen::MacroConfig& cfg,
                                     const PerfSpec& spec) const;

  /// tt1's "faster adders available in the SCL": the next-faster adder
  /// tree variant after `cur`, if any (more full adders, then reorder).
  [[nodiscard]] static std::vector<rtlgen::AdderTreeConfig>
  faster_tree_ladder(const rtlgen::AdderTreeConfig& cur);

  [[nodiscard]] const cell::Library& cells() const { return lib_; }

  /// The subcircuit-artifact store this library characterizes through.
  [[nodiscard]] ArtifactStore& artifacts() { return *store_; }
  [[nodiscard]] const std::shared_ptr<ArtifactStore>& artifact_store()
      const {
    return store_;
  }

 private:
  /// Runs the slice stage pipeline (the `slices` tier's compute); `skey`
  /// is the slice content key of `cfg`.
  [[nodiscard]] SliceEval characterize(const rtlgen::MacroConfig& cfg,
                                       const std::string& skey) const;

  const cell::Library& lib_;
  std::shared_ptr<ArtifactStore> store_;
};

}  // namespace syndcim::core
