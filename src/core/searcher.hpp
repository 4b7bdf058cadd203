#pragma once
#include <string>
#include <vector>

#include "core/design_point.hpp"
#include "core/scl.hpp"
#include "core/spec.hpp"

namespace syndcim::core {

struct SearchResult {
  std::vector<DesignPoint> explored;  ///< every evaluated configuration
  std::vector<DesignPoint> pareto;    ///< feasible non-dominated set
  std::vector<std::string> log;       ///< technique application trace
  [[nodiscard]] bool feasible() const { return !pareto.empty(); }
  /// Pareto point ranked best under the spec's PPA preference.
  [[nodiscard]] const DesignPoint& best(const PpaPreference& pref) const;
  /// Concatenate another fragment's explored/log (pareto is recomputed by
  /// the caller once all fragments are merged).
  void append(SearchResult&& other);
};

/// One independent search trajectory of Algorithm 1: the seed subcircuit
/// selection plus its provenance label. Trajectories never communicate,
/// so the DSE layer (src/dse) runs them as parallel tasks; concatenating
/// the per-trajectory fragments in seed order reproduces the sequential
/// `search` byte for byte.
struct TrajectorySeed {
  rtlgen::MacroConfig cfg;
  std::string name;          ///< "seed:..." label heading the trail
  bool latency_opt = true;   ///< run the step-3 register-fusion pass
};

/// Multi-Spec-Oriented searcher (paper Algorithm 1, "Heuristic
/// Hierarchical Search"). For each seed subcircuit selection it runs:
///
///   Step 1: subcircuit configuration from the SPEC (defaults otherwise)
///   Step 2: critical-path optimization —
///           adder path: tt1 faster adders from the SCL ladder,
///                       tt2 retime the tree CPA into the S&A,
///                       tt3 split the column height in half;
///           OFU path:   tt4 retime OFU stage 1 into the S&A,
///                       tt5 add an OFU pipeline stage
///   Step 3: latency optimization — fuse S&A+OFU, then tree+S&A+OFU, by
///           removing the pipeline registers where timing still closes
///   Step 4: PPA fine-tuning — preference-oriented subcircuit
///           substitutions (ft1 compressor-heavier CSA for power,
///           ft2 OAI22 fused mux for area at MCR<=2, ft3 1T pass-gate mux
///           for minimum area)
///
/// All evaluated points are kept; the result's `pareto` set is the
/// feasible power/area frontier the user (or the preference weights)
/// selects from.
///
/// Every evaluation is one SubcircuitLibrary::evaluate call, memoized by
/// the library's slice tier. The searcher is stateless across calls and
/// the library is thread-safe, so one instance may be shared by
/// concurrent threads (the DSE sweep runs its trajectories that way).
class MsoSearcher {
 public:
  explicit MsoSearcher(SubcircuitLibrary& scl) : scl_(scl) {}

  [[nodiscard]] SearchResult search(const PerfSpec& spec);

  /// The independent trajectory seeds `search` would run for `spec`,
  /// in order.
  [[nodiscard]] static std::vector<TrajectorySeed> trajectory_seeds(
      const PerfSpec& spec);
  /// Run one trajectory to completion (steps 2-4) and return its
  /// fragment of the search result.
  [[nodiscard]] SearchResult run_trajectory(const TrajectorySeed& seed,
                                            const PerfSpec& spec);

 private:
  DesignPoint evaluate(const rtlgen::MacroConfig& cfg, const PerfSpec& spec,
                       std::vector<std::string> applied, SearchResult& out);
  [[nodiscard]] PathStatus timing(const rtlgen::MacroConfig& cfg,
                                  const PerfSpec& spec) {
    return scl_.evaluate(cfg, spec).timing;
  }
  /// Step 2 for one trajectory; returns false if the path cannot be fixed.
  bool fix_mac_path(rtlgen::MacroConfig& cfg, const PerfSpec& spec,
                    std::vector<std::string>& applied, SearchResult& out);
  bool fix_ofu_path(rtlgen::MacroConfig& cfg, const PerfSpec& spec,
                    std::vector<std::string>& applied, SearchResult& out);
  void latency_optimize(rtlgen::MacroConfig& cfg, const PerfSpec& spec,
                        std::vector<std::string>& applied,
                        SearchResult& out);
  void fine_tune(const rtlgen::MacroConfig& cfg, const PerfSpec& spec,
                 const std::vector<std::string>& applied, SearchResult& out);

  SubcircuitLibrary& scl_;
};

}  // namespace syndcim::core
