#include "core/searcher.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "rtlgen/ofu.hpp"

namespace syndcim::core {

using rtlgen::MacroConfig;

const DesignPoint& SearchResult::best(const PpaPreference& pref) const {
  if (pareto.empty()) {
    throw std::logic_error("SearchResult::best: no feasible design");
  }
  const DesignPoint* sel = &pareto.front();
  double best_score = 1e300;
  for (const DesignPoint& p : pareto) {
    const double s = preference_score(p, pareto, pref.power, pref.area,
                                      pref.performance);
    if (s < best_score) {
      best_score = s;
      sel = &p;
    }
  }
  return *sel;
}

void SearchResult::append(SearchResult&& other) {
  explored.insert(explored.end(),
                  std::make_move_iterator(other.explored.begin()),
                  std::make_move_iterator(other.explored.end()));
  log.insert(log.end(), std::make_move_iterator(other.log.begin()),
             std::make_move_iterator(other.log.end()));
}

DesignPoint MsoSearcher::evaluate(const MacroConfig& cfg,
                                  const PerfSpec& spec,
                                  std::vector<std::string> applied,
                                  SearchResult& out) {
  const EvalOutcome ev = scl_.evaluate(cfg, spec);
  DesignPoint p;
  p.cfg = cfg;
  p.applied = std::move(applied);
  p.ppa = ev.ppa;
  p.feasible = ev.timing.all_ok();
  p.label = to_string(cfg.mux) + "/" + to_string(cfg.tree.style) + "-fa" +
            std::to_string(static_cast<int>(cfg.tree.fa_fraction * 100)) +
            (cfg.pipe.retime_tree_cpa ? "/tt2" : "") +
            (cfg.column_split > 1
                 ? "/split" + std::to_string(cfg.column_split)
                 : "") +
            (cfg.ofu.retime_stage1 ? "/tt4" : "") +
            (cfg.ofu.pipeline_regs > 0
                 ? "/tt5x" + std::to_string(cfg.ofu.pipeline_regs)
                 : "") +
            (!cfg.ofu.input_reg ? "/fused-ofu" : "") +
            (!cfg.pipe.reg_after_tree ? "/fused-tree" : "") +
            (cfg.bitcell != rtlgen::BitcellKind::k6T
                 ? "/" + to_string(cfg.bitcell)
                 : "");
  out.explored.push_back(p);
  return p;
}

bool MsoSearcher::fix_mac_path(MacroConfig& cfg, const PerfSpec& spec,
                               std::vector<std::string>& applied,
                               SearchResult& out) {
  // Every intermediate configuration is recorded: the paper's Fig. 8
  // scatter is exactly this cloud of partially-optimized designs.
  // tt1: walk the SCL's faster-adder ladder.
  while (!timing(cfg, spec).mac_ok) {
    const auto ladder = SubcircuitLibrary::faster_tree_ladder(cfg.tree);
    if (ladder.empty()) break;
    cfg.tree = ladder.front();
    applied.push_back("tt1:faster-adder(fa=" +
                      std::to_string(cfg.tree.fa_fraction) + ")");
    out.log.push_back("tt1 -> " + applied.back());
    (void)evaluate(cfg, spec, applied, out);
  }
  // tt2: retime the CPA into the S&A stage.
  if (!timing(cfg, spec).mac_ok && !cfg.pipe.retime_tree_cpa &&
      cfg.pipe.reg_after_tree && cfg.column_split == 1 &&
      cfg.tree.style != rtlgen::AdderTreeStyle::kRcaTree) {
    cfg.pipe.retime_tree_cpa = true;
    applied.push_back("tt2:retime-cpa");
    out.log.push_back("tt2 applied");
    (void)evaluate(cfg, spec, applied, out);
  }
  // tt3: split the column height.
  while (!timing(cfg, spec).mac_ok &&
         cfg.rows / (cfg.column_split * 2) >= 8) {
    if (cfg.pipe.retime_tree_cpa) {
      cfg.pipe.retime_tree_cpa = false;  // split supersedes the retiming
    }
    cfg.column_split *= 2;
    applied.push_back("tt3:column-split(" +
                      std::to_string(cfg.column_split) + ")");
    out.log.push_back("tt3 -> split " + std::to_string(cfg.column_split));
    (void)evaluate(cfg, spec, applied, out);
  }
  return timing(cfg, spec).mac_ok;
}

bool MsoSearcher::fix_ofu_path(MacroConfig& cfg, const PerfSpec& spec,
                               std::vector<std::string>& applied,
                               SearchResult& out) {
  // tt4: retime OFU stage 1 into the S&A clock stage.
  if (!timing(cfg, spec).ofu_ok && !cfg.ofu.retime_stage1 &&
      cfg.ofu.input_reg) {
    cfg.ofu.retime_stage1 = true;
    applied.push_back("tt4:retime-ofu-stage1");
    out.log.push_back("tt4 applied");
    (void)evaluate(cfg, spec, applied, out);
  }
  // tt5, repeated until the OFU path meets or is fully pipelined.
  const int max_regs =
      rtlgen::OfuModuleConfig{cfg.max_weight_bits(), cfg.sa_width(), cfg.ofu}
          .n_stages();
  while (!timing(cfg, spec).ofu_ok && cfg.ofu.pipeline_regs < max_regs) {
    ++cfg.ofu.pipeline_regs;
    applied.push_back("tt5:ofu-pipeline(" +
                      std::to_string(cfg.ofu.pipeline_regs) + ")");
    out.log.push_back("tt5 applied (" +
                      std::to_string(cfg.ofu.pipeline_regs) + ")");
    (void)evaluate(cfg, spec, applied, out);
  }
  return timing(cfg, spec).ofu_ok;
}

void MsoSearcher::latency_optimize(MacroConfig& cfg, const PerfSpec& spec,
                                   std::vector<std::string>& applied,
                                   SearchResult& out) {
  // Step 3: try removing registers, most aggressive fusion first.
  if (cfg.ofu.input_reg && !cfg.ofu.retime_stage1 &&
      cfg.ofu.pipeline_regs == 0 && cfg.pipe.reg_after_tree &&
      !cfg.pipe.retime_tree_cpa) {
    MacroConfig fused = cfg;
    fused.ofu.input_reg = false;
    fused.pipe.reg_after_tree = false;
    if (timing(fused, spec).all_ok()) {
      cfg = fused;
      applied.push_back("fuse:tree+sa+ofu");
      out.log.push_back("step3: fused adder, S&A and OFU");
      return;
    }
  }
  if (cfg.ofu.input_reg && !cfg.ofu.retime_stage1 &&
      cfg.ofu.pipeline_regs == 0) {
    MacroConfig fused = cfg;
    fused.ofu.input_reg = false;
    if (timing(fused, spec).all_ok()) {
      cfg = fused;
      applied.push_back("fuse:sa+ofu");
      out.log.push_back("step3: fused S&A and OFU");
    }
  }
}

void MsoSearcher::fine_tune(const MacroConfig& cfg, const PerfSpec& spec,
                            const std::vector<std::string>& applied,
                            SearchResult& out) {
  // ft1: compressor-heavier CSA (power/area) while timing still closes.
  if (cfg.tree.style == rtlgen::AdderTreeStyle::kMixed &&
      cfg.tree.fa_fraction > 0.0) {
    MacroConfig v = cfg;
    v.tree.fa_fraction =
        std::max(0.0, cfg.tree.fa_fraction - 0.25);
    auto a = applied;
    a.push_back("ft1:compressor-heavier");
    (void)evaluate(v, spec, std::move(a), out);
  }
  // ft2: OAI22 fused mux-multiplier (area/wiring) where MCR allows.
  if (cfg.mux == rtlgen::MuxStyle::kTGateNor && cfg.mcr <= 2 &&
      spec.mux == std::nullopt) {
    MacroConfig v = cfg;
    v.mux = rtlgen::MuxStyle::kOai22Fused;
    auto a = applied;
    a.push_back("ft2:oai22-mux");
    (void)evaluate(v, spec, std::move(a), out);
  }
  // ft3: 1T pass-gate mux for minimum area (costs power and speed).
  if (cfg.mux != rtlgen::MuxStyle::kPassGate1T && spec.mux == std::nullopt) {
    MacroConfig v = cfg;
    v.mux = rtlgen::MuxStyle::kPassGate1T;
    auto a = applied;
    a.push_back("ft3:pass-gate-mux");
    (void)evaluate(v, spec, std::move(a), out);
  }
  // Bitcell variant (paper Sec. II-B): the 8T D-latch cell buys write
  // robustness for area — offered as an alternative unless the spec
  // pinned the bitcell.
  if (cfg.bitcell == rtlgen::BitcellKind::k6T &&
      spec.bitcell == std::nullopt) {
    MacroConfig v = cfg;
    v.bitcell = rtlgen::BitcellKind::k8T;
    auto a = applied;
    a.push_back("ft:robust-8T-bitcell");
    (void)evaluate(v, spec, std::move(a), out);
  }
}

std::vector<TrajectorySeed> MsoSearcher::trajectory_seeds(
    const PerfSpec& spec) {
  const MacroConfig base = spec.base_config();
  base.validate();

  std::vector<TrajectorySeed> seeds;

  // One conventional-RCA trajectory (unless the spec pinned the style):
  // demonstrates tt1's family switch out of the template baseline. It
  // skips the step-3 fusion pass, matching the original search flow.
  if (!spec.tree_style) {
    TrajectorySeed s;
    s.cfg = base;
    s.cfg.tree.style = rtlgen::AdderTreeStyle::kRcaTree;
    s.cfg.tree.carry_reorder = false;
    s.name = "seed:rca-tree";
    s.latency_opt = false;
    seeds.push_back(std::move(s));
  }

  // The SPEC-fixed choices, otherwise a spread of mux styles and adder
  // mixes so the result is a frontier, not a point.
  std::vector<rtlgen::MuxStyle> muxes;
  if (spec.mux) {
    muxes = {*spec.mux};
  } else {
    muxes = {rtlgen::MuxStyle::kTGateNor, rtlgen::MuxStyle::kPassGate1T};
    if (spec.mcr <= 2) muxes.push_back(rtlgen::MuxStyle::kOai22Fused);
  }
  std::vector<double> fa_seeds = {0.0, 0.5, 1.0};
  if (spec.tree_style == rtlgen::AdderTreeStyle::kRcaTree) {
    fa_seeds = {0.0};
  }
  for (const rtlgen::MuxStyle mux : muxes) {
    for (const double fa : fa_seeds) {
      TrajectorySeed s;
      s.cfg = base;
      s.cfg.mux = mux;
      if (s.cfg.tree.style == rtlgen::AdderTreeStyle::kMixed) {
        s.cfg.tree.fa_fraction = fa;
      }
      s.name = "seed:" + to_string(mux) + "/fa" +
               std::to_string(static_cast<int>(fa * 100));
      seeds.push_back(std::move(s));
    }
  }
  return seeds;
}

SearchResult MsoSearcher::run_trajectory(const TrajectorySeed& seed,
                                         const PerfSpec& spec) {
  SearchResult out;
  MacroConfig cfg = seed.cfg;
  std::vector<std::string> applied = {seed.name};
  out.log.push_back("trajectory " + seed.name);
  (void)evaluate(cfg, spec, applied, out);  // the unoptimized seed

  const bool mac_ok = fix_mac_path(cfg, spec, applied, out);
  const bool ofu_ok = fix_ofu_path(cfg, spec, applied, out);
  // Record the step-2 result even if infeasible (the evaluation log
  // shows the constrained design space, paper Sec. IV-A).
  (void)evaluate(cfg, spec, applied, out);
  if (!mac_ok || !ofu_ok) return out;

  if (seed.latency_opt) {
    MacroConfig fused = cfg;
    auto fused_applied = applied;
    latency_optimize(fused, spec, fused_applied, out);
    if (fused_applied.size() != applied.size()) {
      (void)evaluate(fused, spec, fused_applied, out);
    }
  }
  fine_tune(cfg, spec, applied, out);
  return out;
}

SearchResult MsoSearcher::search(const PerfSpec& spec) {
  SearchResult out;
  for (const TrajectorySeed& seed : trajectory_seeds(spec)) {
    out.append(run_trajectory(seed, spec));
  }
  out.pareto = pareto_front(out.explored);
  return out;
}

}  // namespace syndcim::core
