// Reproduces Fig. 8: the MSO searcher's Pareto frontier for one spec, the
// four selected/implemented designs, and the comparison against the
// template-based baseline compilers.
//
// Paper spec: H=W=64, MCR=2, INT4/8 + FP4/8, MAC & weight-update
// 800 MHz @ 0.9 V. Frequency re-anchoring: our calibrated 40nm substrate
// is ~2x slower than the authors' silicon, so the equivalent constrained
// design point is 400 MHz @ 0.9 V (see EXPERIMENTS.md); the search
// dynamics — base architecture infeasible, tt-techniques required, a
// power/area frontier of feasible designs — are the reproduction target.
#include <iostream>

#include "cell/characterize.hpp"
#include "core/baselines.hpp"
#include "core/compiler.hpp"
#include "core/report.hpp"
#include "tech/tech_node.hpp"

using namespace syndcim;

int main() {
  const auto lib = cell::characterize_default_library(tech::make_default_40nm());
  core::SynDcimCompiler compiler(lib);

  core::PerfSpec spec;
  spec.rows = 64;
  spec.cols = 64;
  spec.mcr = 2;
  spec.input_bits = {4, 8};
  spec.weight_bits = {4, 8};
  spec.fp_formats = {num::kFp8};  // FP4 embeds exactly into the FP8 unit
  spec.mac_freq_mhz = 400.0;
  spec.wupdate_freq_mhz = 400.0;
  spec.vdd = 0.9;

  std::cout << "=== Fig. 8: searched and generated Pareto frontier ===\n";
  std::cout << "spec: 64x64, MCR=2, INT4/8 + FP4/8, " << spec.mac_freq_mhz
            << " MHz @ " << spec.vdd << " V\n\n";

  const auto res = compiler.search(spec);
  std::cout << "-- all " << res.explored.size()
            << " explored design points (power vs area cloud) --\n";
  core::TextTable all({"label", "feasible", "fmax_MHz", "power_uW",
                       "area_um2", "TOPS/W", "latency_cyc"});
  for (const auto& p : res.explored) {
    all.add_row({p.label, core::TextTable::yesno(p.feasible),
                 core::TextTable::num(p.ppa.fmax_mhz, 0),
                 core::TextTable::num(p.ppa.power_uw, 0),
                 core::TextTable::num(p.ppa.area_um2, 0),
                 core::TextTable::num(p.ppa.tops_per_w(), 1),
                 std::to_string(p.ppa.latency_cycles)});
  }
  all.print(std::cout);

  std::cout << "\n-- Pareto frontier (feasible, non-dominated) --\n";
  core::TextTable front({"label", "power_uW", "area_um2", "fmax_MHz"});
  for (const auto& p : res.pareto) {
    front.add_row({p.label, core::TextTable::num(p.ppa.power_uw, 0),
                   core::TextTable::num(p.ppa.area_um2, 0),
                   core::TextTable::num(p.ppa.fmax_mhz, 0)});
  }
  front.print(std::cout);

  // Baseline template compilers, evaluated under the same spec.
  std::cout << "\n-- template-compiler baselines (single fixed design each) "
               "--\n";
  core::TextTable base({"compiler", "meets spec", "power_uW", "area_um2",
                        "note"});
  auto add_baseline = [&](const char* name,
                          std::optional<rtlgen::MacroConfig> cfg,
                          const char* note) {
    if (!cfg) {
      base.add_row({name, "-", "-", "-", "outside scope"});
      return;
    }
    const auto [ppa, timing] = compiler.scl().evaluate(*cfg, spec);
    base.add_row({name, core::TextTable::yesno(timing.all_ok()),
                  core::TextTable::num(ppa.power_uw, 0),
                  core::TextTable::num(ppa.area_um2, 0), note});
  };
  add_baseline("AutoDCIM-style", core::autodcim_style_config(spec),
               "PG mux + RCA tree, INT only");
  add_baseline("ISLPED'23-style", core::islped23_style_config(spec),
               "TG mux + RCA tree, INT only");
  add_baseline("ARCTIC-style", core::arctic_style_config(spec),
               "fixed compressor CSA, INT+FP");
  base.print(std::cout);

  if (!res.feasible()) {
    std::cout << "\nno feasible design — spec too tight for this node\n";
    return 1;
  }

  // Four selected designs implemented to layout (the paper implements four
  // Pareto picks: energy-leaning, area-leaning, balanced, perf-leaning).
  std::cout << "\n-- four selected designs, implemented to layout --\n";
  const core::PpaPreference prefs[4] = {
      {1.0, 0.2, 0.0}, {0.2, 1.0, 0.0}, {1.0, 1.0, 0.0}, {0.5, 0.5, 1.0}};
  const char* names[4] = {"energy-opt", "area-opt", "balanced", "perf-opt"};
  core::TextTable sel({"pick", "label", "post fmax_MHz", "power_uW",
                       "area_mm2", "DRC", "LVS", "timing"});
  for (int i = 0; i < 4; ++i) {
    const auto& p = res.best(prefs[i]);
    core::PerfSpec s = spec;
    s.pref = prefs[i];
    const auto impl = compiler.implement(p.cfg, s);
    sel.add_row({names[i], p.label,
                 core::TextTable::num(impl.fmax_mhz, 0),
                 core::TextTable::num(impl.total_power_uw, 0),
                 core::TextTable::num(impl.macro_area_mm2, 4),
                 impl.drc.clean() ? "clean" : "DIRTY",
                 impl.lvs.clean() ? "clean" : "DIRTY",
                 impl.timing.met() ? "met" : "VIOLATED"});
  }
  sel.print(std::cout);

  std::cout << "\n-- search log --\n";
  for (const auto& l : res.log) std::cout << "  " << l << "\n";
  return 0;
}
