// Extension experiment: process-variation robustness of generated macros
// (the intro's motivation for digital CIM — "notable scalability and
// robustness against process, voltage, and temperature variations").
// Monte-Carlo STA over per-gate delay derates gives the fmax distribution
// and parametric yield at the spec frequency, across supply voltages and
// for two searched design points.
#include <iostream>

#include "cell/characterize.hpp"
#include "core/compiler.hpp"
#include "core/report.hpp"
#include "layout/floorplan.hpp"
#include "netlist/flatten.hpp"
#include "sta/sta.hpp"
#include "tech/tech_node.hpp"
#include "tech/units.hpp"

using namespace syndcim;

int main() {
  const auto lib = cell::characterize_default_library(tech::make_default_40nm());
  core::SynDcimCompiler compiler(lib);

  core::PerfSpec spec;
  spec.rows = 64;
  spec.cols = 32;
  spec.mcr = 2;
  spec.input_bits = {4, 8};
  spec.weight_bits = {4, 8};
  spec.mac_freq_mhz = 350.0;
  spec.wupdate_freq_mhz = 350.0;

  std::cout << "=== Extension: PVT-variation yield of generated macros "
               "===\n\n";
  const auto res = compiler.search(spec);
  if (!res.feasible()) {
    std::cout << "spec infeasible\n";
    return 1;
  }
  const core::PpaPreference perf{0.1, 0.1, 1.0};
  std::vector<core::DesignPoint> picks = {res.best(perf)};
  std::vector<const char*> names = {"perf-leaning"};
  for (const auto& p : res.pareto) {
    if (p.cfg.mux != picks[0].cfg.mux) {  // a structurally different pick
      picks.push_back(p);
      names.push_back("alternate mux style");
      break;
    }
  }

  for (std::size_t i = 0; i < picks.size(); ++i) {
    const auto md = rtlgen::gen_macro(picks[i].cfg);
    const auto flat = netlist::flatten(md.design, md.top);
    const auto fp = layout::sdp_place(flat, lib, picks[i].cfg);
    const auto wire = layout::extract_wire_model(flat, lib, fp);
    sta::StaEngine eng(flat, lib);

    std::cout << "-- " << names[i] << ": " << picks[i].label << " --\n";
    core::TextTable t({"VDD_V", "nominal fmax", "mean fmax", "sigma",
                       "yield@spec", "yield@0.9*spec"});
    for (const double vdd : {0.8, 0.9, 1.0, 1.1}) {
      sta::StaOptions opt;
      opt.vdd = vdd;
      opt.wire = wire;
      opt.static_inputs = md.static_control_ports();
      opt.clock_period_ps = units::period_ps_from_mhz(spec.mac_freq_mhz);
      const auto nom = eng.analyze(opt);
      // 6% local sigma + 4% global corner spread.
      const auto var = eng.analyze_variation(opt, 0.06, 0.04, 60);
      t.add_row({core::TextTable::num(vdd, 1),
                 core::TextTable::num(nom.fmax_mhz, 0),
                 core::TextTable::num(var.mean_fmax_mhz, 0),
                 core::TextTable::num(var.sigma_fmax_mhz, 1),
                 core::TextTable::num(100 * var.yield_at(spec.mac_freq_mhz),
                                      0) +
                     "%",
                 core::TextTable::num(
                     100 * var.yield_at(0.9 * spec.mac_freq_mhz), 0) +
                     "%"});
    }
    t.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "(digital CIM's voltage headroom converts directly into "
               "parametric yield — the shmoo's diagonal under variation)\n";
  return 0;
}
