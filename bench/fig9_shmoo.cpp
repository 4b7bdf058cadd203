// Reproduces Fig. 9: shmoo plot of the SynDCIM-generated test macro across
// supply voltage and clock frequency.
//
// The fabricated chip is the balanced Pareto pick of the 64x64 / MCR=2 /
// INT1-8 + FP4/8 spec. A (V, f) point "passes" when the post-layout STA
// closes at that voltage and frequency AND the gate-level macro computes a
// spot-check MAC correctly. Paper anchors: ~1.1 GHz @ 1.2 V, ~300 MHz @
// 0.7 V (our calibrated substrate reproduces the V-scaling shape at ~0.6x
// the absolute frequency — see EXPERIMENTS.md).
#include <iostream>
#include <random>

#include "cell/characterize.hpp"
#include "core/compiler.hpp"
#include "core/report.hpp"
#include "layout/floorplan.hpp"
#include "netlist/flatten.hpp"
#include "sim/macro_tb.hpp"
#include "sta/sta.hpp"
#include "tech/tech_node.hpp"
#include "tech/units.hpp"

using namespace syndcim;

int main() {
  const auto lib = cell::characterize_default_library(tech::make_default_40nm());
  core::SynDcimCompiler compiler(lib);

  core::PerfSpec spec;
  spec.rows = 64;
  spec.cols = 64;
  spec.mcr = 2;
  spec.input_bits = {1, 2, 4, 8};
  spec.weight_bits = {4, 8};
  spec.fp_formats = {num::kFp8};
  spec.mac_freq_mhz = 300.0;  // balanced operating point
  spec.wupdate_freq_mhz = 300.0;

  std::cout << "=== Fig. 9: shmoo plot of the generated test macro ===\n\n";
  const auto res = compiler.compile(spec);
  const auto& cfg = res.selected.cfg;
  std::cout << "chip design: " << res.selected.label << "\n\n";

  // Functional spot check (the silicon test): random MAC on the
  // gate-level netlist against the behavioral model.
  {
    sim::DcimMacroModel model(cfg);
    sim::MacroTestbench tb(res.impl.macro, lib);
    std::mt19937 rng(7);
    std::vector<std::vector<std::int64_t>> w(16);
    for (auto& g : w) {
      g.resize(64);
      for (auto& v : g) v = static_cast<std::int64_t>(rng() % 16) - 8;
    }
    model.load_weights_int(0, 4, w);
    tb.preload_weights(model);
    std::vector<std::int64_t> in(64);
    for (auto& v : in) v = static_cast<std::int64_t>(rng() % 16) - 8;
    const bool ok = tb.run_mac_int(in, 4, 4, 0) == model.mac_int(in, 4, 4, 0);
    std::cout << "functional spot check (INT4 MAC): "
              << (ok ? "PASS" : "FAIL") << "\n\n";
  }

  // Post-layout STA across the (V, f) grid.
  const netlist::FlatNetlist flat =
      netlist::flatten(res.impl.macro.design, res.impl.macro.top);
  const auto fp = layout::sdp_place(flat, lib, cfg);
  const auto wire = layout::extract_wire_model(flat, lib, fp);
  sta::StaEngine sta(flat, lib);

  const std::vector<double> volts = {0.6,  0.65, 0.7,  0.75, 0.8, 0.85,
                                     0.9,  0.95, 1.0,  1.05, 1.1, 1.15,
                                     1.2};
  const std::vector<double> freqs = {100, 150, 200, 250, 300, 350, 400,
                                     450, 500, 550, 600, 650, 700, 800,
                                     900, 1000, 1100};

  std::cout << "shmoo (columns: MHz; '#' pass, '.' fail):\n      ";
  for (const double f : freqs) std::cout << (f >= 1000 ? " " : "  ") << f;
  std::cout << "\n";
  core::TextTable fmax_t({"VDD_V", "fmax_MHz"});
  for (auto v = volts.rbegin(); v != volts.rend(); ++v) {
    std::cout << core::TextTable::num(*v, 2) << "  ";
    double fmax = 0.0;
    for (const double f : freqs) {
      sta::StaOptions opt;
      opt.clock_period_ps = units::period_ps_from_mhz(f);
      opt.write_period_ps = opt.clock_period_ps;
      opt.vdd = *v;
      opt.wire = wire;
      opt.static_inputs = res.impl.macro.static_control_ports();
      const auto rep = sta.analyze(opt);
      const bool pass = rep.met();
      if (pass) fmax = rep.fmax_mhz;
      std::cout << (f >= 1000 ? "   " : "   ") << (pass ? '#' : '.');
    }
    std::cout << "\n";
    fmax_t.add_row({core::TextTable::num(*v, 2),
                    core::TextTable::num(fmax, 0)});
  }
  std::cout << "\nfmax vs VDD:\n";
  fmax_t.print(std::cout);

  // Anchor ratios (the paper's 1.1 GHz @ 1.2 V vs 300 MHz @ 0.7 V).
  sta::StaOptions o12, o07;
  o12.vdd = 1.2;
  o07.vdd = 0.7;
  o12.wire = o07.wire = wire;
  o12.static_inputs = o07.static_inputs =
      res.impl.macro.static_control_ports();
  const double f12 = sta.analyze(o12).fmax_mhz;
  const double f07 = sta.analyze(o07).fmax_mhz;
  std::cout << "\nfmax(1.2V)=" << core::TextTable::num(f12, 0)
            << " MHz, fmax(0.7V)=" << core::TextTable::num(f07, 0)
            << " MHz, ratio=" << core::TextTable::num(f12 / f07, 2)
            << " (paper: 1100/300 = 3.67)\n";
  return 0;
}
