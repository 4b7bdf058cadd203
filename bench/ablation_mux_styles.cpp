// Ablation A4 (paper Sec. II-B): multiplier/multiplexer circuit styles
// across memory-compute ratios.
//
// Expected shape: the 1T pass gate is smallest but slow and power-hungry
// (degraded level); the OAI22 fused mux-multiplier saves area/wiring but
// does not scale beyond MCR=2; the 2T TG + NOR is the balanced choice.
#include <iostream>

#include "cell/characterize.hpp"
#include "core/compiler.hpp"
#include "core/report.hpp"
#include "tech/tech_node.hpp"

using namespace syndcim;

int main() {
  const auto lib = cell::characterize_default_library(tech::make_default_40nm());
  core::SynDcimCompiler compiler(lib);
  auto& scl = compiler.scl();

  std::cout << "=== Ablation A4: mux/multiplier styles vs MCR ===\n\n";
  core::TextTable t({"mux style", "MCR", "fmax_MHz", "power_uW", "area_um2",
                     "note"});
  for (const int mcr : {1, 2, 4}) {
    for (const auto style :
         {rtlgen::MuxStyle::kPassGate1T, rtlgen::MuxStyle::kTGateNor,
          rtlgen::MuxStyle::kOai22Fused}) {
      core::PerfSpec spec;
      spec.rows = 64;
      spec.cols = 32;
      spec.mcr = mcr;
      spec.input_bits = {4, 8};
      spec.weight_bits = {4, 8};
      spec.mac_freq_mhz = 300.0;
      spec.wupdate_freq_mhz = 300.0;
      auto cfg = spec.base_config();
      cfg.mux = style;
      cfg.ofu.pipeline_regs = 2;
      if (style == rtlgen::MuxStyle::kOai22Fused && mcr > 2) {
        t.add_row({to_string(style), std::to_string(mcr), "-", "-", "-",
                   "not scalable beyond MCR=2 (paper Sec. II-B)"});
        continue;
      }
      const auto ppa = scl.evaluate(cfg, spec).ppa;
      t.add_row({to_string(style), std::to_string(mcr),
                 core::TextTable::num(ppa.fmax_mhz, 0),
                 core::TextTable::num(ppa.power_uw, 0),
                 core::TextTable::num(ppa.area_um2, 0), ""});
    }
  }
  t.print(std::cout);
  std::cout << "\n(power/area at 300 MHz, 0.9 V, slice-composed estimate; "
               "storage grows with MCR so area rises across all styles)\n";
  return 0;
}
