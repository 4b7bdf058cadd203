// Ablation A2 (paper Algorithm 1): contribution of each throughput
// technique. Starting from the base architecture of the Fig. 8 spec, the
// techniques are applied cumulatively and the MAC/OFU path requirements
// and PPA are tracked — showing why the heuristic applies them in this
// order and what each one buys.
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

  core::PerfSpec spec;
  spec.rows = 64;
  spec.cols = 64;
  spec.mcr = 2;
  spec.input_bits = {4, 8};
  spec.weight_bits = {4, 8};
  spec.mac_freq_mhz = 400.0;
  spec.wupdate_freq_mhz = 400.0;

  std::cout << "=== Ablation A2: Algorithm 1 technique contributions ===\n";
  std::cout << "spec: 64x64 MCR=2 INT4/8 @ " << spec.mac_freq_mhz
            << " MHz, target period "
            << core::TextTable::num(spec.period_ps(), 0) << " ps (margined "
            << core::TextTable::num(spec.period_ps() * 0.9, 0) << ")\n\n";

  struct Step {
    const char* name;
    rtlgen::MacroConfig cfg;
  };
  std::vector<Step> steps;
  rtlgen::MacroConfig cfg = spec.base_config();
  steps.push_back({"base (compressor-lean CSA, full regs)", cfg});
  cfg.tree.fa_fraction = 0.5;
  steps.push_back({"+ tt1 faster adders (fa=0.5)", cfg});
  cfg.tree.fa_fraction = 1.0;
  steps.push_back({"+ tt1 faster adders (fa=1.0)", cfg});
  {
    auto v = cfg;
    v.pipe.retime_tree_cpa = true;
    steps.push_back({"+ tt2 retime CPA into S&A", v});
  }
  cfg.column_split = 2;
  steps.push_back({"+ tt3 column split x2", cfg});
  cfg.ofu.retime_stage1 = true;
  steps.push_back({"+ tt4 retime OFU stage 1", cfg});
  cfg.ofu.pipeline_regs = 1;
  steps.push_back({"+ tt5 OFU pipeline reg x1", cfg});
  cfg.ofu.pipeline_regs = 2;
  steps.push_back({"+ tt5 OFU pipeline reg x2", cfg});

  core::TextTable t({"configuration", "MAC path ps", "OFU path ps",
                     "MAC ok", "OFU ok", "power_uW", "area_um2",
                     "latency_cyc"});
  for (const Step& s : steps) {
    const auto [ppa, st] = scl.evaluate(s.cfg, spec);
    t.add_row({s.name, core::TextTable::num(st.mac_period_ps, 0),
               core::TextTable::num(st.ofu_period_ps, 0),
               core::TextTable::yesno(st.mac_ok),
               core::TextTable::yesno(st.ofu_ok),
               core::TextTable::num(ppa.power_uw, 0),
               core::TextTable::num(ppa.area_um2, 0),
               std::to_string(ppa.latency_cycles)});
  }
  t.print(std::cout);

  // Step-3 register fusion at a loose spec: latency drops, power drops.
  std::cout << "\n-- step 3 (register fusion) at a loose 150 MHz spec --\n";
  core::PerfSpec loose = spec;
  loose.mac_freq_mhz = 150.0;
  loose.wupdate_freq_mhz = 150.0;
  rtlgen::MacroConfig reg_cfg = loose.base_config();
  rtlgen::MacroConfig fused = reg_cfg;
  fused.pipe.reg_after_tree = false;
  fused.ofu.input_reg = false;
  core::TextTable t2({"configuration", "feasible", "power_uW",
                      "latency_cyc"});
  for (const auto& [name, c] :
       {std::pair<const char*, rtlgen::MacroConfig>{"fully registered",
                                                    reg_cfg},
        {"fused tree+S&A+OFU", fused}}) {
    const auto [ppa, st] = scl.evaluate(c, loose);
    t2.add_row({name, core::TextTable::yesno(st.all_ok()),
                core::TextTable::num(ppa.power_uw, 0),
                std::to_string(ppa.latency_cycles)});
  }
  t2.print(std::cout);
  return 0;
}
