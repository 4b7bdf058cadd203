// Ablation A3 (paper Sec. III-D): structured-data-path placement vs an
// unstructured scattered placement of the same netlist.
//
// Expected shape: SDP's regular strips keep datapath nets short — less
// wirelength, less wire capacitance, faster and lower-power post-layout
// results; the scattered placement "cells may be scattered, affecting
// macro performance".
#include <iostream>

#include "cell/characterize.hpp"
#include "core/report.hpp"
#include "core/spec.hpp"
#include "layout/floorplan.hpp"
#include "layout/route.hpp"
#include "netlist/flatten.hpp"
#include "power/power.hpp"
#include "rtlgen/macro.hpp"
#include "sta/sta.hpp"
#include "tech/tech_node.hpp"

using namespace syndcim;

int main() {
  const auto lib = cell::characterize_default_library(tech::make_default_40nm());

  core::PerfSpec spec;
  spec.rows = 64;
  spec.cols = 32;
  spec.mcr = 2;
  spec.input_bits = {4, 8};
  spec.weight_bits = {4, 8};
  auto cfg = spec.base_config();
  cfg.ofu.pipeline_regs = 2;

  std::cout << "=== Ablation A3: SDP vs scattered placement (64x32 macro) "
               "===\n\n";
  const auto md = rtlgen::gen_macro(cfg);
  const auto flat = netlist::flatten(md.design, md.top);
  std::cout << "netlist: " << flat.gates().size() << " cells, "
            << flat.net_count() << " nets\n\n";

  sta::StaEngine sta(flat, lib);
  const auto act =
      power::propagate_activity(flat, lib, power::ActivitySpec{});

  core::TextTable t({"placement", "outline_mm2", "util", "wirelength_mm",
                     "routed_mm", "cong_avg", "cong_max", "fmax_MHz",
                     "power_uW", "DRC", "LVS"});
  for (const auto& [name, fp] :
       {std::pair<const char*, layout::Floorplan>{
            "SDP (structured)", layout::sdp_place(flat, lib, cfg)},
        {"scattered", layout::scattered_place(flat, lib, 1)}}) {
    const auto wire = layout::extract_wire_model(flat, lib, fp);
    sta::StaOptions topt;
    topt.wire = wire;
    topt.static_inputs = md.static_control_ports();
    const auto rep = sta.analyze(topt);
    power::PowerOptions popt;
    popt.freq_mhz = 300.0;
    popt.wire = wire;
    const auto pw = power::analyze_power(flat, lib, act, popt);
    const auto rr = layout::global_route(flat, fp, lib.node());
    t.add_row({name, core::TextTable::num(fp.outline.area() * 1e-6, 4),
               core::TextTable::num(fp.utilization, 2),
               core::TextTable::num(fp.wirelength_um * 1e-3, 1),
               core::TextTable::num(rr.total_routed_um * 1e-3, 1),
               core::TextTable::num(rr.avg_utilization, 2),
               core::TextTable::num(rr.max_utilization, 2),
               core::TextTable::num(rep.fmax_mhz, 0),
               core::TextTable::num(pw.total_uw(), 0),
               layout::run_drc(flat, lib, fp).clean() ? "clean" : "DIRTY",
               layout::run_lvs(flat, lib, fp).clean() ? "clean" : "DIRTY"});
  }
  t.print(std::cout);
  return 0;
}
