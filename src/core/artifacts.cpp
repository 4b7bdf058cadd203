#include "core/artifacts.hpp"

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "cell/liberty.hpp"
#include "core/report.hpp"
#include "layout/sdp_script.hpp"
#include "netlist/flatten.hpp"
#include "netlist/verilog.hpp"
#include "num/alignment.hpp"
#include "rtlgen/ofu.hpp"
#include "sta/sdc.hpp"

namespace syndcim::core {

namespace {
std::ofstream open_out(const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("write_artifacts: cannot open " + path);
  }
  return os;
}
}  // namespace

std::vector<std::string> write_artifacts(const CompileResult& result,
                                         const PerfSpec& spec,
                                         const cell::Library& lib,
                                         const std::string& dir) {
  if (!result.impl.flat) {
    throw std::invalid_argument("write_artifacts: result has no netlist");
  }
  std::filesystem::create_directories(dir);
  std::vector<std::string> written;
  const auto& macro = result.impl.macro;

  {
    const std::string p = dir + "/macro.v";
    auto os = open_out(p);
    netlist::write_verilog(macro.design, macro.top, os);
    written.push_back(p);
  }
  {
    const std::string p = dir + "/constraints.sdc";
    auto os = open_out(p);
    sta::StaOptions opt;
    opt.clock_period_ps = spec.period_ps();
    opt.write_period_ps = spec.write_period_ps();
    opt.vdd = spec.vdd;
    opt.static_inputs = macro.static_control_ports();
    sta::write_sdc(opt, os);
    written.push_back(p);
  }
  const netlist::FlatNetlist& flat = *result.impl.flat;
  {
    const std::string p = dir + "/sdp_place.tcl";
    auto os = open_out(p);
    layout::write_sdp_tcl(flat, result.impl.floorplan, os);
    written.push_back(p);
  }
  {
    const std::string p = dir + "/macro.def";
    auto os = open_out(p);
    layout::write_def(flat, result.impl.floorplan, macro.top, os);
    written.push_back(p);
  }
  {
    const std::string p = dir + "/cells.lib";
    auto os = open_out(p);
    cell::write_liberty(lib, os);
    written.push_back(p);
  }
  {
    // Macro datasheet: what an integrator needs without reading the
    // netlist — interface, precision modes, latency, PPA by subsystem.
    const std::string p = dir + "/datasheet.md";
    auto os = open_out(p);
    const auto& cfg = result.selected.cfg;
    os << "# SynDCIM macro datasheet\n\n";
    os << "## Architecture\n\n";
    os << "| parameter | value |\n|---|---|\n";
    os << "| array (rows x cols) | " << cfg.rows << " x " << cfg.cols
       << " |\n";
    os << "| memory-compute ratio | " << cfg.mcr << " (storage "
       << TextTable::num(result.impl.macro.cfg.storage_bits() / 1024.0, 2)
       << " Kb) |\n";
    os << "| bitcell | " << rtlgen::to_string(cfg.bitcell) << " |\n";
    os << "| mux/multiplier | " << rtlgen::to_string(cfg.mux) << " |\n";
    os << "| adder tree | " << rtlgen::to_string(cfg.tree.style)
       << ", fa_fraction " << cfg.tree.fa_fraction << ", carry reorder "
       << (cfg.tree.carry_reorder ? "on" : "off") << " |\n";
    os << "| column split | " << cfg.column_split << " |\n";
    os << "| pipeline | tree reg " << (cfg.pipe.reg_after_tree ? "yes" : "no")
       << ", CPA retimed " << (cfg.pipe.retime_tree_cpa ? "yes" : "no")
       << ", OFU input reg " << (cfg.ofu.input_reg ? "yes" : "no")
       << ", OFU pipeline regs " << cfg.ofu.pipeline_regs << " |\n\n";
    os << "## Precisions and latency\n\n";
    os << "| mode | serial cycles | output-valid cycle (from load) |\n"
       << "|---|---|---|\n";
    for (const int ib : cfg.input_bits) {
      const rtlgen::OfuModuleConfig ocfg{cfg.max_weight_bits(),
                                         cfg.sa_width(), cfg.ofu};
      os << "| INT" << ib << " x INT" << cfg.max_weight_bits() << " | "
         << ib << " | "
         << result.impl.macro.ofu_valid_cycle(ib, ocfg.n_stages())
         << " |\n";
    }
    for (const auto& f : cfg.fp_formats) {
      const int ib = num::aligned_mant_bits(f, cfg.fp_guard_bits);
      const rtlgen::OfuModuleConfig ocfg{cfg.max_weight_bits(),
                                         cfg.sa_width(), cfg.ofu};
      os << "| " << f.name() << " | " << ib << " (+"
         << result.impl.macro.align_latency() << " align) | "
         << result.impl.macro.ofu_valid_cycle(ib, ocfg.n_stages())
         << " |\n";
    }
    os << "\n## Post-layout PPA by subsystem\n\n";
    os << "| group | dynamic uW | leakage uW | area um^2 |\n|---|---|---|---|\n";
    for (const auto& g : result.impl.power.by_group) {
      if (g.dynamic_uw + g.leakage_uw <
          result.impl.power.total_uw() * 0.005) {
        continue;
      }
      os << "| " << g.group << " | " << TextTable::num(g.dynamic_uw, 1)
         << " | " << TextTable::num(g.leakage_uw, 2) << " | "
         << TextTable::num(result.impl.cell_area.group_um2(g.group), 0)
         << " |\n";
    }
    os << "\nfmax " << TextTable::num(result.impl.fmax_mhz, 0)
       << " MHz @ " << spec.vdd << " V; outline "
       << TextTable::num(result.impl.floorplan.outline.w, 0) << " x "
       << TextTable::num(result.impl.floorplan.outline.h, 0)
       << " um; utilization "
       << TextTable::num(result.impl.floorplan.utilization, 2) << "\n";
    written.push_back(p);
  }
  {
    const std::string p = dir + "/report.txt";
    auto os = open_out(p);
    os << "SynDCIM compile report\n======================\n\n";
    os << "spec: " << spec.rows << "x" << spec.cols << " MCR=" << spec.mcr
       << " @ " << spec.mac_freq_mhz << " MHz, " << spec.vdd << " V\n\n";
    os << "selected design: " << result.selected.label << "\n";
    for (const auto& a : result.selected.applied) {
      os << "  " << a << "\n";
    }
    os << "\nsearch: " << result.search.explored.size() << " points, "
       << result.search.pareto.size() << " on the Pareto frontier\n";
    TextTable t({"metric", "value"});
    t.add_row({"post-layout fmax (MHz)",
               TextTable::num(result.impl.fmax_mhz, 1)});
    t.add_row({"macro area (mm^2)",
               TextTable::num(result.impl.macro_area_mm2, 4)});
    t.add_row({"power at target clock (uW)",
               TextTable::num(result.impl.total_power_uw, 1)});
    t.add_row({"TOPS (1b-1b)", TextTable::num(result.impl.tops_1b, 3)});
    t.add_row({"TOPS/W", TextTable::num(result.impl.tops_per_w(), 1)});
    t.add_row({"DRC", result.impl.drc.clean() ? "clean" : "DIRTY"});
    t.add_row({"LVS", result.impl.lvs.clean() ? "clean" : "DIRTY"});
    t.add_row({"timing", result.impl.timing.met() ? "met" : "VIOLATED"});
    t.print(os);
    written.push_back(p);
  }
  return written;
}

}  // namespace syndcim::core
