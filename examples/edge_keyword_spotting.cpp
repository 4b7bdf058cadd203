// Edge scenario (paper intro: "wearable devices"): an always-on keyword-
// spotting network mapped through the netmap API. A small, power-
// preferred macro pool feeds the fleet allocator under a one-macro
// budget; the example reports per-inference energy and battery-life
// implications — the kind of system-level numbers a DCIM compiler user
// derives from the compiler's network-level report.
//
// Usage: edge_keyword_spotting [model.json]
//   (default model: examples/models/kws.json)
#include <iostream>
#include <map>
#include <string>

#include "cell/characterize.hpp"
#include "core/diag.hpp"
#include "core/report.hpp"
#include "dse/sweep.hpp"
#include "netmap/model.hpp"
#include "netmap/netmap.hpp"
#include "tech/tech_node.hpp"

using namespace syndcim;

int main(int argc, char** argv) {
  const std::string model_path =
      argc > 1 ? argv[1] : "examples/models/kws.json";
  core::DiagEngine diag;
  const netmap::Model model = netmap::parse_model_file(model_path, diag);
  if (diag.has_errors()) {
    diag.print(std::cerr);
    return 1;
  }

  // A wearable budget: low voltage, modest clock, power above all. The
  // grid still spans MCR so the allocator may pick double buffering.
  std::map<std::string, std::string> kv = {
      {"rows", "32"},        {"cols", "32"},
      {"input_bits", "4"},   {"weight_bits", "4"},
      {"mac_mhz", "50"},     {"wupdate_mhz", "50"},
      {"vdd", "0.7"},        {"pref_power", "1.0"},
      {"pref_area", "0.1"},  {"sweep_mcr", "1,2"},
  };
  const auto lib =
      cell::characterize_default_library(tech::make_default_40nm());
  dse::SweepOptions sopt;
  sopt.lint_frontier = false;
  const dse::SweepReport rep =
      dse::run_sweep(lib, dse::grid_from_kv(std::move(kv)).expand(), sopt);
  const auto cands = netmap::candidates_from_frontier(rep);

  netmap::Budget budget;
  budget.max_macros = 1;  // one physical macro on the wearable
  const netmap::NetmapResult res = netmap::run_netmap(model, cands, budget);

  const netmap::FleetEntry& fe = res.fleet.front();
  const netmap::MacroCandidate& mc = res.candidates[fe.candidate_index];
  std::cout << "KWS macro: " << mc.label << " (" << mc.rows << "x" << mc.cols
            << ", MCR=" << mc.mcr << ")\n  "
            << core::TextTable::num(mc.power_uw, 1) << " uW @ "
            << core::TextTable::num(mc.mac_mhz, 0) << " MHz, area "
            << core::TextTable::num(mc.area_um2, 0) << " um^2\n\n";

  std::cout << model.name << ": " << model.layers.size() << " layers, "
            << model.total_macs() << " MACs/inference\n";
  for (const netmap::LayerAssignment& la : res.layers) {
    const netmap::Layer& l = res.model.layers[la.layer_index];
    std::cout << "  " << l.name << ": " << la.grid.k_tiles << "x"
              << la.grid.n_tiles << " tiles, "
              << core::TextTable::num(la.time_us, 2) << " us, "
              << core::TextTable::num(la.energy_pj(), 1) << " pJ\n";
  }

  // One inference = one pass over the chain; energy straight from the
  // netmap evaluator (MAC + weight-update + dead energy).
  const double e_inference_nj = res.total_energy_pj * 1e-3;
  std::cout << "energy/inference ~ " << core::TextTable::num(e_inference_nj, 2)
            << " nJ in " << core::TextTable::num(res.total_time_us, 2)
            << " us (utilization "
            << core::TextTable::num(100.0 * res.utilization, 1) << "%)\n";

  // Always-on duty cycling: 100 inferences/s of audio frames; the macro
  // sleeps between them at ~10% of its active power (retention).
  const double inf_per_s = 100.0;
  const double active_frac = inf_per_s * res.total_time_us * 1e-6;
  const double duty_power_uw =
      mc.power_uw * active_frac + 0.1 * mc.power_uw * (1.0 - active_frac);
  std::cout << "always-on @" << core::TextTable::num(inf_per_s, 0)
            << " inf/s ~ " << core::TextTable::num(duty_power_uw, 2)
            << " uW -> a 100 mAh coin cell (1.5 V) lasts ~"
            << core::TextTable::num(
                   100e-3 * 1.5 / (duty_power_uw * 1e-6) / 24.0 / 365.0, 1)
            << " years on this network alone\n";
  return 0;
}
