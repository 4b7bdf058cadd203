// System-level study (paper intro: DCIM "system-level acceleration"):
// map a small CNN onto fleets of compiled macros through the netmap API
// and compare budget points — showing how the spec-oriented synthesis
// propagates to application-level latency and energy, and what the
// heterogeneous allocator buys over the best single-macro-type fleet.
//
// Usage: cnn_accelerator_study [model.json]
//   (default model: examples/models/tiny_cnn.json)
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
      argc > 1 ? argv[1] : "examples/models/tiny_cnn.json";
  core::DiagEngine diag;
  const netmap::Model model = netmap::parse_model_file(model_path, diag);
  if (diag.has_errors()) {
    diag.print(std::cerr);
    return 1;
  }
  std::cout << "=== CNN accelerator study: " << model.name << " ("
            << model.layers.size() << " layers, " << model.total_macs()
            << " MACs) ===\n";

  // Candidate pool: one sweep across clock / MCR / preference — the
  // multi-spec DSE becomes the inner loop of the fleet compiler.
  std::map<std::string, std::string> kv = {
      {"rows", "64"},          {"cols", "64"},
      {"input_bits", "4,8"},   {"weight_bits", "4,8"},
      {"sweep_mac_mhz", "200,400"}, {"sweep_mcr", "1,2"},
      {"sweep_pref", "power,perf"},
  };
  const auto lib =
      cell::characterize_default_library(tech::make_default_40nm());
  dse::SweepOptions sopt;
  sopt.lint_frontier = false;  // the pool only needs the points
  const dse::SweepReport rep =
      dse::run_sweep(lib, dse::grid_from_kv(std::move(kv)).expand(), sopt);
  const auto cands = netmap::candidates_from_frontier(rep);
  std::cout << "candidate pool: " << cands.size()
            << " frontier macro types\n\n";

  struct Scenario {
    const char* name;
    int budget_macros;
  };
  const Scenario scenarios[] = {
      {"edge  (1-macro budget)", 1},
      {"cloud (4-macro budget)", 4},
  };

  core::TextTable t({"scenario", "fleet", "net_time_us", "net_energy_uJ",
                     "util_%", "homog_energy_uJ", "het_gain_%"});
  for (const Scenario& sc : scenarios) {
    netmap::Budget budget;
    budget.max_macros = sc.budget_macros;
    const netmap::NetmapResult res = netmap::run_netmap(model, cands, budget);
    const double gain =
        res.homog.valid && res.homog.energy_pj > 0
            ? 100.0 * (res.homog.energy_pj - res.total_energy_pj) /
                  res.homog.energy_pj
            : 0.0;
    t.add_row({sc.name,
               std::to_string(res.fleet_macros) + " macros/" +
                   std::to_string(res.fleet.size()) + " types",
               core::TextTable::num(res.total_time_us, 1),
               core::TextTable::num(res.total_energy_pj * 1e-6, 3),
               core::TextTable::num(100.0 * res.utilization, 1),
               core::TextTable::num(res.homog.energy_pj * 1e-6, 3),
               core::TextTable::num(gain, 2)});

    if (&sc == &scenarios[1]) {
      std::cout << "per-layer mapping (" << sc.name << "):\n";
      core::TextTable lt({"layer", "macro", "count", "tiles(kxn)",
                          "dbl_buf", "time_us", "energy_uJ", "util_%"});
      for (const netmap::LayerAssignment& la : res.layers) {
        const netmap::Layer& l = res.model.layers[la.layer_index];
        const netmap::MacroCandidate& c = res.candidates[la.candidate_index];
        lt.add_row({l.name, c.label, std::to_string(la.count),
                    std::to_string(la.grid.k_tiles) + "x" +
                        std::to_string(la.grid.n_tiles),
                    core::TextTable::yesno(la.sched.double_buffered),
                    core::TextTable::num(la.time_us, 2),
                    core::TextTable::num(la.energy_pj() * 1e-6, 4),
                    core::TextTable::num(100.0 * la.utilization, 1)});
      }
      lt.print(std::cout);
      std::cout << "\n";
    }
  }
  t.print(std::cout);
  std::cout << "\n(the heterogeneous fleet never loses to the best\n"
               " homogeneous one on energy — the allocator enforces it)\n";
  return 0;
}
