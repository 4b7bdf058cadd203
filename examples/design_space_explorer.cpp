// Design-space exploration: the DSE loop the paper's Fig. 2 sits inside.
// Sweeps array shape, frequency target and voltage; prints a CSV of the
// merged Pareto cloud so it can be plotted or fed to a system-level
// mapper. Shows the SCL's caching making repeated searches cheap.
#include <chrono>
#include <iostream>

#include "cell/characterize.hpp"
#include "core/compiler.hpp"
#include "core/report.hpp"
#include "tech/tech_node.hpp"

using namespace syndcim;

int main() {
  const auto library =
      cell::characterize_default_library(tech::make_default_40nm());
  core::SynDcimCompiler compiler(library);

  std::cout << "dim,mcr,freq_mhz,vdd,label,feasible,fmax_mhz,power_uw,"
               "area_um2,tops_1b,tops_per_w,latency_cycles\n";

  const auto t0 = std::chrono::steady_clock::now();
  int searches = 0, points = 0;
  for (const int dim : {32, 64}) {
    for (const int mcr : {1, 2}) {
      for (const double freq : {200.0, 400.0}) {
        for (const double vdd : {0.8, 0.9}) {
          core::PerfSpec spec;
          spec.rows = dim;
          spec.cols = dim;
          spec.mcr = mcr;
          spec.input_bits = {4, 8};
          spec.weight_bits = {4, 8};
          spec.mac_freq_mhz = freq;
          spec.wupdate_freq_mhz = freq;
          spec.vdd = vdd;
          const auto res = compiler.search(spec);
          ++searches;
          for (const auto& p : res.pareto) {
            ++points;
            std::cout << dim << ',' << mcr << ',' << freq << ',' << vdd
                      << ',' << p.label << ',' << (p.feasible ? 1 : 0) << ','
                      << core::TextTable::num(p.ppa.fmax_mhz, 0) << ','
                      << core::TextTable::num(p.ppa.power_uw, 0) << ','
                      << core::TextTable::num(p.ppa.area_um2, 0) << ','
                      << core::TextTable::num(p.ppa.tops_1b, 3) << ','
                      << core::TextTable::num(p.ppa.tops_per_w(), 1) << ','
                      << p.ppa.latency_cycles << "\n";
          }
        }
      }
    }
  }
  const auto dt = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  std::cerr << searches << " searches, " << points
            << " Pareto points in " << core::TextTable::num(dt, 1)
            << " s (" << compiler.scl().artifacts().slices.stats().entries
            << " cached slice characterizations)\n";
  return 0;
}
