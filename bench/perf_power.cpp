// Probabilistic activity-propagation throughput: the SoA fixpoint kernel
// (klass-partitioned gates, CSR comb arcs, memoized truth masks) vs the
// retained per-gate scalar arm, single-threaded, on a generated DCIM
// macro (32x32, mcr 2, 4/8b precisions — ~12.8k gates).
//
// Both arms run the same 8-pass Gauss-Seidel fixpoint and must produce
// bit-identical ActivityModels; the bench cross-checks every net's
// p_one/toggle_rate before timing and exits nonzero on any mismatch.
// Throughput is full propagate_activity() calls per wall second, timed
// in 9 rounds of `--iters` calls per arm that alternate which arm runs
// first. `--json FILE` dumps the numbers and `--metrics FILE` writes the
// obs metrics registry. Exits nonzero if the median round's SoA
// throughput is not at least 4x the scalar one.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cell/characterize.hpp"
#include "netlist/flatten.hpp"
#include "obs/obs.hpp"
#include "power/activity.hpp"
#include "rtlgen/macro.hpp"
#include "tech/tech_node.hpp"

using namespace syndcim;

namespace {

constexpr int kRounds = 9;  ///< odd, so the median is one round's ratio

double seconds_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

rtlgen::MacroConfig bench_cfg() {
  rtlgen::MacroConfig cfg;
  cfg.rows = 32;
  cfg.cols = 32;
  cfg.mcr = 2;
  cfg.input_bits = {4, 8};
  cfg.weight_bits = {4, 8};
  cfg.fp_formats = {};
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path, metrics_path;
  int iters = 8;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (a == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (a == "--iters" && i + 1 < argc) {
      try {
        iters = std::stoi(argv[++i]);
      } catch (...) {
        iters = 0;
      }
      if (iters < 4) {
        std::cerr << "error: --iters wants an integer >= 4\n";
        return 2;
      }
    } else {
      std::cerr << "usage: perf_power [--iters N] [--json FILE]"
                   " [--metrics FILE]\n";
      return 2;
    }
  }

  const auto lib =
      cell::characterize_default_library(tech::make_default_40nm());
  const auto md = rtlgen::gen_macro(bench_cfg());
  const auto flat = netlist::flatten(md.design, md.top);
  std::printf("macro netlist: %zu gates, %zu nets\n", flat.gates().size(),
              flat.net_count());

  power::ActivitySpec spec;
  spec.input_p1 = 0.37;
  spec.input_toggle = 0.21;

  // --- equivalence self-check (untimed) --------------------------------
  {
    const auto soa = power::propagate_activity(
        flat, lib, spec, power::ActivityEngine::kSoa);
    const auto scalar = power::propagate_activity(
        flat, lib, spec, power::ActivityEngine::kScalar);
    for (std::uint32_t n = 0; n < flat.net_count(); ++n) {
      if (soa.p_one[n] != scalar.p_one[n] ||
          soa.toggle_rate[n] != scalar.toggle_rate[n]) {
        std::cerr << "FAIL: SoA and scalar activity differ on net " << n
                  << " (" << flat.net_name(n) << ")\n";
        return 1;
      }
    }
    std::printf("equivalence self-check passed (%zu nets)\n",
                flat.net_count());
  }

  // --- timed arms ------------------------------------------------------
  auto run_arm = [&](power::ActivityEngine e) {
    const auto t0 = std::chrono::steady_clock::now();
    double sink = 0.0;
    for (int i = 0; i < iters; ++i) {
      const auto am = power::propagate_activity(flat, lib, spec, e);
      sink += am.toggle_rate.empty() ? 0.0 : am.toggle_rate.back();
    }
    const double wall = seconds_since(t0);
    if (sink < 0.0) std::abort();  // keep the loop observable
    return wall;
  };

  // Interleaved rounds: each round times both arms back to back and
  // alternates which one runs first, and the gate reads the median of the
  // per-round speedups. A burst of host load then skews one round, not
  // the verdict, and neither arm always runs on a warmer machine.
  std::vector<double> speedups;
  double scalar_s = 0.0, soa_s = 0.0;
  for (int r = 0; r < kRounds; ++r) {
    double round_scalar = 0.0, round_soa = 0.0;
    if (r % 2 == 0) {
      round_scalar = run_arm(power::ActivityEngine::kScalar);
      round_soa = run_arm(power::ActivityEngine::kSoa);
    } else {
      round_soa = run_arm(power::ActivityEngine::kSoa);
      round_scalar = run_arm(power::ActivityEngine::kScalar);
    }
    scalar_s += round_scalar;
    soa_s += round_soa;
    speedups.push_back(round_scalar / round_soa);
  }
  std::sort(speedups.begin(), speedups.end());
  const double speedup = speedups[kRounds / 2];
  const double scalar_rate = iters * kRounds / scalar_s;
  const double soa_rate = iters * kRounds / soa_s;

  std::printf("scalar: %8.1f ms, %8.1f propagations/s\n", scalar_s * 1e3,
              scalar_rate);
  std::printf("soa   : %8.1f ms, %8.1f propagations/s\n", soa_s * 1e3,
              soa_rate);
  std::printf("speedup over %d rounds: median %.2fx (min %.2fx, max %.2fx)\n",
              kRounds, speedup, speedups.front(), speedups.back());

  if (!json_path.empty()) {
    std::ostringstream os;
    os << "{\"format\": \"syndcim-perf-power\", \"version\": 1,\n"
       << " \"gates\": " << flat.gates().size()
       << ", \"nets\": " << flat.net_count()
       << ", \"iters\": " << iters << ", \"rounds\": " << kRounds << ",\n"
       << " \"scalar\": {\"wall_ms\": " << scalar_s * 1e3
       << ", \"propagations_per_s\": " << scalar_rate << "},\n"
       << " \"soa\": {\"wall_ms\": " << soa_s * 1e3
       << ", \"propagations_per_s\": " << soa_rate
       << ", \"speedup\": " << speedup << "}}\n";
    std::ofstream f(json_path);
    f << os.str();
    if (!f.good()) {
      std::cerr << "error: cannot write " << json_path << "\n";
      return 2;
    }
    std::cout << "wrote " << json_path << "\n";
  }
  if (!metrics_path.empty()) {
    std::ofstream f(metrics_path);
    f << obs::metrics().to_json();
    if (!f.good()) {
      std::cerr << "error: cannot write " << metrics_path << "\n";
      return 2;
    }
    std::cout << "wrote " << metrics_path << "\n";
  }

  // Acceptance gate: in the median round the SoA kernel must buy at
  // least 4x the scalar arm's single-thread propagation throughput.
  if (speedup < 4.0) {
    std::cerr << "FAIL: soa speedup " << speedup << "x < 4x\n";
    return 1;
  }
  std::cout << "OK\n";
  return 0;
}
