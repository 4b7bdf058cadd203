// Gate-level simulation throughput: the 64-lane bit-parallel,
// event-driven GateSim vs the retained scalar seed engine
// (sim::ScalarGateSim), single-threaded, on a generated DCIM macro.
//
// Two arms drive the same random stimulus schedule (the packed arm runs a
// precomputed 64-lane word stream; the scalar arm replays its lane 0):
//
//   1. scalar  — ScalarGateSim: one workload cycle per step, per-bit
//                string-keyed stimulus (the seed engine's hot path)
//   2. event64 — GateSim lanes=64, per-level dirty-gate worklist
//
// Throughput is workload cycles per wall second: steps x lanes / wall, so
// each arm is credited for the independent stimulus streams it carries.
// Before timing, lane 0 of the packed engine is cross-checked against a
// scalar replay on every net value.
//
// Prints per-arm throughput plus scheduler statistics; `--json FILE`
// dumps the numbers and `--metrics FILE` writes the obs metrics registry
// (sim.gate_evals / sim.events_skipped / sim.lanes). Exits nonzero if the
// event-driven 64-lane arm is not at least 8x the scalar throughput or
// the lane-0 cross-check fails.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "cell/characterize.hpp"
#include "netlist/flatten.hpp"
#include "obs/obs.hpp"
#include "rtlgen/macro.hpp"
#include "sim/gate_sim.hpp"
#include "sim/scalar_ref.hpp"
#include "tech/tech_node.hpp"

using namespace syndcim;

namespace {

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

struct ArmResult {
  double wall_s = 0.0;
  double throughput = 0.0;  ///< workload cycles / second
  std::uint64_t gate_evals = 0;
  std::uint64_t events_skipped = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path, metrics_path;
  int cycles = 512;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (a == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (a == "--cycles" && i + 1 < argc) {
      try {
        cycles = std::stoi(argv[++i]);
      } catch (...) {
        cycles = 0;
      }
      if (cycles < 8) {
        std::cerr << "error: --cycles wants an integer >= 8\n";
        return 2;
      }
    } else {
      std::cerr << "usage: perf_gate_sim [--cycles N] [--json FILE]"
                   " [--metrics FILE]\n";
      return 2;
    }
  }

  const auto lib =
      cell::characterize_default_library(tech::make_default_40nm());
  const auto md = rtlgen::gen_macro(bench_cfg());
  const auto flat = netlist::flatten(md.design, md.top);
  const auto& ins = flat.primary_inputs();
  std::printf("macro netlist: %zu gates, %zu nets, %zu primary inputs\n",
              flat.gates().size(), flat.net_count(), ins.size());

  // One shared 64-lane stimulus stream; the scalar arm replays lane 0.
  std::mt19937_64 rng(2024);
  std::vector<std::vector<std::uint64_t>> stim(
      static_cast<std::size_t>(cycles),
      std::vector<std::uint64_t>(ins.size()));
  for (auto& step : stim) {
    for (auto& w : step) w = rng();
  }

  // --- equivalence self-check (untimed) --------------------------------
  {
    sim::GateSim packed(flat, lib, 64);
    sim::ScalarGateSim ref(flat, lib);
    const int check = std::min(cycles, 48);
    for (int t = 0; t < check; ++t) {
      for (std::size_t i = 0; i < ins.size(); ++i) {
        packed.set_input_word(ins[i].name, stim[static_cast<std::size_t>(t)][i]);
        ref.set_input(ins[i].name,
                      static_cast<int>(stim[static_cast<std::size_t>(t)][i] & 1u));
      }
      packed.step();
      ref.step();
    }
    packed.eval();
    ref.eval();
    for (std::uint32_t n = 0; n < flat.net_count(); ++n) {
      if (static_cast<int>(packed.net_word(n) & 1u) != ref.net_value(n)) {
        std::cerr << "FAIL: lane 0 of net " << n
                  << " disagrees with the scalar reference\n";
        return 1;
      }
    }
    std::printf("lane-0 scalar cross-check passed (%d cycles)\n", check);
  }

  // --- timed arms ------------------------------------------------------
  auto run_scalar = [&]() {
    sim::ScalarGateSim s(flat, lib);
    const auto t0 = std::chrono::steady_clock::now();
    for (int t = 0; t < cycles; ++t) {
      for (std::size_t i = 0; i < ins.size(); ++i) {
        s.set_input(ins[i].name,
                    static_cast<int>(stim[static_cast<std::size_t>(t)][i] & 1u));
      }
      s.step();
    }
    ArmResult r;
    r.wall_s = seconds_since(t0);
    r.throughput = static_cast<double>(cycles) / r.wall_s;
    return r;
  };
  auto run_packed = [&]() {
    sim::GateSim s(flat, lib, 64);
    const auto t0 = std::chrono::steady_clock::now();
    for (int t = 0; t < cycles; ++t) {
      for (std::size_t i = 0; i < ins.size(); ++i) {
        s.set_input_word(ins[i].name, stim[static_cast<std::size_t>(t)][i]);
      }
      s.step();
    }
    ArmResult r;
    r.wall_s = seconds_since(t0);
    r.throughput = static_cast<double>(cycles) * 64.0 / r.wall_s;
    r.gate_evals = s.gate_evals();
    r.events_skipped = s.events_skipped();
    return r;
  };

  const ArmResult scalar = run_scalar();
  const ArmResult event64 = run_packed();

  const double speedup_event = event64.throughput / scalar.throughput;
  const double skip_frac =
      event64.gate_evals + event64.events_skipped > 0
          ? static_cast<double>(event64.events_skipped) /
                static_cast<double>(event64.gate_evals +
                                    event64.events_skipped)
          : 0.0;

  std::printf("scalar : %8.1f ms, %10.0f cycles/s\n", scalar.wall_s * 1e3,
              scalar.throughput);
  std::printf("event64: %8.1f ms, %10.0f cycles/s (%.1fx scalar, "
              "%.0f%% evals skipped)\n",
              event64.wall_s * 1e3, event64.throughput, speedup_event,
              100.0 * skip_frac);

  obs::metrics().counter("sim.gate_evals").inc(event64.gate_evals);
  obs::metrics().counter("sim.events_skipped").inc(event64.events_skipped);
  obs::metrics().gauge("sim.lanes").set(64.0);

  if (!json_path.empty()) {
    std::ostringstream os;
    os << "{\"format\": \"syndcim-perf-gate-sim\", \"version\": 1,\n"
       << " \"gates\": " << flat.gates().size()
       << ", \"nets\": " << flat.net_count()
       << ", \"cycles\": " << cycles << ", \"lanes\": 64,\n"
       << " \"scalar\": {\"wall_ms\": " << scalar.wall_s * 1e3
       << ", \"cycles_per_s\": " << scalar.throughput << "},\n"
       << " \"event64\": {\"wall_ms\": " << event64.wall_s * 1e3
       << ", \"cycles_per_s\": " << event64.throughput
       << ", \"speedup\": " << speedup_event
       << ", \"gate_evals\": " << event64.gate_evals
       << ", \"events_skipped\": " << event64.events_skipped
       << ", \"skip_fraction\": " << skip_frac << "}}\n";
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

  // Acceptance gate: 64 packed lanes must buy at least 8x the scalar
  // seed's single-thread simulated-cycle throughput.
  if (speedup_event < 8.0) {
    std::cerr << "FAIL: event64 speedup " << speedup_event << "x < 8x\n";
    return 1;
  }
  std::cout << "OK\n";
  return 0;
}
