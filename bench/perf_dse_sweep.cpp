// DSE sweep performance: parallel work-stealing sweep over the memoized
// artifact store vs. the sequential seed path (one MsoSearcher run per
// spec against a shared SCL — exactly what the repo did before src/dse).
//
// Three legs over the same 12-point spec grid (freq x MCR x preference):
//   1. sequential   — baseline `MsoSearcher::search` per spec
//   2. cold sweep   — run_sweep, threads=N, empty on-disk store
//                     (written back at the end of the run)
//   3. warm sweep   — run_sweep, threads=N, same store directory
//
// Prints wall clock, speedups and slice-tier hit rates; exits nonzero if
// the threads+store path is not at least 2x the sequential baseline or
// the warm run reports no slice-tier hits.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "cell/characterize.hpp"
#include "core/report.hpp"
#include "core/searcher.hpp"
#include "dse/sweep.hpp"
#include "obs/obs.hpp"
#include "tech/tech_node.hpp"

using namespace syndcim;

namespace {

double seconds_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

std::vector<core::PerfSpec> make_grid() {
  dse::SweepGrid grid;
  grid.base.rows = 64;
  grid.base.cols = 64;
  grid.base.input_bits = {4, 8};
  grid.base.weight_bits = {4, 8};
  grid.base.vdd = 0.9;
  grid.mac_freqs_mhz = {250.0, 350.0, 450.0};
  grid.mcrs = {1, 2};
  grid.prefs = {{1.0, 1.0, 0.0}, {2.0, 0.5, 0.0}};
  return grid.expand();
}

}  // namespace

int main(int argc, char** argv) {
  // Optional per-stage breakdowns: `--trace FILE` dumps a Chrome
  // trace-event JSON of the whole benchmark (all three legs), and
  // `--metrics FILE` dumps the metrics registry (slice-tier/pool counters,
  // queue-depth histogram). Either flag enables instrumentation, so the
  // default run still measures the uninstrumented hot path.
  std::string trace_path, metrics_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (a == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else {
      std::cerr << "usage: perf_dse_sweep [--trace FILE] [--metrics FILE]\n";
      return 2;
    }
  }
  if (!trace_path.empty() || !metrics_path.empty()) {
    obs::set_enabled(true);
    obs::tracer().set_thread_name("main");
  }

  const auto lib =
      cell::characterize_default_library(tech::make_default_40nm());
  const std::vector<core::PerfSpec> specs = make_grid();
  const int threads = std::max(2, dse::WorkStealingPool::default_threads());
  const std::string store_dir = "perf_dse_sweep.store";
  std::filesystem::remove_all(store_dir);

  std::cerr << "grid: " << specs.size() << " specs, threads=" << threads
            << "\n";

  // Leg 1: the sequential seed path.
  const auto t_seq = std::chrono::steady_clock::now();
  std::size_t seq_points = 0;
  {
    core::SubcircuitLibrary scl(lib);
    core::MsoSearcher searcher(scl);
    for (const core::PerfSpec& spec : specs) {
      seq_points += searcher.search(spec).explored.size();
    }
  }
  const double sec_seq = seconds_since(t_seq);

  // Leg 2: parallel sweep, cold store, written back to disk.
  dse::SweepOptions opt;
  opt.threads = threads;
  opt.store_dir = store_dir;
  const auto t_cold = std::chrono::steady_clock::now();
  const dse::SweepReport cold = dse::run_sweep(lib, specs, opt);
  const double sec_cold = seconds_since(t_cold);

  // Leg 3: identical sweep, store warm from disk.
  const auto t_warm = std::chrono::steady_clock::now();
  const dse::SweepReport warm = dse::run_sweep(lib, specs, opt);
  const double sec_warm = seconds_since(t_warm);
  std::filesystem::remove_all(store_dir);

  core::TextTable t({"leg", "wall_s", "speedup", "cache_hits",
                     "cache_misses", "hit_rate_pct", "stolen"});
  t.add_row({"sequential", core::TextTable::num(sec_seq, 2), "1.00", "-",
             "-", "-", "-"});
  t.add_row({"cold threads+store", core::TextTable::num(sec_cold, 2),
             core::TextTable::num(sec_seq / sec_cold, 2),
             std::to_string(cold.cache.hits),
             std::to_string(cold.cache.misses),
             core::TextTable::num(100.0 * cold.cache.hit_rate(), 1),
             std::to_string(cold.pool.stolen)});
  t.add_row({"warm threads+store", core::TextTable::num(sec_warm, 2),
             core::TextTable::num(sec_seq / sec_warm, 2),
             std::to_string(warm.cache.hits),
             std::to_string(warm.cache.misses),
             core::TextTable::num(100.0 * warm.cache.hit_rate(), 1),
             std::to_string(warm.pool.stolen)});
  t.print(std::cout);

  std::cout << "explored points: sequential " << seq_points << ", cold ";
  std::size_t cold_points = 0, warm_points = 0;
  for (const auto& sr : cold.per_spec) cold_points += sr.result.explored.size();
  for (const auto& sr : warm.per_spec) warm_points += sr.result.explored.size();
  std::cout << cold_points << ", warm " << warm_points << "\n";
  std::uint64_t warm_l2_hits = 0;
  for (const auto& tier : warm.artifacts) warm_l2_hits += tier.l2_hits;
  std::cout << "warm store: " << warm.cache.hits << " slice hits, "
            << warm_l2_hits << " artifacts read from disk\n";

  const double best_speedup = sec_seq / std::min(sec_cold, sec_warm);
  const bool ok = best_speedup >= 2.0 && warm.cache.hits > 0;
  std::cout << (ok ? "PASS" : "FAIL") << ": threads+store speedup "
            << core::TextTable::num(best_speedup, 2) << "x (>= 2x required), "
            << warm.cache.hits << " warm hits (nonzero required)\n";

  if (!trace_path.empty()) {
    if (obs::tracer().save(trace_path)) {
      std::cerr << "wrote " << trace_path << " ("
                << obs::tracer().event_count() << " spans)\n";
    } else {
      std::cerr << "error: cannot write " << trace_path << "\n";
    }
  }
  if (!metrics_path.empty()) {
    if (obs::metrics().save(metrics_path)) {
      std::cerr << "wrote " << metrics_path << "\n";
    } else {
      std::cerr << "error: cannot write " << metrics_path << "\n";
    }
  }
  return ok ? 0 : 1;
}
