// perfbench: end-to-end and per-layer benchmark program.
//
//   perfbench --workload compile|sweep|serve --seed N --seconds S
//             --trace 0|1 --root DIR --work-dir DIR [--git-sha SHA]
//
// Runs one workload in-process against the repository's libraries for S
// seconds, checks its outputs, and prints a stamp line followed by one
// JSON result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Untraced runs (--trace 0) report the end-to-end metrics of
// BENCHMARK.json (read from --root); traced runs (--trace 1) turn obs on
// and report its per-layer metrics. perfbench/run.py builds this program
// and is the command to run.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "serve/json.hpp"

namespace {

using perfbench::Args;
using perfbench::RunResult;

/// (name, unit) of every metric the run prints, in BENCHMARK.json order:
/// its end-to-end list for an untraced run, its per-layer list for a
/// traced one.
std::vector<std::pair<std::string, std::string>> listed_metrics(
    const Args& a) {
  const std::string path = a.root + "/BENCHMARK.json";
  syndcim::serve::JsonValue doc;
  std::string err;
  if (!syndcim::serve::json_parse(perfbench::read_file(path), &doc, &err)) {
    throw std::runtime_error(path + ": " + err);
  }
  const syndcim::serve::JsonValue* list =
      doc.find(a.trace ? "per_layer" : "end_to_end");
  if (list == nullptr || !list->is_array()) {
    throw std::runtime_error(path + ": no metric list");
  }
  std::vector<std::pair<std::string, std::string>> out;
  for (std::size_t i = 0; i < list->size(); ++i) {
    const syndcim::serve::JsonValue* name = list->at(i).find("name");
    const syndcim::serve::JsonValue* unit = list->at(i).find("unit");
    if (name == nullptr || unit == nullptr) {
      throw std::runtime_error(path + ": metric without name or unit");
    }
    out.emplace_back(name->as_string(), unit->as_string());
  }
  return out;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload compile|sweep|serve "
               "--seed N --seconds S --trace 0|1 --root DIR --work-dir DIR "
               "[--git-sha SHA]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = static_cast<unsigned>(std::stoul(v));
        have_seed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
        have_seconds = a.seconds > 0;
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace wants 0 or 1");
        a.trace = v == "1";
        have_trace = true;
      } else if (flag == "--root") {
        a.root = v;
      } else if (flag == "--work-dir") {
        a.work_dir = v;
      } else if (flag == "--git-sha") {
        a.git_sha = v;
      } else {
        usage("unknown argument " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + v + "' for " + flag);
    }
  }
  if (a.workload != "compile" && a.workload != "sweep" &&
      a.workload != "serve") {
    usage("--workload wants compile, sweep or serve");
  }
  if (!have_seed || !have_seconds || !have_trace || a.root.empty() ||
      a.work_dir.empty()) {
    usage("--seed, --seconds (> 0), --trace, --root and --work-dir are required");
  }
  return a;
}

std::string json_string(const std::string& s) {
  return "\"" + syndcim::serve::json_escape(s) + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::vector<std::pair<std::string, std::string>> listed;
  RunResult rr;
  try {
    listed = listed_metrics(args);
    if (args.workload == "compile") {
      rr = perfbench::run_compile_workload(args);
    } else if (args.workload == "sweep") {
      rr = perfbench::run_sweep_workload(args);
    } else {
      rr = perfbench::run_serve_workload(args);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s workload aborted: %s\n",
                 args.workload.c_str(), e.what());
    return 1;
  }

  // A traced run prints every per-layer metric; one the workload does
  // not exercise reads 0. An end-to-end metric is never missing.
  std::string metrics;
  for (const auto& [name, unit] : listed) {
    const auto it = rr.metrics.find(name);
    const double v = it != rr.metrics.end() ? it->second : 0.0;
    if ((it == rr.metrics.end() && !args.trace) || !std::isfinite(v)) {
      std::fprintf(stderr, "perfbench: %s not measured\n", name.c_str());
      return 1;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(name) + ": {\"value\": " + json_number(v) +
               ", \"unit\": " + json_string(unit) + "}";
    if (it != rr.metrics.end()) rr.metrics.erase(it);
  }
  if (!rr.metrics.empty()) {
    std::fprintf(stderr, "perfbench: %s is not listed in BENCHMARK.json\n",
                 rr.metrics.begin()->first.c_str());
    return 1;
  }

  // Stamp: what ran, where, and with which pinned settings.
  std::string stamp = "{\"workload\": " + json_string(args.workload) +
                      ", \"seed\": " + std::to_string(args.seed) +
                      ", \"trace\": " + (args.trace ? "1" : "0") +
                      ", \"nproc\": " +
                      std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                      ", \"sweep_threads\": " +
                      std::to_string(perfbench::kSweepThreads) +
                      ", \"serve_workers\": " +
                      std::to_string(perfbench::kServeWorkers) +
                      ", \"serve_sweep_threads\": " +
                      std::to_string(perfbench::kServeSweepThreads) +
                      ", \"serve_queue\": " +
                      std::to_string(perfbench::kServeQueue) +
                      ", \"serve_tenants\": " +
                      std::to_string(perfbench::kServeTenants) +
                      ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
                      ", \"git_sha\": " + json_string(args.git_sha);
  for (const auto& [k, v] : rr.info) {
    stamp += ", " + json_string(k) + ": " + json_string(v);
  }
  std::printf("{\"perfbench_stamp\": %s}}\n", stamp.c_str());

  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      rr.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(rr.attempted),
      static_cast<unsigned long long>(rr.failed), metrics.c_str());
  return 0;
}
