// Command-line front end of the compiler: reads a specification from a
// key=value file (or inline arguments), runs the multi-spec-oriented
// search + implementation, prints the Pareto frontier and writes the
// back-end artifact bundle.
//
// Subcommands (run `syndcim <subcommand> --help` for details):
//   syndcim [compile] --spec macro.spec [--out DIR] [--search-only]
//   syndcim [compile] rows=64 cols=64 mcr=2 mac_mhz=400 [--out DIR]
//   syndcim sweep [base spec keys] [sweep_mac_mhz=...] [sweep_mcr=...]
//           [sweep_bits=...] [sweep_pref=...] [--threads N]
//           [--store-dir DIR] [--json FILE] [--frontier-json FILE]
//   syndcim netmap --model model.json [--frontier-json FILE |
//           base spec keys + sweep_* grid keys] [--budget-macros N]
//           [--budget-area UM2] [--threads N] [--store-dir DIR]
//           [--json FILE]
//   syndcim lint <netlist.v> [--top NAME] [--lib FILE] [--json FILE]
//           [--write-clock PORT]
//   syndcim serve [--port N] [--workers N] [--queue-cap N] ...
//   syndcim --version | --help
//
// Every subcommand additionally accepts the common observability options
// `--trace FILE` (Chrome trace-event JSON, loads in chrome://tracing and
// ui.perfetto.dev) and `--metrics FILE` (versioned metrics-registry
// JSON); either one enables instrumentation for the run.
//
// Spec keys: rows, cols, mcr, input_bits (comma list), weight_bits,
// fp (fp4|fp8|bf16|fp16, comma list), mac_mhz, wupdate_mhz, vdd,
// pref_power, pref_area, pref_perf, bitcell (6T|8T|12T),
// mux (pg|tg|oai22).
//
// Sweep grid keys (comma lists; `;` separates precision groups):
//   sweep_mac_mhz=250,350,450    MAC frequency dimension
//   sweep_mcr=1,2                memory-compute-ratio dimension
//   sweep_bits=4;8;4,8           precision dimension (input+weight bits)
//   sweep_pref=balanced,power    PPA preference dimension
//                                (balanced|power|area|perf)
// The sweep runs every grid point's search on a work-stealing pool over
// one shared artifact store and prints a JSON report (global Pareto
// frontier + per-spec summaries + cache/pool statistics).
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cell/characterize.hpp"
#include "cell/liberty_parser.hpp"
#include "core/artifacts.hpp"
#include "core/compiler.hpp"
#include "core/diag.hpp"
#include "core/report.hpp"
#include "core/spec.hpp"
#include "dse/shard.hpp"
#include "dse/sweep.hpp"
#include "lint/lint.hpp"
#include "netlist/verilog_parser.hpp"
#include "netmap/model.hpp"
#include "netmap/netmap.hpp"
#include "obs/obs.hpp"
#include "serve/server.hpp"
#include "serve/signals.hpp"
#include "tech/tech_node.hpp"

#ifndef SYNDCIM_VERSION
#define SYNDCIM_VERSION "0.0.0"
#endif
#ifndef SYNDCIM_GIT_SHA
#define SYNDCIM_GIT_SHA "unknown"
#endif

using namespace syndcim;

namespace {

// ---------------------------------------------------------------------------
// Usage blocks — one uniform format per subcommand.
// ---------------------------------------------------------------------------

constexpr const char* kCommonOptions =
    "  common options (every subcommand):\n"
    "    --trace FILE      enable observability and write a Chrome\n"
    "                      trace-event JSON (chrome://tracing, Perfetto)\n"
    "    --metrics FILE    enable observability and write the metrics\n"
    "                      registry JSON (counters/gauges/histograms)\n"
    "    --help, -h        show this subcommand's usage\n";

void usage_compile(std::ostream& os) {
  os << "usage: syndcim [compile] [--spec FILE] [key=value ...]\n"
        "               [--out DIR] [--sim-lanes N] [--search-only]\n"
        "               [common options]\n"
        "  options:\n"
        "    --spec FILE       read key=value spec lines from FILE\n"
        "    --out DIR         artifact bundle directory (default\n"
        "                      syndcim_out)\n"
        "    --sim-lanes N     bit-parallel simulation lanes for the\n"
        "                      power workload, 1..64 (default 1; the\n"
        "                      scalar-identical schedule)\n"
        "    --search-only     print the Pareto frontier, skip\n"
        "                      implementation\n"
        "    key=value         inline spec keys (rows, cols, mcr,\n"
        "                      input_bits, weight_bits, fp, mac_mhz,\n"
        "                      wupdate_mhz, vdd, pref_power, pref_area,\n"
        "                      pref_perf, bitcell, mux)\n"
     << kCommonOptions
     << "  exit status: 0 signoff-clean, 1 infeasible/dirty, 2 usage/IO\n";
}

void usage_sweep(std::ostream& os) {
  os << "usage: syndcim sweep [--spec FILE] [key=value ...]\n"
        "               [sweep_mac_mhz=...] [sweep_mcr=...]\n"
        "               [sweep_bits=...] [sweep_pref=...] [--threads N]\n"
        "               [--json FILE] [--frontier-json FILE]\n"
        "               [--store-dir DIR] [--no-artifact-cache]\n"
        "               [--shard I/N --shard-out FILE]\n"
        "               [--merge-shards FILE...] [common options]\n"
        "  options:\n"
        "    --threads N       worker threads (default: hardware)\n"
        "    --no-artifact-cache  bypass every artifact tier (the cold\n"
        "                      reference path; same frontier bytes)\n"
        "    --json FILE       full sweep report JSON (default: stdout)\n"
        "    --frontier-json FILE  deterministic global-frontier JSON\n"
        "    --store-dir DIR   durable on-disk artifact store: a repeat\n"
        "                      sweep over the same grid starts warm, and\n"
        "                      concurrent shards share it as their cache\n"
        "    --shard I/N       evaluate only the specs with global grid\n"
        "                      index == I (mod N); pair with --shard-out\n"
        "                      and merge the N files with --merge-shards\n"
        "    --shard-out FILE  write this shard's Pareto sets (binary)\n"
        "    --merge-shards FILE...  fold shard files into the global\n"
        "                      frontier (byte-identical to one process\n"
        "                      sweeping the whole grid); no sweep is run\n"
        "    sweep_mac_mhz=250,350  MAC frequency grid dimension\n"
        "    sweep_mcr=1,2          memory-compute-ratio dimension\n"
        "    sweep_bits=4;8;4,8     precision groups (`;`-separated)\n"
        "    sweep_pref=balanced,power  preference presets\n"
     << kCommonOptions
     << "  exit status: 0 any spec feasible, 1 none feasible, 2 usage/IO\n";
}

void usage_netmap(std::ostream& os) {
  os << "usage: syndcim netmap --model FILE\n"
        "               [--frontier-json FILE | [--spec FILE]\n"
        "               [key=value ...] [sweep_* grid keys]]\n"
        "               [--budget-macros N] [--budget-area UM2]\n"
        "               [--threads N] [--store-dir DIR]\n"
        "               [--json FILE] [common options]\n"
        "  options:\n"
        "    --model FILE      syndcim-model v1 layer-graph JSON (required)\n"
        "    --frontier-json FILE  reuse a persisted `syndcim sweep\n"
        "                      --frontier-json` pool instead of sweeping\n"
        "    key=value / sweep_*   inline sweep grid (same keys as\n"
        "                      `syndcim sweep`) when no frontier file\n"
        "    --budget-macros N total owned macros across types (default 8)\n"
        "    --budget-area UM2 total owned silicon budget (default: none)\n"
        "    --threads N       inline-sweep worker threads\n"
        "    --store-dir DIR   durable on-disk artifact store: a repeat\n"
        "                      inline sweep over the same grid starts warm\n"
        "    --json FILE       syndcim-netmap v1 report (default: stdout)\n"
     << kCommonOptions
     << "  exit status: 0 mapped, 1 model/frontier/mapping errors,\n"
        "               2 usage/IO\n";
}

void usage_lint(std::ostream& os) {
  os << "usage: syndcim lint <netlist.v> [--top NAME] [--lib FILE]\n"
        "               [--json FILE] [--write-clock PORT]\n"
        "               [common options]\n"
        "  options:\n"
        "    --top NAME        top module (default: inferred root)\n"
        "    --lib FILE        Liberty cell library (default: built-in)\n"
        "    --json FILE       machine-readable diagnostics JSON\n"
        "    --write-clock PORT  weight-update clock for CDC checks\n"
     << kCommonOptions
     << "  exit status: 0 clean, 1 error findings, 2 usage/IO\n";
}

void usage_serve(std::ostream& os) {
  os << "usage: syndcim serve [--port N] [--host H] [--workers N]\n"
        "               [--queue-cap N] [--sweep-threads N] [--max-conn N]\n"
        "               [--cache-cap-entries N] [--cache-cap-bytes N]\n"
        "               [--deadline-ms N] [--store-dir DIR]\n"
        "               [common options]\n"
        "  options:\n"
        "    --port N          TCP port (default 0: ephemeral; the bound\n"
        "                      port is printed as `port=N` on stdout)\n"
        "    --host H          bind address (default 127.0.0.1)\n"
        "    --workers N       request worker threads (default 2)\n"
        "    --queue-cap N     admitted-request cap; beyond it new\n"
        "                      requests are rejected with 429 (default 32)\n"
        "    --sweep-threads N threads each in-request sweep runs on\n"
        "                      (default 2)\n"
        "    --max-conn N      concurrent connection cap (default 64)\n"
        "    --cache-cap-entries N  per-tier artifact cache entry cap\n"
        "                      (0 = unlimited; LRU eviction past it)\n"
        "    --cache-cap-bytes N    per-tier artifact cache byte cap\n"
        "    --deadline-ms N   default per-request deadline (0 = none)\n"
        "    --store-dir DIR   durable on-disk artifact store; a\n"
        "                      restarted daemon answers repeated requests\n"
        "                      warm (dirty artifacts flushed on drain)\n"
     << kCommonOptions
     << "  the daemon serves syndcim-serve v1 (newline-delimited JSON;\n"
        "  methods compile/sweep/lint/metrics/status/shutdown) until\n"
        "  SIGINT/SIGTERM or a shutdown request, then drains gracefully\n"
        "  (stops accepting, finishes in-flight work, flushes --trace/\n"
        "  --metrics artifacts)\n"
        "  exit status: 0 drained cleanly, 2 socket/usage errors\n";
}

void usage_global(std::ostream& os) {
  os << "usage: syndcim <subcommand> [options]\n"
        "  subcommands:\n"
        "    compile (default)  spec -> search -> implementation ->\n"
        "                       artifact bundle\n"
        "    sweep              parallel multi-spec grid exploration\n"
        "    netmap             map a NN model onto a macro fleet\n"
        "    lint               static netlist checks\n"
        "    serve              multi-tenant compile daemon (NDJSON/TCP)\n"
        "    --version          print build version and git commit\n"
        "    --help, -h         this overview\n"
     << kCommonOptions
     << "  run `syndcim <subcommand> --help` for subcommand options\n";
}

void read_spec_file(const std::string& path,
                    std::map<std::string, std::string>& kv) {
  std::ifstream f(path);
  if (!f) {
    throw std::invalid_argument("cannot open spec file " + path);
  }
  std::string line;
  while (std::getline(f, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    auto trim = [](std::string s) {
      const auto b = s.find_first_not_of(" \t");
      const auto e = s.find_last_not_of(" \t");
      return b == std::string::npos ? std::string() : s.substr(b, e - b + 1);
    };
    kv[trim(line.substr(0, eq))] = trim(line.substr(eq + 1));
  }
}

/// Arguments after the subcommand name, with the common observability
/// options already stripped by main().
using Args = std::vector<std::string>;

/// Shared tail of the sweep and merge-shards paths: frontier table on
/// stderr, report/frontier JSON files, buffered CACHE-* findings, and the
/// feasibility exit status.
int emit_sweep_outputs(const dse::SweepReport& rep,
                       const std::string& json_path,
                       const std::string& frontier_path,
                       const core::DiagEngine& diag) {
  core::TextTable t({"spec", "MHz", "mcr", "label", "power_uW", "area_um2",
                     "fmax_MHz"});
  for (const dse::FrontierPoint& fp : rep.frontier) {
    const core::PerfSpec& s = rep.per_spec[fp.spec_index].spec;
    t.add_row({std::to_string(fp.spec_index),
               core::TextTable::num(s.mac_freq_mhz, 0),
               std::to_string(s.mcr), fp.point.label,
               core::TextTable::num(fp.point.ppa.power_uw, 0),
               core::TextTable::num(fp.point.ppa.area_um2, 0),
               core::TextTable::num(fp.point.ppa.fmax_mhz, 0)});
  }
  t.print(std::cerr);

  for (const core::Diagnostic& d : diag.diags()) {
    std::cerr << core::severity_name(d.severity) << " [" << d.rule << "] "
              << d.message << " (" << d.object << ")\n";
  }
  if (!rep.store_json.empty()) {
    std::cerr << "store: " << rep.store_json << "\n";
  }

  if (!json_path.empty()) {
    std::ofstream f(json_path);
    f << dse::sweep_report_json(rep);
    std::cerr << "wrote " << json_path << "\n";
  } else {
    std::cout << dse::sweep_report_json(rep);
  }
  if (!frontier_path.empty()) {
    std::ofstream f(frontier_path);
    f << dse::sweep_frontier_json(rep);
    std::cerr << "wrote " << frontier_path << "\n";
  }
  bool any_feasible = false;
  for (const dse::SpecResult& sr : rep.per_spec) {
    any_feasible = any_feasible || sr.result.feasible();
  }
  return any_feasible ? 0 : 1;
}

int run_sweep_command(const Args& args) {
  std::map<std::string, std::string> kv;
  dse::SweepOptions opt;
  std::string json_path, frontier_path, shard_out;
  bool merge_mode = false;
  std::vector<std::string> merge_paths;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--help" || a == "-h") {
      usage_sweep(std::cout);
      return 0;
    } else if (a == "--spec" && i + 1 < args.size()) {
      read_spec_file(args[++i], kv);
    } else if (a == "--threads" && i + 1 < args.size()) {
      opt.threads = core::parse_int(a, args[++i]);
    } else if (a == "--no-artifact-cache") {
      opt.use_artifact_cache = false;
    } else if (a == "--json" && i + 1 < args.size()) {
      json_path = args[++i];
    } else if (a == "--frontier-json" && i + 1 < args.size()) {
      frontier_path = args[++i];
    } else if (a == "--store-dir" && i + 1 < args.size()) {
      opt.store_dir = args[++i];
    } else if (a == "--shard" && i + 1 < args.size()) {
      const std::string v = args[++i];
      const auto slash = v.find('/');
      bool ok = slash != std::string::npos;
      if (ok) {
        try {
          opt.shard_index = std::stoul(v.substr(0, slash));
          opt.shard_count = std::stoul(v.substr(slash + 1));
        } catch (const std::exception&) {
          ok = false;
        }
      }
      if (!ok || opt.shard_count == 0 ||
          opt.shard_index >= opt.shard_count) {
        std::cerr << "error: --shard wants I/N with 0 <= I < N, got '" << v
                  << "'\n";
        return 2;
      }
    } else if (a == "--shard-out" && i + 1 < args.size()) {
      shard_out = args[++i];
    } else if (a == "--merge-shards") {
      merge_mode = true;
    } else if (merge_mode && a.rfind("--", 0) != 0) {
      merge_paths.push_back(a);
    } else if (a.find('=') != std::string::npos) {
      const auto eq = a.find('=');
      kv[a.substr(0, eq)] = a.substr(eq + 1);
    } else {
      std::cerr << "unknown sweep argument: " << a << "\n";
      usage_sweep(std::cerr);
      return 2;
    }
  }

  if (merge_mode) {
    if (merge_paths.empty()) {
      std::cerr << "error: --merge-shards wants shard file paths\n";
      usage_sweep(std::cerr);
      return 2;
    }
    const auto lib =
        cell::characterize_default_library(tech::make_default_40nm());
    core::DiagEngine diag;
    dse::MergeOptions mopt;
    mopt.store_dir = opt.store_dir;
    mopt.diag = &diag;
    dse::SweepReport rep;
    try {
      rep = dse::merge_shards(lib, merge_paths, mopt);
    } catch (const std::exception& e) {
      std::cerr << "error: merge-shards: " << e.what() << "\n";
      return 2;
    }
    std::cerr << "merged " << merge_paths.size() << " shard files: "
              << rep.frontier.size() << " frontier points from "
              << rep.per_spec.size() << " specs\n";
    return emit_sweep_outputs(rep, json_path, frontier_path, diag);
  }

  const dse::SweepGrid grid = dse::grid_from_kv(std::move(kv));
  const std::vector<core::PerfSpec> specs = grid.expand();
  // Ctrl-C / SIGTERM trips the process-wide token: the sweep returns
  // early with whatever completed and the reports below still flush.
  opt.cancel = &serve::interrupt_token();
  core::DiagEngine diag;
  opt.diag = &diag;
  // A shard's frontier is partial — the merge lints the real one.
  if (opt.shard_count > 1) opt.lint_frontier = false;
  std::cerr << "sweep: " << specs.size() << " spec points, threads="
            << (opt.threads > 0 ? opt.threads
                                : dse::WorkStealingPool::default_threads())
            << ", artifact store=" << (opt.use_artifact_cache ? "on" : "off");
  if (!opt.store_dir.empty()) std::cerr << ", store=" << opt.store_dir;
  if (opt.shard_count > 1) {
    std::cerr << ", shard=" << opt.shard_index << "/" << opt.shard_count;
  }
  std::cerr << "\n";

  const auto lib =
      cell::characterize_default_library(tech::make_default_40nm());
  const dse::SweepReport rep = dse::run_sweep(lib, specs, opt);

  // Slice-tier effectiveness and pool behaviour, read back from the
  // metrics registry the sweep published into (`dse.cache.*` is the
  // slices tier, one lookup per evaluation; `dse.pool.*`).
  obs::MetricsRegistry& m = obs::metrics();
  const std::uint64_t hits = m.counter("dse.cache.hit").value();
  const std::uint64_t misses = m.counter("dse.cache.miss").value();
  const std::uint64_t inflight = m.counter("dse.cache.inflight_wait").value();
  const double hit_rate =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;
  std::cerr << "frontier: " << rep.frontier.size() << " points from "
            << rep.per_spec.size() << " specs, " << rep.n_tasks
            << " trajectory tasks in " << core::TextTable::num(rep.wall_ms, 0)
            << " ms; slices " << hits << " hits / " << misses << " misses / "
            << inflight << " in-flight waits ("
            << core::TextTable::num(100.0 * hit_rate, 1)
            << "% hit rate), pool stole "
            << m.counter("dse.pool.steal").value() << " of "
            << m.counter("dse.pool.execute").value() << " tasks\n";

  // Tier roll-up: a configuration that misses the slices tier usually
  // still shares most of its stage artifacts. The artifact totals
  // include the slices tier.
  const std::uint64_t art_hits = m.counter("dse.artifact.hit").value();
  const std::uint64_t art_misses = m.counter("dse.artifact.miss").value();
  const double art_rate =
      art_hits + art_misses > 0
          ? static_cast<double>(art_hits) /
                static_cast<double>(art_hits + art_misses)
          : 0.0;
  std::cerr << "cache tiers: slices " << hits
            << " hits; all artifact tiers " << art_hits << " hits / "
            << art_misses << " misses ("
            << core::TextTable::num(100.0 * art_rate, 1) << "% hit rate";
  if (!opt.use_artifact_cache) std::cerr << ", tiers disabled";
  std::cerr << ")\n";

  if (!shard_out.empty()) {
    const dse::ShardResult sr =
        dse::make_shard_result(specs, rep, opt.shard_index, opt.shard_count);
    if (!dse::write_shard_file(shard_out, sr)) {
      std::cerr << "error: cannot write shard file " << shard_out << "\n";
      return 2;
    }
    std::cerr << "wrote " << shard_out << " (" << sr.owned.size() << " of "
              << specs.size() << " specs)\n";
  }

  const int rc = emit_sweep_outputs(rep, json_path, frontier_path, diag);
  if (rep.cancelled && serve::shutdown_signal() != 0) {
    std::cerr << "sweep interrupted (signal " << serve::shutdown_signal()
              << "); partial report written\n";
    return 128 + serve::shutdown_signal();
  }
  return rc;
}

/// `syndcim netmap`: map a layer-graph model onto a heterogeneous macro
/// fleet. The candidate pool comes from a persisted frontier JSON or an
/// inline sweep (same grid keys as `syndcim sweep`); the report JSON is
/// byte-identical to what the serve daemon's `netmap` method returns for
/// the same inputs.
int run_netmap_command(const Args& args) {
  std::map<std::string, std::string> kv;
  dse::SweepOptions sopt;
  netmap::Budget budget;
  std::string model_path, frontier_path, json_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--help" || a == "-h") {
      usage_netmap(std::cout);
      return 0;
    } else if (a == "--model" && i + 1 < args.size()) {
      model_path = args[++i];
    } else if (a == "--frontier-json" && i + 1 < args.size()) {
      frontier_path = args[++i];
    } else if (a == "--budget-macros" && i + 1 < args.size()) {
      budget.max_macros = core::parse_int(a, args[++i]);
    } else if (a == "--budget-area" && i + 1 < args.size()) {
      budget.max_area_um2 = core::parse_number(a, args[++i]);
    } else if (a == "--threads" && i + 1 < args.size()) {
      sopt.threads = core::parse_int(a, args[++i]);
    } else if (a == "--spec" && i + 1 < args.size()) {
      try {
        read_spec_file(args[++i], kv);
      } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 2;
      }
    } else if (a == "--store-dir" && i + 1 < args.size()) {
      sopt.store_dir = args[++i];
    } else if (a == "--json" && i + 1 < args.size()) {
      json_path = args[++i];
    } else if (a.find('=') != std::string::npos) {
      const auto eq = a.find('=');
      kv[a.substr(0, eq)] = a.substr(eq + 1);
    } else {
      std::cerr << "unknown netmap argument: " << a << "\n";
      usage_netmap(std::cerr);
      return 2;
    }
  }
  if (model_path.empty()) {
    std::cerr << "error: netmap wants --model FILE\n";
    usage_netmap(std::cerr);
    return 2;
  }

  core::DiagEngine diag;
  const netmap::Model model = netmap::parse_model_file(model_path, diag);
  if (diag.has_errors()) {
    diag.print(std::cerr);
    std::cerr << model_path << ": " << diag.summary() << "\n";
    return 1;
  }
  std::cerr << "model: " << model.name << ", " << model.layers.size()
            << " layers, " << model.total_macs() << " MACs\n";

  std::vector<netmap::MacroCandidate> cands;
  if (!frontier_path.empty()) {
    std::ifstream ff(frontier_path);
    if (!ff) {
      std::cerr << "error: cannot open " << frontier_path << "\n";
      return 2;
    }
    std::ostringstream fs;
    fs << ff.rdbuf();
    cands = netmap::candidates_from_frontier_json(fs.str(), diag,
                                                  frontier_path);
    if (diag.has_errors()) {
      diag.print(std::cerr);
      std::cerr << frontier_path << ": " << diag.summary() << "\n";
      return 1;
    }
  } else {
    const dse::SweepGrid grid = dse::grid_from_kv(std::move(kv));
    const std::vector<core::PerfSpec> specs = grid.expand();
    // Candidates only need the frontier points themselves — the lint
    // annotations never reach the netmap report (this also keeps the
    // report byte-identical to the serve daemon's, which skips the
    // frontier lint for the same reason).
    sopt.lint_frontier = false;
    sopt.cancel = &serve::interrupt_token();
    std::cerr << "sweep: " << specs.size() << " spec points for the "
              << "candidate pool\n";
    const auto lib =
        cell::characterize_default_library(tech::make_default_40nm());
    const dse::SweepReport rep = dse::run_sweep(lib, specs, sopt);
    if (rep.cancelled && serve::shutdown_signal() != 0) {
      std::cerr << "netmap interrupted (signal " << serve::shutdown_signal()
                << ")\n";
      return 128 + serve::shutdown_signal();
    }
    cands = netmap::candidates_from_frontier(rep);
  }
  std::cerr << "candidates: " << cands.size() << " frontier macro types\n";

  netmap::NetmapResult res;
  try {
    res = netmap::run_netmap(model, cands, budget);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  // Human summary: one row per layer, then the fleet + homog baseline.
  core::TextTable t({"layer", "kind", "macro", "count", "tiles", "time_us",
                     "energy_pj", "util_%"});
  for (const netmap::LayerAssignment& la : res.layers) {
    const netmap::Layer& l = res.model.layers[la.layer_index];
    const netmap::MacroCandidate& c = res.candidates[la.candidate_index];
    t.add_row({l.name, netmap::to_string(l.kind), c.label,
               std::to_string(la.count), std::to_string(la.grid.tiles()),
               core::TextTable::num(la.time_us, 2),
               core::TextTable::num(la.energy_pj(), 1),
               core::TextTable::num(100.0 * la.utilization, 1)});
  }
  t.print(std::cerr);
  std::cerr << "fleet: " << res.fleet_macros << " macros across "
            << res.fleet.size() << " types, "
            << core::TextTable::num(res.fleet_area_um2, 0) << " um^2\n"
            << "total: " << core::TextTable::num(res.total_time_us, 2)
            << " us, " << core::TextTable::num(res.total_energy_pj, 1)
            << " pJ, utilization "
            << core::TextTable::num(100.0 * res.utilization, 1) << "%\n";
  if (res.homog.valid) {
    const netmap::MacroCandidate& h = res.candidates[res.homog.candidate_index];
    std::cerr << "homog baseline: " << h.label << " x" << res.homog.count
              << ", " << core::TextTable::num(res.homog.time_us, 2) << " us, "
              << core::TextTable::num(res.homog.energy_pj, 1) << " pJ"
              << (res.fallback_homog ? " (adopted: budget too tight for a "
                                       "heterogeneous fleet)"
                                     : "")
              << "\n";
  }

  const std::string report = netmap::netmap_report_json(res);
  if (!json_path.empty()) {
    std::ofstream f(json_path);
    if (!f) {
      std::cerr << "error: cannot write " << json_path << "\n";
      return 2;
    }
    f << report;
    std::cerr << "wrote " << json_path << "\n";
  } else {
    std::cout << report;
  }
  return 0;
}

/// `syndcim lint`: static netlist checks with no implementation flow.
/// Exit 0 = clean (warnings allowed), 1 = error-severity findings,
/// 2 = usage / IO problems.
int run_lint_command(const Args& args) {
  std::string netlist_path, top, lib_path, json_path, write_clock;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--help" || a == "-h") {
      usage_lint(std::cout);
      return 0;
    } else if (a == "--top" && i + 1 < args.size()) {
      top = args[++i];
    } else if (a == "--lib" && i + 1 < args.size()) {
      lib_path = args[++i];
    } else if (a == "--json" && i + 1 < args.size()) {
      json_path = args[++i];
    } else if (a == "--write-clock" && i + 1 < args.size()) {
      write_clock = args[++i];
    } else if (!a.empty() && a[0] != '-' && netlist_path.empty()) {
      netlist_path = a;
    } else {
      std::cerr << "unknown lint argument: " << a << "\n";
      usage_lint(std::cerr);
      return 2;
    }
  }
  if (netlist_path.empty()) {
    usage_lint(std::cerr);
    return 2;
  }

  std::ifstream vf(netlist_path);
  if (!vf) {
    std::cerr << "error: cannot open " << netlist_path << "\n";
    return 2;
  }
  core::DiagEngine diag;
  const netlist::Design design = netlist::parse_verilog(vf, &diag);

  const cell::Library lib = [&] {
    if (!lib_path.empty()) {
      std::ifstream lf(lib_path);
      if (!lf) {
        throw std::invalid_argument("cannot open library " + lib_path);
      }
      return cell::parse_liberty(lf, tech::make_default_40nm(), &diag);
    }
    return cell::characterize_default_library(tech::make_default_40nm());
  }();

  // Top inference: the unique module never instantiated as a submodule.
  if (top.empty()) {
    const std::vector<std::string> roots = design.root_modules();
    if (roots.size() == 1) {
      top = roots.front();
    } else if (design.module_names().empty()) {
      diag.error("LINT-STRUCT", "netlist contains no modules",
                 netlist_path, "lint");
    } else {
      std::string list;
      for (const std::string& r : roots) {
        list += (list.empty() ? "" : ", ") + r;
      }
      std::cerr << "error: cannot infer top module (candidates: " << list
                << "); pass --top\n";
      return 2;
    }
  }

  if (!top.empty()) lint::lint_top(design, top, lib, diag, write_clock);

  diag.print(std::cerr);
  if (!json_path.empty()) {
    std::ofstream jf(json_path);
    if (!jf) {
      std::cerr << "error: cannot write " << json_path << "\n";
      return 2;
    }
    jf << diag.to_json();
    std::cerr << "wrote " << json_path << "\n";
  }
  std::cerr << netlist_path << ": " << diag.summary() << "\n";
  return diag.has_errors() ? 1 : 0;
}

int run_compile_command(const Args& args) {
  std::map<std::string, std::string> kv;
  std::string out_dir = "syndcim_out";
  bool search_only = false;
  int sim_lanes = 1;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--help" || a == "-h") {
      usage_compile(std::cout);
      return 0;
    } else if (a == "--spec" && i + 1 < args.size()) {
      try {
        read_spec_file(args[++i], kv);
      } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 2;
      }
    } else if (a == "--out" && i + 1 < args.size()) {
      out_dir = args[++i];
    } else if (a == "--search-only") {
      search_only = true;
    } else if (a == "--sim-lanes" && i + 1 < args.size()) {
      sim_lanes = core::parse_int(a, args[++i]);
      if (sim_lanes < 1 || sim_lanes > 64) {
        std::cerr << "error: --sim-lanes wants an integer in [1, 64], got '"
                  << args[i] << "'\n";
        return 2;
      }
    } else if (a.find('=') != std::string::npos) {
      const auto eq = a.find('=');
      kv[a.substr(0, eq)] = a.substr(eq + 1);
    } else {
      std::cerr << "unknown argument: " << a << "\n";
      usage_compile(std::cerr);
      return 2;
    }
  }

  try {
    const core::PerfSpec spec = core::spec_from_kv(kv);
    std::cerr << "spec: " << spec.rows << "x" << spec.cols
              << " MCR=" << spec.mcr << " @ " << spec.mac_freq_mhz
              << " MHz, " << spec.vdd << " V\n";
    const auto lib =
        cell::characterize_default_library(tech::make_default_40nm());
    core::SynDcimCompiler compiler(lib);

    if (search_only) {
      const auto res = compiler.search(spec);
      core::TextTable t({"label", "feasible", "fmax_MHz", "power_uW",
                         "area_um2"});
      for (const auto& p : res.pareto) {
        t.add_row({p.label, core::TextTable::yesno(p.feasible),
                   core::TextTable::num(p.ppa.fmax_mhz, 0),
                   core::TextTable::num(p.ppa.power_uw, 0),
                   core::TextTable::num(p.ppa.area_um2, 0)});
      }
      t.print(std::cout);
      return res.feasible() ? 0 : 1;
    }

    core::Workload workload;
    workload.lanes = sim_lanes;
    const auto result =
        compiler.compile(spec, workload, &serve::interrupt_token());
    std::cout << "selected " << result.selected.label << " ("
              << result.search.pareto.size() << " Pareto points)\n";
    std::cout << "post-layout: fmax "
              << core::TextTable::num(result.impl.fmax_mhz, 0) << " MHz, "
              << core::TextTable::num(result.impl.macro_area_mm2, 4)
              << " mm^2, "
              << core::TextTable::num(result.impl.total_power_uw, 0)
              << " uW, DRC " << (result.impl.drc.clean() ? "clean" : "DIRTY")
              << ", LVS " << (result.impl.lvs.clean() ? "clean" : "DIRTY")
              << ", timing "
              << (result.impl.timing.met() ? "met" : "VIOLATED") << "\n";
    // Where the compile's time and memory went, phase by phase.
    std::cerr << "phases:";
    for (const obs::Phase& p : result.impl.timeline.phases) {
      std::cerr << " " << p.name << "="
                << core::TextTable::num(p.dur_ms, 1) << "ms";
    }
    if (!result.impl.timeline.phases.empty()) {
      std::cerr << " (peak rss "
                << result.impl.timeline.phases.back().rss_peak_kb
                << " kB)";
    }
    std::cerr << "\n";
    for (const auto& f :
         core::write_artifacts(result, spec, lib, out_dir)) {
      std::cout << "wrote " << f << "\n";
    }
    return result.impl.signoff_clean() ? 0 : 1;
  } catch (const core::CancelledError& e) {
    // Interrupted mid-pipeline: report where, let main() flush the
    // observability artifacts, exit with the conventional 128 + signal.
    std::cerr << "compile interrupted (" << e.what() << ")\n";
    const int sig = serve::shutdown_signal();
    return sig != 0 ? 128 + sig : 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}

/// `syndcim serve`: the multi-tenant compile daemon. Blocks until
/// SIGINT/SIGTERM or a protocol `shutdown` request, then drains.
int run_serve_command(const Args& args, const std::string& trace_path,
                      const std::string& metrics_path) {
  serve::ServerOptions sopt;
  sopt.trace_path = trace_path;
  sopt.metrics_path = metrics_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--help" || a == "-h") {
      usage_serve(std::cout);
      return 0;
    } else if (a == "--port" && i + 1 < args.size()) {
      sopt.port = core::parse_int(a, args[++i]);
    } else if (a == "--host" && i + 1 < args.size()) {
      sopt.host = args[++i];
    } else if (a == "--workers" && i + 1 < args.size()) {
      sopt.workers = core::parse_int(a, args[++i]);
    } else if (a == "--queue-cap" && i + 1 < args.size()) {
      sopt.queue_capacity = core::parse_int(a, args[++i]);
    } else if (a == "--sweep-threads" && i + 1 < args.size()) {
      sopt.sweep_threads = core::parse_int(a, args[++i]);
    } else if (a == "--max-conn" && i + 1 < args.size()) {
      sopt.max_connections = core::parse_int(a, args[++i]);
    } else if (a == "--cache-cap-entries" && i + 1 < args.size()) {
      sopt.artifact_max_entries = core::parse_int<std::size_t>(a, args[++i]);
    } else if (a == "--cache-cap-bytes" && i + 1 < args.size()) {
      sopt.artifact_max_bytes = core::parse_int<std::size_t>(a, args[++i]);
    } else if (a == "--store-dir" && i + 1 < args.size()) {
      sopt.store_dir = args[++i];
    } else if (a == "--deadline-ms" && i + 1 < args.size()) {
      sopt.default_deadline_ms = core::parse_number(a, args[++i]);
    } else {
      std::cerr << "unknown serve argument: " << a << "\n";
      usage_serve(std::cerr);
      return 2;
    }
  }

  const auto lib =
      cell::characterize_default_library(tech::make_default_40nm());
  serve::Server server(lib, sopt);
  std::string err;
  if (!server.start(&err)) {
    std::cerr << "error: " << err << "\n";
    return 2;
  }
  // Machine-readable port line first (stdout, flushed) so wrappers can
  // connect to an ephemeral port; the human banner goes to stderr.
  std::cout << "port=" << server.port() << "\n" << std::flush;
  std::cerr << "syndcim serve: listening on " << sopt.host << ":"
            << server.port() << " (workers=" << sopt.workers
            << ", queue-cap=" << sopt.queue_capacity
            << ", sweep-threads=" << sopt.sweep_threads << ")\n";
  const int rc = server.serve_forever(&serve::interrupt_token());
  std::cerr << "syndcim serve: drained\n";
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the common observability options first so every subcommand
  // accepts them uniformly; either flag enables instrumentation.
  std::string trace_path, metrics_path;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (a == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else {
      args.push_back(a);
    }
  }
  if (!trace_path.empty() || !metrics_path.empty()) {
    obs::set_enabled(true);
    obs::tracer().set_thread_name("main");
  }
  // SIGINT/SIGTERM trip the process-wide CancelToken; batch commands
  // return partial results and still flush their reports below, the
  // serve daemon drains gracefully.
  serve::install_shutdown_handlers();

  int rc = 2;
  try {
    if (!args.empty() && args[0] == "--version") {
      std::cout << "syndcim " << SYNDCIM_VERSION << " (" << SYNDCIM_GIT_SHA
                << ")\n";
      rc = 0;
    } else if (!args.empty() && (args[0] == "--help" || args[0] == "-h")) {
      usage_global(std::cout);
      rc = 0;
    } else if (!args.empty() && args[0] == "lint") {
      rc = run_lint_command({args.begin() + 1, args.end()});
    } else if (!args.empty() && args[0] == "sweep") {
      rc = run_sweep_command({args.begin() + 1, args.end()});
    } else if (!args.empty() && args[0] == "netmap") {
      rc = run_netmap_command({args.begin() + 1, args.end()});
    } else if (!args.empty() && args[0] == "serve") {
      rc = run_serve_command({args.begin() + 1, args.end()}, trace_path,
                             metrics_path);
    } else if (!args.empty() && args[0] == "compile") {
      rc = run_compile_command({args.begin() + 1, args.end()});
    } else {
      rc = run_compile_command(args);  // bare invocation = compile
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    rc = 2;
  }

  // Emit observability artifacts even when the command failed — a trace
  // of a failing run is exactly what one wants to look at.
  if (!trace_path.empty()) {
    if (obs::tracer().save(trace_path)) {
      std::cerr << "wrote " << trace_path << "\n";
    } else {
      std::cerr << "error: cannot write " << trace_path << "\n";
      rc = rc == 0 ? 2 : rc;
    }
  }
  if (!metrics_path.empty()) {
    if (obs::metrics().save(metrics_path)) {
      std::cerr << "wrote " << metrics_path << "\n";
    } else {
      std::cerr << "error: cannot write " << metrics_path << "\n";
      rc = rc == 0 ? 2 : rc;
    }
  }
  return rc;
}
