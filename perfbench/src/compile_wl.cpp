// `compile` workload: the ROADMAP reference spec compiled cold and
// emitted, one op after another on one thread. Every op builds a fresh
// SynDcimCompiler with a private artifact store, so an op is as cold as
// a `syndcim compile` process; it is the only workload that runs the
// implement stages, gate-level power simulation and bundle emission.
#include <malloc.h>

#include <filesystem>
#include <random>
#include <string_view>

#include "bench.hpp"
#include "core/artifacts.hpp"
#include "core/compiler.hpp"
#include "sim/macro_model.hpp"
#include "sim/macro_tb.hpp"

namespace perfbench {
namespace {

using namespace syndcim;

/// The seed the committed bundle digests were recorded with.
constexpr unsigned kReferenceSeed = 1;
/// Bundle files the seed does not reach: it drives only the gate-level
/// power-simulation stimulus, whose measured power goes into report.txt
/// and datasheet.md. These are compared with the committed digests on
/// every seed; the whole bundle only on kReferenceSeed.
constexpr std::string_view kSeedFreeFiles[] = {
    "cells.lib", "constraints.sdc", "macro.def", "macro.v", "sdp_place.tcl"};

core::PerfSpec reference_spec() {
  std::map<std::string, std::string> kv = {
      {"rows", "64"},          {"cols", "64"},
      {"mcr", "2"},            {"input_bits", "4,8"},
      {"weight_bits", "4,8"},  {"mac_mhz", "400"}};
  return core::spec_from_kv(kv);
}

/// Gate-level MAC outputs of the compiled macro against integer dot
/// products computed here, for every supported precision pair and bank.
/// Returns the number of mismatching MACs.
int check_macro_macs(const rtlgen::MacroDesign& md, const cell::Library& lib,
                     unsigned seed) {
  const rtlgen::MacroConfig& cfg = md.cfg;
  sim::MacroTestbench tb(md, lib);
  sim::DcimMacroModel storage(cfg);  // weight layout for preload_weights
  std::mt19937 rng(seed);
  auto draw = [&](int bits) {
    const std::int64_t span = std::int64_t{1} << bits;
    return static_cast<std::int64_t>(rng() % static_cast<unsigned>(span)) -
           span / 2;
  };
  int bad = 0;
  for (const int ib : cfg.input_bits) {
    for (const int wp : cfg.weight_bits) {
      for (int bank = 0; bank < cfg.mcr; ++bank) {
        std::vector<std::vector<std::int64_t>> w(
            static_cast<std::size_t>(cfg.cols / wp),
            std::vector<std::int64_t>(static_cast<std::size_t>(cfg.rows)));
        for (auto& out : w) {
          for (auto& v : out) v = draw(wp);
        }
        std::vector<std::int64_t> in(static_cast<std::size_t>(cfg.rows));
        for (auto& v : in) v = draw(ib);
        storage.load_weights_int(bank, wp, w);
        tb.preload_weights(storage);
        const std::vector<std::int64_t> got = tb.run_mac_int(in, ib, wp, bank);
        std::vector<std::int64_t> want(w.size(), 0);
        for (std::size_t o = 0; o < w.size(); ++o) {
          for (std::size_t r = 0; r < in.size(); ++r) want[o] += in[r] * w[o][r];
        }
        if (got != want) ++bad;
      }
    }
  }
  return bad;
}

struct OpOutput {
  std::map<std::string, std::string> digests;  ///< file name -> digest
  std::uint64_t bytes = 0;
};

OpOutput digest_bundle(const std::vector<std::string>& files) {
  OpOutput out;
  for (const std::string& path : files) {
    const std::string body = read_file(path);
    out.digests[std::filesystem::path(path).filename().string()] =
        digest_hex(body);
    out.bytes += body.size();
  }
  return out;
}

/// Whether a bundle's digests match the committed ones for `seed`.
bool matches_committed(const std::map<std::string, std::string>& digests,
                       const std::map<std::string, std::string>& committed,
                       unsigned seed) {
  if (seed == kReferenceSeed) return digests == committed;
  for (const std::string_view file : kSeedFreeFiles) {
    const auto got = digests.find(std::string(file));
    const auto want = committed.find(std::string(file));
    if (got == digests.end() || want == committed.end() ||
        got->second != want->second) {
      return false;
    }
  }
  return true;
}

}  // namespace

RunResult run_compile_workload(const Args& args) {
  RunResult rr;
  const core::PerfSpec spec = reference_spec();
  const std::string out_dir = args.work_dir + "/compile";

  std::filesystem::create_directories(out_dir);

  core::Workload wl;
  wl.seed = args.seed;
  const std::map<std::string, std::string> committed =
      read_string_map(args.root + "/perfbench/reference/compile_digests.json");

  std::vector<double> setup_s, op_ms, traced_ms, untraced_ms;
  std::optional<cell::Library> lib;
  std::optional<OpOutput> first;
  std::optional<core::CompileResult> last;
  std::uint64_t traced_ops = 0, bytes = 0, points = 0, plan_builds = 0;
  std::uint64_t gate_evals = 0, events_skipped = 0;
  double artifact_hit_ratio = 0, artifact_entries = 0;

  const double t_begin = now_s();
  for (std::uint64_t op = 0; op == 0 || now_s() - t_begin < args.seconds;
       ++op) {
    // Hand the previous op's freed heap back, as a finished process
    // would, so peak RSS does not grow with the number of ops a run holds.
    malloc_trim(0);
    // Traced runs alternate untraced and traced ops, so obs overhead is
    // measured under the same drift as the ops themselves.
    const bool traced = args.trace && op % 2 == 1;
    obs::set_enabled(traced);
    const std::uint64_t plans0 = counter_value("sta.plan.builds");
    const std::uint64_t evals0 = counter_value("sim.gate_evals");
    const std::uint64_t skipped0 = counter_value("sim.events_skipped");

    // Each op is as cold as a `syndcim compile` process: it characterises
    // its own library first. That is the set-up, timed apart from the op,
    // so its samples span the run like the ops do.
    lib.emplace(characterize_library(setup_s));

    ++rr.attempted;
    std::vector<std::string> files;
    std::optional<core::SynDcimCompiler> compiler;
    const double t0 = now_s();
    try {
      obs::SpanGuard op_span("bench.op");
      compiler.emplace(*lib);
      {
        obs::SpanGuard s("bench.compile");
        last = compiler->compile(spec, wl);
      }
      obs::SpanGuard s("bench.emit");
      files = core::write_artifacts(*last, spec, *lib, out_dir);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "compile op %llu failed: %s\n",
                   static_cast<unsigned long long>(op), e.what());
      ++rr.failed;
      continue;
    }
    const double ms = (now_s() - t0) * 1e3;
    obs::set_enabled(false);
    op_ms.push_back(ms);
    (traced ? traced_ms : untraced_ms).push_back(ms);

    const OpOutput out = digest_bundle(files);
    if (!first) first = out;
    const bool same_as_first = out.digests == first->digests;
    const bool same_as_committed =
        matches_committed(out.digests, committed, args.seed);
    if (!same_as_first || !same_as_committed) {
      ++rr.failed;
      std::fprintf(stderr, "compile op %llu: bundle digests differ from %s\n",
                   static_cast<unsigned long long>(op),
                   same_as_first ? "the committed reference" : "op 0");
      for (const auto& [name, d] : out.digests) {
        std::fprintf(stderr, "  \"%s\": \"%s\"\n", name.c_str(), d.c_str());
      }
    }
    if (!traced) continue;
    ++traced_ops;
    bytes += out.bytes;
    points += last->search.explored.size();
    plan_builds += counter_value("sta.plan.builds") - plans0;
    gate_evals += counter_value("sim.gate_evals") - evals0;
    events_skipped += counter_value("sim.events_skipped") - skipped0;
    std::uint64_t hits = 0, misses = 0;
    for (const auto& t : compiler->scl().artifacts().stats()) {
      hits += t.hits;
      misses += t.misses;
      artifact_entries += static_cast<double>(t.entries);
    }
    artifact_hit_ratio +=
        hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0;
  }
  const double wall_s = now_s() - t_begin;

  // Once per run: the last compiled macro computes what it should.
  if (last) {
    const int bad = check_macro_macs(last->impl.macro, *lib, args.seed);
    rr.info["mac_check_mismatches"] = std::to_string(bad);
    if (bad > 0 && rr.failed == 0) ++rr.failed;
  }
  rr.info["ops"] = std::to_string(op_ms.size());
  rr.info["op_ms"] = join_rounded(op_ms);
  rr.info["implement_signoff_clean"] =
      last && last->impl.signoff_clean() ? "true" : "false";

  if (!args.trace) {
    rr.metrics["setup_s"] = median(setup_s);
    rr.metrics["latency_p50_ms"] = median(op_ms);
    // The highest percentile with at least ten ops beyond it at the
    // ~30 ops a run holds.
    rr.metrics["latency_tail_ms"] = quantile(op_ms, 0.60);
    rr.metrics["throughput_per_s"] =
        static_cast<double>(op_ms.size()) / wall_s;
    rr.metrics["peak_rss_mb"] =
        static_cast<double>(obs::peak_rss_kb()) / 1024.0;
    rr.info["latency_tail"] = "p60";
    return rr;
  }

  const LayerTimes lt =
      reduce_spans(obs::tracer().snapshot(), "bench.op");
  const double n = traced_ops > 0 ? static_cast<double>(traced_ops) : 1.0;
  for (const auto& [metric, ms] : lt.self_ms) rr.metrics[metric] = ms / n;
  rr.metrics["trace.op_ms"] = lt.root_ms / n;
  rr.metrics["cell.characterize_ms"] = median(setup_s) * 1e3;
  rr.metrics["search.points"] = static_cast<double>(points) / n;
  rr.metrics["scl.slices"] =
      (lt.count("scl.slice.flatten") + lt.count("scl.slice.flatten.skip")) / n;
  rr.metrics["sta.plan_builds"] = static_cast<double>(plan_builds) / n;
  rr.metrics["implement.count"] = lt.count("compile.rtlgen") / n;
  rr.metrics["sim.skip_ratio"] =
      gate_evals + events_skipped > 0
          ? static_cast<double>(events_skipped) / (gate_evals + events_skipped)
          : 0;
  rr.metrics["emit.bytes"] = static_cast<double>(bytes) / n;
  rr.metrics["artifact.hit_ratio"] = artifact_hit_ratio / n;
  rr.metrics["artifact.entries"] = artifact_entries / n;
  rr.metrics["obs.overhead_pct"] = overhead_pct(traced_ms, untraced_ms);
  double listed = 0;
  for (const auto& [metric, ms] : lt.self_ms) listed += ms;
  rr.info["trace_residual_ms"] = std::to_string((lt.root_ms - listed) / n);
  return rr;
}

}  // namespace perfbench
