// `sweep` workload: the reference 12-spec grid explored by run_sweep at
// a pinned 4 threads, one sweep after another. Each op starts from a
// fresh private eval cache and artifact store with frontier lint on. It
// is the only workload where the pool, in-flight dedup, the
// SclEvalBackend mutex and cross-spec reuse sit on the critical path.
// The grid is fixed, so the seed does not change the inputs.
#include <malloc.h>

#include "bench.hpp"
#include "dse/sweep.hpp"

namespace perfbench {
namespace {

using namespace syndcim;

std::vector<core::PerfSpec> reference_grid() {
  return dse::grid_from_kv({{"rows", "64"},
                            {"cols", "64"},
                            {"input_bits", "4,8"},
                            {"weight_bits", "4,8"},
                            {"sweep_mac_mhz", "250,350,450"},
                            {"sweep_mcr", "1,2"},
                            {"sweep_pref", "balanced,power"}})
      .expand();
}

}  // namespace

RunResult run_sweep_workload(const Args& args) {
  RunResult rr;
  const std::vector<core::PerfSpec> specs = reference_grid();
  const std::string reference =
      read_file(args.root + "/perfbench/reference/sweep_frontier.json");

  dse::SweepOptions opt;
  opt.threads = kSweepThreads;

  std::vector<double> setup_s, op_ms, traced_ms, untraced_ms;
  std::uint64_t traced_ops = 0, points = 0, plan_builds = 0;
  double eval_hit_ratio = 0, eval_misses = 0, inflight_waits = 0;
  double artifact_hit_ratio = 0, artifact_entries = 0, stolen = 0;
  double cpu_util = 0;

  const double t_begin = now_s();
  for (std::uint64_t op = 0; op == 0 || now_s() - t_begin < args.seconds;
       ++op) {
    // Hand the previous op's freed heap back, as a finished process
    // would, so peak RSS does not grow with the number of ops a run holds.
    malloc_trim(0);
    const bool traced = args.trace && op % 2 == 1;
    obs::set_enabled(traced);
    const std::uint64_t plans0 = counter_value("sta.plan.builds");
    // The set-up a sweep process pays, timed apart from the op (see the
    // compile workload).
    const cell::Library lib = characterize_library(setup_s);
    ++rr.attempted;
    dse::SweepReport rep;
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    try {
      obs::SpanGuard op_span("bench.op");
      rep = dse::run_sweep(lib, specs, opt);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "sweep op %llu failed: %s\n",
                   static_cast<unsigned long long>(op), e.what());
      ++rr.failed;
      continue;
    }
    const double wall = now_s() - t0;
    const double cpu = process_cpu_s() - cpu0;
    obs::set_enabled(false);
    op_ms.push_back(wall * 1e3);
    (traced ? traced_ms : untraced_ms).push_back(wall * 1e3);

    const std::string frontier = dse::sweep_frontier_json(rep);
    if (rep.cancelled || frontier != reference) {
      ++rr.failed;
      const std::string actual = args.work_dir + "/sweep_frontier.actual.json";
      std::FILE* f = std::fopen(actual.c_str(), "wb");
      if (f != nullptr) {
        std::fwrite(frontier.data(), 1, frontier.size(), f);
        std::fclose(f);
      }
      std::fprintf(stderr,
                   "sweep op %llu: frontier differs from the committed "
                   "reference (written to %s)\n",
                   static_cast<unsigned long long>(op), actual.c_str());
    }
    if (!traced) continue;
    ++traced_ops;
    for (const dse::SpecResult& s : rep.per_spec) {
      points += s.result.explored.size();
    }
    plan_builds += counter_value("sta.plan.builds") - plans0;
    eval_hit_ratio += rep.cache.hit_rate();
    eval_misses += static_cast<double>(rep.cache.misses);
    inflight_waits += static_cast<double>(rep.cache.inflight_waits);
    const double ah = static_cast<double>(rep.artifact_hits());
    const double am = static_cast<double>(rep.artifact_misses());
    artifact_hit_ratio += ah + am > 0 ? ah / (ah + am) : 0;
    for (const auto& t : rep.artifacts) {
      artifact_entries += static_cast<double>(t.entries);
    }
    stolen += static_cast<double>(rep.pool.stolen);
    cpu_util += cpu / (wall * kSweepThreads);
  }
  const double wall_s = now_s() - t_begin;
  rr.info["ops"] = std::to_string(op_ms.size());
  rr.info["op_ms"] = join_rounded(op_ms);
  rr.info["specs_per_op"] = std::to_string(specs.size());

  if (!args.trace) {
    rr.metrics["setup_s"] = median(setup_s);
    rr.metrics["latency_p50_ms"] = median(op_ms);
    // A run holds ~8 ops, too few for any percentile to have ten ops
    // beyond it; p75 is the steadiest upper quantile they support.
    rr.metrics["latency_tail_ms"] = quantile(op_ms, 0.75);
    rr.metrics["throughput_per_s"] =
        static_cast<double>(op_ms.size() * specs.size()) / wall_s;
    rr.metrics["peak_rss_mb"] =
        static_cast<double>(obs::peak_rss_kb()) / 1024.0;
    rr.info["latency_tail"] = "p75";
    return rr;
  }

  const LayerTimes lt = reduce_spans(obs::tracer().snapshot(), "bench.op");
  const double n = traced_ops > 0 ? static_cast<double>(traced_ops) : 1.0;
  for (const auto& [metric, ms] : lt.self_ms) rr.metrics[metric] = ms / n;
  rr.metrics["trace.op_ms"] = lt.root_ms / n;
  rr.metrics["cell.characterize_ms"] = median(setup_s) * 1e3;
  rr.metrics["search.points"] = static_cast<double>(points) / n;
  rr.metrics["scl.slices"] =
      (lt.count("scl.slice.flatten") + lt.count("scl.slice.flatten.skip")) / n;
  rr.metrics["sta.plan_builds"] = static_cast<double>(plan_builds) / n;
  rr.metrics["dse.eval.hit_ratio"] = eval_hit_ratio / n;
  rr.metrics["dse.eval.misses"] = eval_misses / n;
  rr.metrics["dse.eval.inflight_waits"] = inflight_waits / n;
  rr.metrics["dse.cpu_util"] = cpu_util / n;
  rr.metrics["dse.pool.stolen"] = stolen / n;
  rr.metrics["artifact.hit_ratio"] = artifact_hit_ratio / n;
  rr.metrics["artifact.entries"] = artifact_entries / n;
  rr.metrics["obs.overhead_pct"] = overhead_pct(traced_ms, untraced_ms);
  return rr;
}

}  // namespace perfbench
