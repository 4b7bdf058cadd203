#include "dse/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <mutex>
#include <sstream>
#include <unordered_set>

#include "core/compiler.hpp"
#include "core/diag.hpp"
#include "core/diskstore.hpp"
#include "dse/shard.hpp"
#include "json/json.hpp"
#include "obs/obs.hpp"

namespace syndcim::dse {

namespace {

using json::json_escape;
using json::json_number;

void point_json(std::ostringstream& os, const FrontierPoint& fp,
                const core::PerfSpec& spec, const char* indent,
                bool with_timeline = false) {
  const core::DesignPoint& p = fp.point;
  os << indent << "{\"label\": \"" << json_escape(p.label)
     << "\", \"spec_index\": " << fp.spec_index
     << ", \"point_id\": \"" << fp.point_id
     << "\", \"feasible\": " << (p.feasible ? "true" : "false")
     << ", \"fmax_mhz\": " << json_number(p.ppa.fmax_mhz)
     << ", \"power_uw\": " << json_number(p.ppa.power_uw)
     << ", \"area_um2\": " << json_number(p.ppa.area_um2)
     << ", \"energy_per_mac_fj\": " << json_number(p.ppa.energy_per_mac_fj)
     << ", \"tops_1b\": " << json_number(p.ppa.tops_1b)
     << ", \"latency_cycles\": " << p.ppa.latency_cycles
     // The architecture/clock facts netmap needs to tile and schedule a
     // model against this point without re-deriving the sweep.
     << ", \"macro\": {\"rows\": " << p.cfg.rows
     << ", \"cols\": " << p.cfg.cols << ", \"mcr\": " << p.cfg.mcr
     << ", \"input_bits\": [";
  for (std::size_t i = 0; i < p.cfg.input_bits.size(); ++i) {
    os << (i ? ", " : "") << p.cfg.input_bits[i];
  }
  os << "], \"weight_bits\": [";
  for (std::size_t i = 0; i < p.cfg.weight_bits.size(); ++i) {
    os << (i ? ", " : "") << p.cfg.weight_bits[i];
  }
  os << "], \"mac_mhz\": " << json_number(spec.mac_freq_mhz)
     << ", \"wupdate_mhz\": " << json_number(spec.wupdate_freq_mhz)
     << ", \"write_fmax_mhz\": " << json_number(p.ppa.write_fmax_mhz) << "}"
     << ", \"applied\": [";
  for (std::size_t i = 0; i < p.applied.size(); ++i) {
    os << (i ? ", " : "") << '"' << json_escape(p.applied[i]) << '"';
  }
  os << "]";
  if (fp.lint_errors >= 0) {
    os << ", \"lint\": {\"errors\": " << fp.lint_errors
       << ", \"warnings\": " << fp.lint_warnings << "}";
  }
  if (with_timeline && !fp.timeline.phases.empty()) {
    os << ", \"phases\": " << fp.timeline.to_json();
  }
  os << "}";
}

void spec_json(std::ostringstream& os, const core::PerfSpec& s) {
  os << "{\"rows\": " << s.rows << ", \"cols\": " << s.cols
     << ", \"mcr\": " << s.mcr
     << ", \"mac_mhz\": " << json_number(s.mac_freq_mhz)
     << ", \"wupdate_mhz\": " << json_number(s.wupdate_freq_mhz)
     << ", \"vdd\": " << json_number(s.vdd) << ", \"pref\": ["
     << json_number(s.pref.power) << ", " << json_number(s.pref.area) << ", "
     << json_number(s.pref.performance) << "]}";
}

/// Per-run view of tier statistics against a start-of-run snapshot:
/// hit/miss/evicted counts become deltas (what *this* sweep did), while
/// entries/bytes stay absolute (occupancy is a property of the store).
/// With a sweep-private store the snapshot is all-zero and the deltas are
/// the totals, so the batch path's report is unchanged.
std::vector<core::ArtifactTierStats> tier_deltas(
    const std::vector<core::ArtifactTierStats>& before,
    std::vector<core::ArtifactTierStats> after) {
  for (std::size_t i = 0; i < after.size() && i < before.size(); ++i) {
    after[i].hits -= before[i].hits;
    after[i].misses -= before[i].misses;
    after[i].evicted -= before[i].evicted;
    after[i].l2_hits -= before[i].l2_hits;
    after[i].l2_misses -= before[i].l2_misses;
    after[i].l2_writes -= before[i].l2_writes;
    after[i].l2_write_fails -= before[i].l2_write_fails;
    after[i].l2_rejects -= before[i].l2_rejects;
    after[i].inflight_waits -= before[i].inflight_waits;
  }
  return after;
}

/// Non-dominated filtering over the merged shard fronts. Unlike the
/// per-spec (power, area) front, the global merge spans specs with
/// different clock targets, so throughput joins the dominance check:
/// a 450 MHz design burning more power than a 250 MHz one is not
/// dominated — it delivers more TOPS. Ties are broken by a total sort
/// order — (power, area, spec_index, label) — so the global frontier is
/// bit-identical no matter how the input was ordered.
std::vector<FrontierPoint> global_front(std::vector<FrontierPoint> pts) {
  std::vector<FrontierPoint> front;
  for (const FrontierPoint& p : pts) {
    if (!p.point.feasible) continue;
    bool dominated = false;
    for (const FrontierPoint& q : pts) {
      if (!q.point.feasible || &q == &p) continue;
      const bool no_worse = q.point.ppa.power_uw <= p.point.ppa.power_uw &&
                            q.point.ppa.area_um2 <= p.point.ppa.area_um2 &&
                            q.point.ppa.tops_1b >= p.point.ppa.tops_1b;
      const bool better = q.point.ppa.power_uw < p.point.ppa.power_uw ||
                          q.point.ppa.area_um2 < p.point.ppa.area_um2 ||
                          q.point.ppa.tops_1b > p.point.ppa.tops_1b;
      if (no_worse && better) {
        dominated = true;
        break;
      }
    }
    if (!dominated) front.push_back(p);
  }
  std::sort(front.begin(), front.end(),
            [](const FrontierPoint& a, const FrontierPoint& b) {
              if (a.point.ppa.power_uw != b.point.ppa.power_uw) {
                return a.point.ppa.power_uw < b.point.ppa.power_uw;
              }
              if (a.point.ppa.area_um2 != b.point.ppa.area_um2) {
                return a.point.ppa.area_um2 < b.point.ppa.area_um2;
              }
              if (a.spec_index != b.spec_index) {
                return a.spec_index < b.spec_index;
              }
              return a.point.label < b.point.label;
            });
  front.erase(
      std::unique(front.begin(), front.end(),
                  [](const FrontierPoint& a, const FrontierPoint& b) {
                    return std::abs(a.point.ppa.power_uw -
                                    b.point.ppa.power_uw) < 1e-9 &&
                           std::abs(a.point.ppa.area_um2 -
                                    b.point.ppa.area_um2) < 1e-9 &&
                           std::abs(a.point.ppa.tops_1b -
                                    b.point.ppa.tops_1b) < 1e-12;
                  }),
      front.end());
  return front;
}

/// Runs fn(i) for every i in [0, n) on a pool of `threads` workers. Once
/// all have finished, rethrows the first exception a task threw. Returns
/// the pool's statistics.
WorkStealingPool::Stats run_tasks(
    int threads, std::size_t n, const std::function<void(std::size_t)>& fn) {
  std::exception_ptr first_error;
  std::mutex error_mu;
  WorkStealingPool::Stats stats;
  {
    WorkStealingPool pool(threads);
    parallel_for(pool, n, [&](std::size_t i) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
    stats = pool.stats();
  }
  if (first_error) std::rethrow_exception(first_error);
  return stats;
}

}  // namespace

std::vector<core::PerfSpec> SweepGrid::expand() const {
  const std::vector<double> freqs =
      mac_freqs_mhz.empty() ? std::vector<double>{base.mac_freq_mhz}
                            : mac_freqs_mhz;
  const std::vector<int> mcr_list = mcrs.empty() ? std::vector<int>{base.mcr}
                                                 : mcrs;
  const std::vector<std::vector<int>> prec_list =
      precisions.empty() ? std::vector<std::vector<int>>{base.input_bits}
                         : precisions;
  const std::vector<core::PpaPreference> pref_list =
      prefs.empty() ? std::vector<core::PpaPreference>{base.pref} : prefs;

  std::vector<core::PerfSpec> out;
  out.reserve(freqs.size() * mcr_list.size() * prec_list.size() *
              pref_list.size());
  for (const double f : freqs) {
    for (const int m : mcr_list) {
      for (const std::vector<int>& bits : prec_list) {
        for (const core::PpaPreference& pref : pref_list) {
          core::PerfSpec s = base;
          s.mac_freq_mhz = f;
          s.mcr = m;
          if (!bits.empty()) {
            s.input_bits = bits;
            s.weight_bits = bits;
          }
          s.pref = pref;
          out.push_back(std::move(s));
        }
      }
    }
  }
  return out;
}

SweepGrid grid_from_kv(std::map<std::string, std::string> kv) {
  SweepGrid grid;
  if (const auto it = kv.find("sweep_mac_mhz"); it != kv.end()) {
    std::stringstream ss(it->second);
    std::string item;
    while (std::getline(ss, item, ',')) {
      grid.mac_freqs_mhz.push_back(
          core::parse_number(it->first, item, /*positive=*/true));
    }
    kv.erase(it);
  }
  if (const auto it = kv.find("sweep_mcr"); it != kv.end()) {
    grid.mcrs = core::parse_int_list(it->first, it->second);
    kv.erase(it);
  }
  if (const auto it = kv.find("sweep_bits"); it != kv.end()) {
    std::stringstream groups(it->second);
    std::string group;
    while (std::getline(groups, group, ';')) {
      grid.precisions.push_back(core::parse_int_list(it->first, group));
    }
    kv.erase(it);
  }
  if (const auto it = kv.find("sweep_pref"); it != kv.end()) {
    std::stringstream ss(it->second);
    std::string name;
    while (std::getline(ss, name, ',')) {
      grid.prefs.push_back(core::named_pref(name));
    }
    kv.erase(it);
  }
  grid.base = core::spec_from_kv(kv);
  // Default grid (12 points) when no dimension was given: frequency x
  // MCR x preference around the base spec.
  if (grid.mac_freqs_mhz.empty() && grid.mcrs.empty() &&
      grid.precisions.empty() && grid.prefs.empty()) {
    grid.mac_freqs_mhz = {250.0, 350.0, 450.0};
    grid.mcrs = {1, 2};
    grid.prefs = {core::named_pref("balanced"), core::named_pref("power")};
  }
  return grid;
}

SweepReport run_sweep(const cell::Library& lib,
                      const std::vector<core::PerfSpec>& specs,
                      const SweepOptions& opt) {
  OBS_SPAN("dse.sweep");
  const auto t0 = std::chrono::steady_clock::now();
  const int threads =
      opt.threads > 0 ? opt.threads : WorkStealingPool::default_threads();

  // One SCL over one artifact store shared by every worker: slice
  // characterizations are spec-independent, so every task reuses them.
  // Disabling the store bypasses every tier but runs the identical code
  // path. A caller-owned store (the serve daemon's process-wide one) is
  // adopted via a non-owning handle, and its enabled state is the
  // owner's business.
  const std::shared_ptr<core::ArtifactStore> store =
      opt.shared_store != nullptr
          ? std::shared_ptr<core::ArtifactStore>(opt.shared_store,
                                                 [](core::ArtifactStore*) {})
          : std::make_shared<core::ArtifactStore>();
  if (opt.shared_store == nullptr) store->set_enabled(opt.use_artifact_cache);
  core::SubcircuitLibrary scl(lib, store);
  // Start-of-run snapshot: report/metric statistics stay per-run deltas
  // even when the store outlives this sweep.
  const std::vector<core::ArtifactTierStats> store_before = store->stats();
  const core::ArtifactTierStats slices_before = store->slices.stats();
  core::MsoSearcher searcher(scl);

  // Durable L2 under the private artifact store: a second sweep over the
  // same grid starts warm, and concurrent shard processes share the
  // directory as their common cache. A caller-owned store keeps whatever
  // persistence its owner wired.
  std::unique_ptr<core::DiskBlobStore> disk;
  if (!opt.store_dir.empty() && opt.shared_store == nullptr) {
    disk = std::make_unique<core::DiskBlobStore>(opt.store_dir);
    store->attach_blob_store(disk.get());
  }

  // Enumerate every (spec, trajectory) task up front; seeds are cheap.
  // Results land in preallocated slots so the merge below is independent
  // of the execution schedule. Under --shard i/N only the owned specs
  // get tasks; the others keep empty slots (and empty per-spec results),
  // preserving global spec indices for the byte-identical merge.
  struct Task {
    std::size_t spec_idx;
    std::size_t traj_idx;
    core::TrajectorySeed seed;
  };
  std::vector<Task> tasks;
  std::vector<std::vector<core::SearchResult>> slots(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!shard_owns(i, opt.shard_index, opt.shard_count)) continue;
    auto seeds = core::MsoSearcher::trajectory_seeds(specs[i]);
    slots[i].resize(seeds.size());
    for (std::size_t j = 0; j < seeds.size(); ++j) {
      tasks.push_back({i, j, std::move(seeds[j])});
    }
  }

  SweepReport rep;
  rep.n_tasks = tasks.size();
  rep.pool = run_tasks(threads, tasks.size(), [&](std::size_t k) {
    // Cooperative cancellation boundary: once the token trips (request
    // deadline, drain, SIGINT) the remaining tasks become no-ops and their
    // slots stay empty — the merge below simply sees fewer trajectory
    // fragments.
    if (opt.cancel != nullptr && opt.cancel->cancelled()) return;
    const Task& t = tasks[k];
    slots[t.spec_idx][t.traj_idx] =
        searcher.run_trajectory(t.seed, specs[t.spec_idx]);
  });
  rep.cancelled = opt.cancel != nullptr && opt.cancel->cancelled();

  // Per-spec reduction: concatenate the trajectory fragments in seed
  // order (identical to a sequential MsoSearcher::search) and extract
  // each spec's own front.
  rep.per_spec.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SpecResult sr;
    sr.spec = specs[i];
    for (core::SearchResult& frag : slots[i]) {
      sr.result.append(std::move(frag));
    }
    sr.result.pareto = core::pareto_front(sr.result.explored);
    rep.per_spec.push_back(std::move(sr));
  }

  // Global reduction, shared with the shard merge (dse/shard.cpp): see
  // merge_global_frontier below.
  rep.frontier = merge_global_frontier(rep.per_spec);

  // Static sanity of every surviving frontier point: a frontier entry is
  // what a user will actually implement, so its elaborated netlist gets
  // the compiler's own lint stage, memo included.
  if (opt.lint_frontier && !rep.cancelled) {
    lint_frontier_points(lib, rep.frontier, *store, threads);
  }

  if (disk != nullptr) {
    // Drain makes the run durable: dirty L1 entries become L2 objects,
    // so the next invocation (or another shard) starts warm.
    store->flush_l2();
    if (opt.diag != nullptr) disk->drain_diags(*opt.diag);
    rep.store_json = disk->stats_json();
  }
  rep.artifacts = tier_deltas(store_before, store->stats());
  rep.cache = tier_deltas({slices_before}, {store->slices.stats()}).front();
  rep.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

  // Publish this run's authoritative pool/cache statistics into the
  // metrics registry (the hot paths themselves only feed trace spans and
  // the queue-depth histogram, so nothing is counted twice). Always on:
  // one registry pass per sweep is noise, and it keeps the CLI summary
  // and --metrics dumps truthful even when tracing is off.
  obs::MetricsRegistry& m = obs::metrics();
  m.counter("dse.cache.hit").inc(rep.cache.hits);
  m.counter("dse.cache.miss").inc(rep.cache.misses);
  m.counter("dse.cache.inflight_wait").inc(rep.cache.inflight_waits);
  m.counter("dse.pool.execute").inc(rep.pool.executed);
  m.counter("dse.pool.steal").inc(rep.pool.stolen);
  m.counter("dse.sweep.task").inc(rep.n_tasks);
  m.counter("dse.sweep.run").inc();
  m.gauge("dse.pool.threads").set(static_cast<double>(rep.pool.threads));
  m.gauge("dse.sweep.wall_ms").set(rep.wall_ms);
  m.counter("dse.artifact.hit").inc(rep.artifact_hits());
  m.counter("dse.artifact.miss").inc(rep.artifact_misses());
  for (const core::ArtifactTierStats& t : rep.artifacts) {
    m.gauge("dse.artifact." + t.name + ".entries")
        .set(static_cast<double>(t.entries));
  }
  return rep;
}

std::vector<FrontierPoint> merge_global_frontier(
    const std::vector<SpecResult>& per_spec) {
  // Merge the shard fronts, dropping duplicate (config, timing-knob)
  // evaluations (specs differing only in PPA preference explore
  // identical points), then re-filter dominance over the union.
  std::vector<FrontierPoint> merged;
  std::unordered_set<std::string> seen;
  for (std::size_t i = 0; i < per_spec.size(); ++i) {
    for (const core::DesignPoint& p : per_spec[i].result.pareto) {
      const std::string key = canonical_config_key(p.cfg) + "|" +
                              canonical_spec_knobs_key(per_spec[i].spec);
      if (!seen.insert(key).second) continue;
      FrontierPoint fp;
      fp.point = p;
      fp.spec_index = i;
      // The id hashes exactly the dedup key above, so identical
      // evaluations share an id across sweeps and thread counts.
      fp.point_id = frontier_point_id(p.cfg, per_spec[i].spec);
      merged.push_back(std::move(fp));
    }
  }
  return global_front(std::move(merged));
}

void lint_frontier_points(const cell::Library& lib,
                          std::vector<FrontierPoint>& frontier,
                          core::ArtifactStore& store, int threads) {
  // The tasks read the fingerprint concurrently; its first computation
  // is not thread-safe.
  (void)lib.fingerprint();
  // Each lint writes only its own point, so the result does not depend
  // on the schedule. Each opens its own span and no span covers the
  // wait, so a trace credits frontier lint with lint work only.
  const auto lint = [&](FrontierPoint& fp) {
    OBS_SPAN("dse.frontier.lint");
    const auto la = core::lint_config(lib, store, fp.point.cfg, &fp.timeline);
    fp.lint_errors = static_cast<int>(la->summary.errors);
    fp.lint_warnings = static_cast<int>(la->summary.warnings);
  };
  // A point the store already linted costs one lookup, less than
  // starting a worker thread for it: those run here, and only the rest
  // get a pool.
  std::vector<FrontierPoint*> misses;
  for (FrontierPoint& fp : frontier) {
    if (core::lint_cached(lib, store, fp.point.cfg)) {
      lint(fp);
    } else {
      misses.push_back(&fp);
    }
  }
  if (misses.empty()) return;
  run_tasks(std::min(threads, static_cast<int>(misses.size())), misses.size(),
            [&](std::size_t i) { lint(*misses[i]); });
}

std::uint64_t SweepReport::artifact_hits() const {
  std::uint64_t n = 0;
  for (const core::ArtifactTierStats& t : artifacts) n += t.hits;
  return n;
}

std::uint64_t SweepReport::artifact_misses() const {
  std::uint64_t n = 0;
  for (const core::ArtifactTierStats& t : artifacts) n += t.misses;
  return n;
}

std::string frontier_point_id(const rtlgen::MacroConfig& cfg,
                              const core::PerfSpec& spec) {
  const std::string key =
      canonical_config_key(cfg) + "|" + canonical_spec_knobs_key(spec);
  char idbuf[17];
  std::snprintf(idbuf, sizeof(idbuf), "%016llx",
                static_cast<unsigned long long>(fnv1a64(key)));
  return idbuf;
}

std::string sweep_frontier_json(const SweepReport& r) {
  std::ostringstream os;
  os << "{\n  \"frontier\": [\n";
  for (std::size_t i = 0; i < r.frontier.size(); ++i) {
    if (i) os << ",\n";
    point_json(os, r.frontier[i],
               r.per_spec[r.frontier[i].spec_index].spec, "    ");
  }
  os << "\n  ]\n}\n";
  return os.str();
}

std::string sweep_report_json(const SweepReport& r) {
  std::ostringstream os;
  os << "{\n  \"specs\": " << r.per_spec.size()
     << ",\n  \"tasks\": " << r.n_tasks
     << ",\n  \"cancelled\": " << (r.cancelled ? "true" : "false")
     << ",\n  \"wall_ms\": " << json_number(r.wall_ms)
     << ",\n  \"pool\": {\"threads\": " << r.pool.threads
     << ", \"executed\": " << r.pool.executed
     << ", \"stolen\": " << r.pool.stolen << "}"
     << ",\n  \"cache\": {\"hits\": " << r.cache.hits
     << ", \"misses\": " << r.cache.misses
     << ", \"hit_rate\": " << json_number(r.cache.hit_rate())
     << ", \"inflight_waits\": " << r.cache.inflight_waits
     << ", \"entries\": " << r.cache.entries << "}"
     << ",\n  \"artifacts\": {\"hits\": " << r.artifact_hits()
     << ", \"misses\": " << r.artifact_misses() << ", \"tiers\": [";
  for (std::size_t i = 0; i < r.artifacts.size(); ++i) {
    const core::ArtifactTierStats& t = r.artifacts[i];
    if (i) os << ", ";
    os << "{\"name\": \"" << json_escape(t.name) << "\", \"hits\": " << t.hits
       << ", \"misses\": " << t.misses << ", \"entries\": " << t.entries
       << ", \"evicted\": " << t.evicted << ", \"l2_hits\": " << t.l2_hits
       << ", \"l2_misses\": " << t.l2_misses
       << ", \"l2_writes\": " << t.l2_writes
       << ", \"l2_rejects\": " << t.l2_rejects << "}";
  }
  os << "]}";
  if (!r.store_json.empty()) os << ",\n  \"store\": " << r.store_json;
  os << ",\n  \"per_spec\": [\n";
  for (std::size_t i = 0; i < r.per_spec.size(); ++i) {
    const SpecResult& sr = r.per_spec[i];
    if (i) os << ",\n";
    os << "    {\"spec\": ";
    spec_json(os, sr.spec);
    os << ", \"explored\": " << sr.result.explored.size()
       << ", \"pareto\": " << sr.result.pareto.size()
       << ", \"feasible\": " << (sr.result.feasible() ? "true" : "false");
    if (sr.result.feasible()) {
      os << ", \"best\": ";
      FrontierPoint best;
      best.point = sr.result.best(sr.spec.pref);
      best.spec_index = i;
      best.point_id = frontier_point_id(best.point.cfg, sr.spec);
      point_json(os, best, sr.spec, "");
    }
    os << "}";
  }
  os << "\n  ],\n  \"frontier\": [\n";
  for (std::size_t i = 0; i < r.frontier.size(); ++i) {
    if (i) os << ",\n";
    point_json(os, r.frontier[i],
               r.per_spec[r.frontier[i].spec_index].spec, "    ",
               /*with_timeline=*/true);
  }
  os << "\n  ]\n}\n";
  return os.str();
}

}  // namespace syndcim::dse
