// Unit + determinism tests of the src/dse subsystem and the memo layer it
// evaluates through: config/spec hashing, evaluation-cache accounting,
// ArtifactCache in-flight deduplication (also through StagePipeline and
// gen_macro), concurrent SubcircuitLibrary evaluation, the work-stealing
// pool, sweep-grid parsing, and search/sweep reproducibility across runs
// and thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cell/characterize.hpp"
#include "core/artifact_cache.hpp"
#include "core/compiler.hpp"
#include "core/searcher.hpp"
#include "core/spec.hpp"
#include "core/stage.hpp"
#include "dse/eval_cache.hpp"
#include "dse/pool.hpp"
#include "dse/sweep.hpp"
#include "netlist/verilog.hpp"
#include "obs/obs.hpp"
#include "rtlgen/content_key.hpp"
#include "rtlgen/macro.hpp"
#include "tech/tech_node.hpp"

using namespace syndcim;

namespace {

const cell::Library& test_library() {
  static const cell::Library lib =
      cell::characterize_default_library(tech::make_default_40nm());
  return lib;
}

core::PerfSpec small_spec() {
  core::PerfSpec spec;
  spec.rows = 32;
  spec.cols = 32;
  spec.mcr = 2;
  spec.input_bits = {4};
  spec.weight_bits = {4};
  spec.mac_freq_mhz = 300.0;
  spec.wupdate_freq_mhz = 300.0;
  return spec;
}

void expect_same_points(const std::vector<core::DesignPoint>& a,
                        const std::vector<core::DesignPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label) << "point " << i;
    EXPECT_EQ(a[i].applied, b[i].applied) << "point " << i;
    EXPECT_EQ(a[i].feasible, b[i].feasible) << "point " << i;
    EXPECT_EQ(a[i].ppa.power_uw, b[i].ppa.power_uw) << "point " << i;
    EXPECT_EQ(a[i].ppa.area_um2, b[i].ppa.area_um2) << "point " << i;
    EXPECT_EQ(a[i].ppa.fmax_mhz, b[i].ppa.fmax_mhz) << "point " << i;
    EXPECT_EQ(dse::hash_config(a[i].cfg), dse::hash_config(b[i].cfg))
        << "point " << i;
  }
}

void expect_same_outcome(const core::EvalOutcome& a,
                         const core::EvalOutcome& b) {
  EXPECT_EQ(a.ppa.fmax_mhz, b.ppa.fmax_mhz);
  EXPECT_EQ(a.ppa.write_fmax_mhz, b.ppa.write_fmax_mhz);
  EXPECT_EQ(a.ppa.power_uw, b.ppa.power_uw);
  EXPECT_EQ(a.ppa.area_um2, b.ppa.area_um2);
  EXPECT_EQ(a.ppa.energy_per_mac_fj, b.ppa.energy_per_mac_fj);
  EXPECT_EQ(a.ppa.latency_cycles, b.ppa.latency_cycles);
  EXPECT_EQ(a.ppa.tops_1b, b.ppa.tops_1b);
  EXPECT_EQ(a.timing.mac_period_ps, b.timing.mac_period_ps);
  EXPECT_EQ(a.timing.ofu_period_ps, b.timing.ofu_period_ps);
  EXPECT_EQ(a.timing.write_period_ps, b.timing.write_period_ps);
  EXPECT_EQ(a.timing.mac_ok, b.timing.mac_ok);
  EXPECT_EQ(a.timing.ofu_ok, b.timing.ofu_ok);
  EXPECT_EQ(a.timing.write_ok, b.timing.write_ok);
}

/// Blocks the calling compute function until `n` other callers wait on
/// its claim, or 10 s pass: a caller that never waits fails the test's
/// counts instead of hanging it.
template <typename T>
void await_waiters(const core::ArtifactCache<T>& cache, std::uint64_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (cache.stats().inflight_waits < n &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Blocks until another thread has claimed a key of the empty `cache`.
template <typename T>
void await_claim(const core::ArtifactCache<T>& cache) {
  while (cache.stats().misses == 0) std::this_thread::yield();
}

}  // namespace

TEST(ConfigHash, EqualConfigsHashEqual) {
  const core::PerfSpec spec = small_spec();
  const rtlgen::MacroConfig a = spec.base_config();
  const rtlgen::MacroConfig b = spec.base_config();
  EXPECT_EQ(dse::canonical_config_key(a), dse::canonical_config_key(b));
  EXPECT_EQ(dse::hash_config(a), dse::hash_config(b));
}

TEST(ConfigHash, EveryFieldFlipChangesHash) {
  const rtlgen::MacroConfig base = small_spec().base_config();
  using Mutator = void (*)(rtlgen::MacroConfig&);
  const std::vector<std::pair<const char*, Mutator>> mutators = {
      {"rows", [](rtlgen::MacroConfig& c) { c.rows *= 2; }},
      {"cols", [](rtlgen::MacroConfig& c) { c.cols *= 2; }},
      {"mcr", [](rtlgen::MacroConfig& c) { c.mcr += 1; }},
      {"input_bits", [](rtlgen::MacroConfig& c) { c.input_bits = {8}; }},
      {"weight_bits", [](rtlgen::MacroConfig& c) { c.weight_bits = {8}; }},
      {"fp_formats",
       [](rtlgen::MacroConfig& c) { c.fp_formats = {num::kFp8}; }},
      {"fp_guard_bits", [](rtlgen::MacroConfig& c) { c.fp_guard_bits++; }},
      {"bitcell",
       [](rtlgen::MacroConfig& c) { c.bitcell = rtlgen::BitcellKind::k8T; }},
      {"mux",
       [](rtlgen::MacroConfig& c) {
         c.mux = rtlgen::MuxStyle::kPassGate1T;
       }},
      {"tree.style",
       [](rtlgen::MacroConfig& c) {
         c.tree.style = rtlgen::AdderTreeStyle::kRcaTree;
       }},
      {"tree.fa_fraction",
       [](rtlgen::MacroConfig& c) { c.tree.fa_fraction += 0.25; }},
      {"tree.carry_reorder",
       [](rtlgen::MacroConfig& c) {
         c.tree.carry_reorder = !c.tree.carry_reorder;
       }},
      {"tree.external_cpa",
       [](rtlgen::MacroConfig& c) {
         c.tree.external_cpa = !c.tree.external_cpa;
       }},
      {"pipe.reg_after_tree",
       [](rtlgen::MacroConfig& c) {
         c.pipe.reg_after_tree = !c.pipe.reg_after_tree;
       }},
      {"pipe.retime_tree_cpa",
       [](rtlgen::MacroConfig& c) {
         c.pipe.retime_tree_cpa = !c.pipe.retime_tree_cpa;
       }},
      {"ofu.input_reg",
       [](rtlgen::MacroConfig& c) { c.ofu.input_reg = !c.ofu.input_reg; }},
      {"ofu.pipeline_regs",
       [](rtlgen::MacroConfig& c) { c.ofu.pipeline_regs++; }},
      {"ofu.retime_stage1",
       [](rtlgen::MacroConfig& c) {
         c.ofu.retime_stage1 = !c.ofu.retime_stage1;
       }},
      {"column_split", [](rtlgen::MacroConfig& c) { c.column_split *= 2; }},
  };
  for (const auto& [name, mutate] : mutators) {
    rtlgen::MacroConfig m = base;
    mutate(m);
    EXPECT_NE(dse::hash_config(base), dse::hash_config(m))
        << "flipping " << name << " must change the hash";
  }
}

TEST(ConfigHash, SpecKnobsCoverTimingButNotPreference) {
  const core::PerfSpec base = small_spec();
  core::PerfSpec pref = base;
  pref.pref.power = 99.0;  // selection-only: must share cache entries
  EXPECT_EQ(dse::hash_spec_knobs(base), dse::hash_spec_knobs(pref));

  core::PerfSpec freq = base;
  freq.mac_freq_mhz += 50.0;
  EXPECT_NE(dse::hash_spec_knobs(base), dse::hash_spec_knobs(freq));
  core::PerfSpec wfreq = base;
  wfreq.wupdate_freq_mhz += 50.0;
  EXPECT_NE(dse::hash_spec_knobs(base), dse::hash_spec_knobs(wfreq));
  core::PerfSpec vdd = base;
  vdd.vdd += 0.1;
  EXPECT_NE(dse::hash_spec_knobs(base), dse::hash_spec_knobs(vdd));
  core::PerfSpec margin = base;
  margin.timing_margin += 0.05;
  EXPECT_NE(dse::hash_spec_knobs(base), dse::hash_spec_knobs(margin));
}

TEST(ConfigHash, Fnv1a64KeepsItsHistoricalBasis) {
  // Frontier point ids are built on this exact output, whose basis is
  // not the standard FNV-1a one.
  const std::string key = "cfg{r64,c64}";
  EXPECT_EQ(dse::fnv1a64(key), 0xf61139eb0648f50eULL);
  EXPECT_EQ(core::artifact_fnv1a64(key.data(), key.size()),
            0x702cef43d42aa828ULL);
  EXPECT_EQ(dse::fnv1a64(""), 1469598103934665603ULL);
}

// The evaluation cache is the artifact store's `slices` tier: one lookup
// per evaluation, keyed by the slice alone, so every spec variant of a
// configuration shares one entry and only re-derives timing and PPA from
// it.
TEST(EvalCache, HitMissAccounting) {
  core::SubcircuitLibrary scl(test_library());
  const core::ArtifactCache<core::SliceEval>& slices = scl.artifacts().slices;
  const core::PerfSpec spec = small_spec();
  const rtlgen::MacroConfig cfg = spec.base_config();

  const core::EvalOutcome first = scl.evaluate(cfg, spec);
  EXPECT_EQ(slices.stats().misses, 1u);
  EXPECT_EQ(slices.stats().hits, 0u);

  const core::EvalOutcome second = scl.evaluate(cfg, spec);
  EXPECT_EQ(slices.stats().misses, 1u) << "second evaluation must be memoized";
  EXPECT_EQ(slices.stats().hits, 1u);
  expect_same_outcome(first, second);

  // Preference-only and timing-only spec changes both hit the entry.
  core::PerfSpec pref = spec;
  pref.pref.area = 42.0;
  expect_same_outcome(scl.evaluate(cfg, pref), first);
  core::PerfSpec faster = spec;
  faster.mac_freq_mhz += 100.0;
  const core::EvalOutcome fast = scl.evaluate(cfg, faster);
  EXPECT_EQ(slices.stats().hits, 3u);
  EXPECT_EQ(slices.stats().misses, 1u);
  EXPECT_EQ(fast.timing.mac_period_ps, first.timing.mac_period_ps);
  EXPECT_GT(fast.ppa.tops_1b, first.ppa.tops_1b);

  // A configuration with another slice misses.
  rtlgen::MacroConfig regs = cfg;
  regs.ofu.pipeline_regs = 1;
  ASSERT_NE(rtlgen::slice_content_key(regs), rtlgen::slice_content_key(cfg));
  (void)scl.evaluate(regs, spec);
  EXPECT_EQ(slices.stats().misses, 2u);
  EXPECT_EQ(slices.stats().entries, 2u);
  EXPECT_DOUBLE_EQ(slices.stats().hit_rate(), 3.0 / 5.0);

  // A sweep reports the tier's per-run delta, also over a store that
  // outlives it (the serve daemon's): a repeat sweep is all hits.
  core::ArtifactStore shared;
  dse::SweepOptions opt;
  opt.threads = 2;
  opt.lint_frontier = false;
  opt.shared_store = &shared;
  const std::vector<core::PerfSpec> specs = {spec};
  const dse::SweepReport cold = dse::run_sweep(test_library(), specs, opt);
  const dse::SweepReport warm = dse::run_sweep(test_library(), specs, opt);
  EXPECT_GT(cold.cache.misses, 0u);
  EXPECT_EQ(cold.cache.misses, shared.slices.stats().entries);
  EXPECT_EQ(warm.cache.misses, 0u);
  EXPECT_EQ(warm.cache.hits, cold.cache.lookups());
  EXPECT_EQ(warm.cache.hit_rate(), 1.0);
  EXPECT_EQ(shared.slices.stats().lookups(),
            cold.cache.lookups() + warm.cache.lookups());
}

TEST(ArtifactCacheInflight, ConcurrentCallersComputeOnceAndShareThePointer) {
  constexpr int kThreads = 6;
  core::ArtifactCache<int> cache("t");
  std::atomic<int> computes{0};
  std::vector<std::shared_ptr<const int>> got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      got[i] = cache.get_or_compute("k", [&] {
        computes.fetch_add(1);
        await_waiters(cache, kThreads - 1);
        return 42;
      });
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(computes.load(), 1);
  for (const auto& p : got) {
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p, got[0]) << "every caller gets the claimant's pointer";
  }
  EXPECT_EQ(*got[0], 42);
  const core::ArtifactTierStats st = cache.stats();
  EXPECT_EQ(st.inflight_waits, kThreads - 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, kThreads - 1u);
  EXPECT_EQ(st.entries, 1u);
}

TEST(ArtifactCacheInflight, ThrowingClaimantLetsAWaiterRecompute) {
  constexpr int kThreads = 4;
  core::ArtifactCache<int> cache("t");
  std::atomic<int> attempts{0};
  std::atomic<int> failures{0};
  std::vector<std::shared_ptr<const int>> got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      try {
        got[i] = cache.get_or_compute("k", [&] {
          if (attempts.fetch_add(1) == 0) {
            await_waiters(cache, kThreads - 1);
            throw std::runtime_error("first claimant fails");
          }
          return 7;
        });
      } catch (const std::runtime_error&) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();  // nobody hangs

  EXPECT_EQ(failures.load(), 1);
  EXPECT_EQ(attempts.load(), 2) << "the failed claim plus one recompute";
  std::shared_ptr<const int> value;
  int answered = 0;
  for (const auto& p : got) {
    if (p == nullptr) continue;
    ++answered;
    if (value == nullptr) value = p;
    EXPECT_EQ(p, value);
  }
  EXPECT_EQ(answered, kThreads - 1);
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(*value, 7);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ArtifactCacheInflight, WaitIsTracedApartFromCompute) {
  obs::tracer().clear();
  obs::set_enabled(true);
  core::ArtifactCache<int> cache("t");
  std::thread claimant([&] {
    (void)cache.get_or_compute("k", [&] {
      OBS_SPAN("test.compute");
      await_waiters(cache, 1);
      return 1;
    });
  });
  std::thread waiter([&] {
    await_claim(cache);
    (void)cache.get_or_compute("k", [] { return 2; });
  });
  claimant.join();
  waiter.join();
  obs::set_enabled(false);

  int compute_tid = -1, wait_tid = -1, waits = 0;
  for (const obs::RecordedSpan& s : obs::tracer().snapshot()) {
    if (s.ev.name == "test.compute") compute_tid = s.tid;
    if (s.ev.name == "artifact.t.wait") {
      wait_tid = s.tid;
      ++waits;
    }
  }
  obs::tracer().clear();
  EXPECT_EQ(waits, 1);
  ASSERT_NE(compute_tid, -1);
  EXPECT_NE(wait_tid, compute_tid) << "the wait is its own span on the waiter";
  EXPECT_EQ(*cache.get_or_compute("k", [] { return 3; }), 1);
}

TEST(ArtifactTierClaim, StagePipelineWaitsForAClaimedKey) {
  core::ArtifactCache<int> cache("t");
  std::atomic<int> computes{0};
  std::thread claimant([&] {
    (void)cache.get_or_compute("k", [&] {
      computes.fetch_add(1);
      await_waiters(cache, 1);
      return 7;
    });
  });
  await_claim(cache);
  core::StagePipeline pipe("test");
  const auto got = pipe.run("stage", &cache, "k", [&] {
    computes.fetch_add(1);
    return 8;
  });
  claimant.join();

  EXPECT_EQ(*got, 7) << "the stage took the claimant's artifact";
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(cache.stats().inflight_waits, 1u);
  ASSERT_EQ(pipe.records().size(), 1u);
  EXPECT_TRUE(pipe.records()[0].skipped) << "a waited-for result is a skip";
}

// A wait on another caller's claim is the store's dedup count: the served
// `metrics` reply reads it from stats_json and the published gauges.
TEST(ArtifactTierClaim, StoreExportsInflightWaits) {
  core::ArtifactStore store;
  std::thread claimant([&] {
    (void)store.lints.get_or_compute("k", [&] {
      await_waiters(store.lints, 1);
      return core::LintArtifact{};
    });
  });
  await_claim(store.lints);
  (void)store.lints.get_or_compute("k", [] { return core::LintArtifact{}; });
  claimant.join();

  EXPECT_NE(store.stats_json().find(
                "{\"name\": \"lints\", \"hits\": 1, \"misses\": 1, "
                "\"entries\": 1, \"evicted\": 0, \"inflight_waits\": 1,"),
            std::string::npos)
      << store.stats_json();
  EXPECT_NE(store.stats_json().find(
                "{\"name\": \"slices\", \"hits\": 0, \"misses\": 0, "
                "\"entries\": 0, \"evicted\": 0, \"inflight_waits\": 0,"),
            std::string::npos)
      << store.stats_json();

  obs::metrics().clear();
  obs::set_enabled(true);
  store.publish_metrics("test_store");
  obs::set_enabled(false);
  EXPECT_EQ(obs::metrics().gauge("test_store.lints.inflight_waits").value(),
            1.0);
  EXPECT_EQ(obs::metrics().gauge("test_store.slices.inflight_waits").value(),
            0.0);
  obs::metrics().clear();
}

TEST(ArtifactTierClaim, GenMacroWaitsForAClaimedModule) {
  const rtlgen::MacroConfig cfg = small_spec().base_config();
  const rtlgen::MacroDesign want = rtlgen::gen_macro(cfg);
  rtlgen::ModuleCache modules("modules");
  std::atomic<int> computes{0};
  std::thread claimant([&] {
    // The top module's key, as gen_macro looks it up.
    const std::string key =
        "top1-" + rtlgen::config_content_key(cfg) + "|" + want.top;
    (void)modules.get_or_compute(key, [&] {
      computes.fetch_add(1);
      await_waiters(modules, 1);
      return netlist::Module(want.design.module(want.top));
    });
  });
  await_claim(modules);
  const rtlgen::MacroDesign got = rtlgen::gen_macro(cfg, &modules);
  claimant.join();

  EXPECT_EQ(computes.load(), 1);
  const core::ArtifactTierStats st = modules.stats();
  EXPECT_EQ(st.inflight_waits, 1u);
  EXPECT_EQ(st.hits, 1u) << "only the top, taken from the claimant";
  EXPECT_EQ(st.misses, st.entries);
  std::ostringstream a, b;
  netlist::write_verilog(want.design, want.top, a);
  netlist::write_verilog(got.design, got.top, b);
  EXPECT_EQ(b.str(), a.str());
}

TEST(SubcircuitLibraryConcurrency, FourThreadsMatchSequentialBitForBit) {
  const core::PerfSpec spec = small_spec();
  std::vector<rtlgen::MacroConfig> cfgs;
  const rtlgen::MacroConfig base = spec.base_config();
  cfgs.push_back(base);
  for (const double fa : {0.5, 1.0}) {
    rtlgen::MacroConfig c = base;
    c.tree.fa_fraction = fa;
    cfgs.push_back(c);
  }
  {
    rtlgen::MacroConfig c = base;
    c.cols *= 2;  // same slice as `base`
    cfgs.push_back(c);
  }
  {
    rtlgen::MacroConfig c = base;
    c.ofu.pipeline_regs = 1;
    cfgs.push_back(c);
  }
  std::set<std::string> slice_keys;
  for (const rtlgen::MacroConfig& c : cfgs) {
    slice_keys.insert(rtlgen::slice_content_key(c));
  }
  ASSERT_LT(slice_keys.size(), cfgs.size());

  core::SubcircuitLibrary seq(test_library());
  std::vector<core::EvalOutcome> want;
  for (const rtlgen::MacroConfig& c : cfgs) {
    want.push_back(seq.evaluate(c, spec));
  }

  // Four workers over one library (one store), each starting at a
  // different config so they collide on the same slice keys.
  constexpr int kThreads = 4;
  core::SubcircuitLibrary par(test_library());
  std::vector<std::vector<core::EvalOutcome>> got(
      kThreads, std::vector<core::EvalOutcome>(cfgs.size()));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t j = 0; j < cfgs.size(); ++j) {
        const std::size_t i = (j + static_cast<std::size_t>(t)) % cfgs.size();
        got[t][i] = par.evaluate(cfgs[i], spec);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      SCOPED_TRACE("thread " + std::to_string(t) + " config " +
                   std::to_string(i));
      expect_same_outcome(got[t][i], want[i]);
    }
  }
  // Each slice was characterized exactly once.
  core::ArtifactStore& as = par.artifacts();
  EXPECT_EQ(as.slices.stats().misses, slice_keys.size());
  EXPECT_EQ(as.slices.stats().entries, slice_keys.size());
  EXPECT_EQ(as.slices.stats().lookups(), kThreads * cfgs.size());
}

TEST(WorkStealingPool, ExecutesEverySubmittedTask) {
  dse::WorkStealingPool pool(4);
  std::atomic<int> sum{0};
  for (int i = 1; i <= 100; ++i) {
    pool.submit([&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(sum.load(), 5050);
  EXPECT_EQ(pool.stats().executed, 100u);
  EXPECT_EQ(pool.stats().threads, 4);
}

TEST(WorkStealingPool, TasksMaySpawnTasks) {
  dse::WorkStealingPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    pool.submit([&pool, &count] {
      count.fetch_add(1, std::memory_order_relaxed);
      pool.submit(
          [&count] { count.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 20);
}

TEST(WorkStealingPool, ParallelForCoversRange) {
  dse::WorkStealingPool pool(2);
  std::vector<int> hit(57, 0);
  dse::parallel_for(pool, hit.size(), [&hit](std::size_t i) { hit[i] = 1; });
  for (std::size_t i = 0; i < hit.size(); ++i) {
    EXPECT_EQ(hit[i], 1) << "index " << i;
  }
}

TEST(SearchDeterminism, RepeatedSearchesAreIdentical) {
  core::SubcircuitLibrary scl(test_library());
  core::MsoSearcher searcher(scl);
  const core::PerfSpec spec = small_spec();
  const core::SearchResult a = searcher.search(spec);
  const core::SearchResult b = searcher.search(spec);
  EXPECT_FALSE(a.explored.empty());
  expect_same_points(a.explored, b.explored);
  expect_same_points(a.pareto, b.pareto);
  EXPECT_EQ(a.log, b.log);
}

TEST(SearchDeterminism, TrajectoryFragmentsReproduceSearch) {
  core::SubcircuitLibrary scl(test_library());
  core::MsoSearcher searcher(scl);
  const core::PerfSpec spec = small_spec();
  const core::SearchResult whole = searcher.search(spec);

  core::SearchResult stitched;
  for (const core::TrajectorySeed& seed :
       core::MsoSearcher::trajectory_seeds(spec)) {
    stitched.append(searcher.run_trajectory(seed, spec));
  }
  stitched.pareto = core::pareto_front(stitched.explored);
  expect_same_points(whole.explored, stitched.explored);
  expect_same_points(whole.pareto, stitched.pareto);
}

// The sweep lists go through the spec vocabulary's number parser: the
// reference grid parses to the specs a hand-built grid expands to, and an
// item that is not wholly a number is a std::invalid_argument.
TEST(SweepGrid, FromKvParsesListsWhole) {
  const dse::SweepGrid parsed = dse::grid_from_kv(
      {{"rows", "64"},
       {"cols", "64"},
       {"input_bits", "4,8"},
       {"weight_bits", "4,8"},
       {"sweep_mac_mhz", "250,350,450"},
       {"sweep_mcr", "1,2"},
       {"sweep_bits", "4;8"},
       {"sweep_pref", "balanced,power"}});
  dse::SweepGrid want;
  want.base.rows = 64;
  want.base.cols = 64;
  want.base.input_bits = {4, 8};
  want.base.weight_bits = {4, 8};
  want.mac_freqs_mhz = {250.0, 350.0, 450.0};
  want.mcrs = {1, 2};
  want.precisions = {{4}, {8}};
  want.prefs = {core::named_pref("balanced"), core::named_pref("power")};
  const std::vector<core::PerfSpec> got_specs = parsed.expand();
  const std::vector<core::PerfSpec> want_specs = want.expand();
  ASSERT_EQ(got_specs.size(), 24u);
  ASSERT_EQ(got_specs.size(), want_specs.size());
  for (std::size_t i = 0; i < got_specs.size(); ++i) {
    EXPECT_EQ(core::spec_full_key(got_specs[i]),
              core::spec_full_key(want_specs[i]))
        << "spec " << i;
  }

  const std::vector<std::pair<std::string, std::string>> bad = {
      {"sweep_mac_mhz", "250,1e999"}, {"sweep_mac_mhz", "250,0"},
      {"sweep_mac_mhz", "250MHz"},    {"sweep_mcr", "1x"},
      {"sweep_mcr", "1,,2"},          {"sweep_bits", "4;8x"},
      {"mac_mhz", "-350"},
  };
  for (const auto& [key, value] : bad) {
    EXPECT_THROW((void)dse::grid_from_kv({{key, value}}),
                 std::invalid_argument)
        << key << "=" << value;
  }
}

TEST(SweepDeterminism, ThreadCountDoesNotChangeTheFrontier) {
  dse::SweepGrid grid;
  grid.base = small_spec();
  grid.mac_freqs_mhz = {250.0, 400.0};
  grid.prefs = {{1.0, 1.0, 0.0}, {2.0, 0.5, 0.0}};
  const std::vector<core::PerfSpec> specs = grid.expand();
  ASSERT_EQ(specs.size(), 4u);

  dse::SweepOptions seq;
  seq.threads = 1;
  dse::SweepOptions par;
  par.threads = 4;
  const dse::SweepReport a = dse::run_sweep(test_library(), specs, seq);
  const dse::SweepReport b = dse::run_sweep(test_library(), specs, par);

  EXPECT_FALSE(a.frontier.empty());
  EXPECT_EQ(dse::sweep_frontier_json(a), dse::sweep_frontier_json(b));
  ASSERT_EQ(a.per_spec.size(), b.per_spec.size());
  for (std::size_t i = 0; i < a.per_spec.size(); ++i) {
    expect_same_points(a.per_spec[i].result.explored,
                       b.per_spec[i].result.explored);
    expect_same_points(a.per_spec[i].result.pareto,
                       b.per_spec[i].result.pareto);
  }
}

TEST(SweepDeterminism, TierTrafficDoesNotDependOnThreadCount) {
  dse::SweepGrid grid;
  grid.base = small_spec();
  grid.mac_freqs_mhz = {250.0, 400.0};
  grid.prefs = {{1.0, 1.0, 0.0}, {2.0, 0.5, 0.0}};
  const std::vector<core::PerfSpec> specs = grid.expand();

  dse::SweepOptions seq;
  seq.threads = 1;
  dse::SweepOptions par;
  par.threads = 4;
  const dse::SweepReport a = dse::run_sweep(test_library(), specs, seq);
  const dse::SweepReport b = dse::run_sweep(test_library(), specs, par);

  // Every tier computes a missing key once, whichever thread gets there
  // first, so hits, misses and entries are the same at any thread count.
  ASSERT_EQ(a.artifacts.size(), b.artifacts.size());
  for (std::size_t i = 0; i < a.artifacts.size(); ++i) {
    const core::ArtifactTierStats& x = a.artifacts[i];
    const core::ArtifactTierStats& y = b.artifacts[i];
    EXPECT_EQ(y.name, x.name);
    EXPECT_EQ(y.hits, x.hits) << x.name;
    EXPECT_EQ(y.misses, x.misses) << x.name;
    EXPECT_EQ(y.entries, x.entries) << x.name;
    EXPECT_EQ(x.misses, x.entries) << x.name;
  }
}

TEST(SweepDeterminism, CacheDoesNotChangeResultsAndGetsHits) {
  dse::SweepGrid grid;
  grid.base = small_spec();
  grid.prefs = {{1.0, 1.0, 0.0}, {2.0, 0.5, 0.0}};  // knob-identical pair
  const std::vector<core::PerfSpec> specs = grid.expand();
  ASSERT_EQ(specs.size(), 2u);

  dse::SweepOptions uncached;
  uncached.threads = 2;
  uncached.use_artifact_cache = false;
  dse::SweepOptions cached;
  cached.threads = 2;
  const dse::SweepReport a = dse::run_sweep(test_library(), specs, uncached);
  const dse::SweepReport b = dse::run_sweep(test_library(), specs, cached);

  EXPECT_EQ(dse::sweep_frontier_json(a), dse::sweep_frontier_json(b));
  EXPECT_EQ(a.cache.lookups(), 0u) << "a bypassed tier must not count";
  EXPECT_EQ(a.artifact_hits() + a.artifact_misses(), 0u);
  // The report's cache block is the slices tier's per-run delta: one
  // lookup per evaluation, a miss per distinct slice.
  core::ArtifactTierStats slices;
  for (const core::ArtifactTierStats& t : b.artifacts) {
    if (t.name == "slices") slices = t;
  }
  EXPECT_EQ(b.cache.hits, slices.hits);
  EXPECT_EQ(b.cache.misses, slices.misses);
  EXPECT_EQ(b.cache.misses, slices.entries);
  EXPECT_GT(b.cache.hits, b.cache.misses)
      << "the preference-duplicated spec must hit the shared slices";
  std::size_t explored = 0;
  for (const dse::SpecResult& sr : b.per_spec) {
    explored += sr.result.explored.size();
  }
  EXPECT_GE(b.cache.lookups(), explored);
}

TEST(SweepDeterminism, MatchesSequentialSearcher) {
  const core::PerfSpec spec = small_spec();
  core::SubcircuitLibrary scl(test_library());
  core::MsoSearcher searcher(scl);
  const core::SearchResult direct = searcher.search(spec);

  dse::SweepOptions opt;
  opt.threads = 3;
  const dse::SweepReport rep = dse::run_sweep(test_library(), {spec}, opt);
  ASSERT_EQ(rep.per_spec.size(), 1u);
  expect_same_points(direct.explored, rep.per_spec[0].result.explored);
  expect_same_points(direct.pareto, rep.per_spec[0].result.pareto);
}

TEST(SweepFrontierLint, RepeatSweepAndCompileReuseTheLintStage) {
  // The daemon's case: consecutive sweeps over one process-wide store.
  const auto store = std::make_shared<core::ArtifactStore>();
  dse::SweepGrid grid;
  grid.base = small_spec();
  grid.mac_freqs_mhz = {250.0, 400.0};
  const std::vector<core::PerfSpec> specs = grid.expand();
  dse::SweepOptions opt;
  opt.threads = 4;
  opt.shared_store = store.get();
  const dse::SweepReport first = dse::run_sweep(test_library(), specs, opt);
  // The repeat is traced, to see which thread lints its frontier.
  obs::tracer().clear();
  obs::set_enabled(true);
  const dse::SweepReport second = dse::run_sweep(test_library(), specs, opt);
  obs::set_enabled(false);
  const std::vector<obs::RecordedSpan> spans = obs::tracer().snapshot();
  obs::tracer().clear();

  ASSERT_FALSE(first.frontier.empty());
  EXPECT_EQ(dse::sweep_frontier_json(second), dse::sweep_frontier_json(first));
  auto tier = [&](const std::string& name) {
    for (const core::ArtifactTierStats& t : second.artifacts) {
      if (t.name == name) return t;
    }
    ADD_FAILURE() << "no tier " << name;
    return core::ArtifactTierStats{};
  };
  // Every point of the repeat is one lints hit: no macro, no netlist.
  EXPECT_EQ(tier("lints").hits, second.frontier.size());
  EXPECT_EQ(tier("lints").misses, 0u);
  EXPECT_EQ(tier("flats").lookups(), 0u);
  for (const dse::FrontierPoint& fp : second.frontier) {
    std::vector<std::string> phases;
    for (const obs::Phase& p : fp.timeline.phases) phases.push_back(p.name);
    EXPECT_EQ(phases, std::vector<std::string>{"lint"}) << fp.point.label;
  }
  // Those lookups run where run_sweep runs: no worker thread starts for
  // them.
  int sweep_tid = -1;
  std::vector<int> lint_tids;
  for (const obs::RecordedSpan& s : spans) {
    if (s.ev.name == "dse.sweep") sweep_tid = s.tid;
    if (s.ev.name == "dse.frontier.lint") lint_tids.push_back(s.tid);
  }
  EXPECT_EQ(lint_tids, std::vector<int>(second.frontier.size(), sweep_tid));

  // Frontier lint ran implement()'s own map and lint stages, so a compile
  // of a frontier point over the same store skips both.
  const dse::FrontierPoint& pick = first.frontier.front();
  core::SynDcimCompiler compiler(test_library(), store);
  const core::Implementation impl =
      compiler.implement(pick.point.cfg, specs[pick.spec_index]);
  std::set<std::string> skipped;
  for (const core::StageRecord& r : impl.stages) {
    if (r.skipped) skipped.insert(r.stage);
  }
  EXPECT_TRUE(skipped.contains("map"));
  EXPECT_TRUE(skipped.contains("lint"));
  EXPECT_EQ(impl.lint.errors, static_cast<std::size_t>(pick.lint_errors));
}
