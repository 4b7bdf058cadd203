// Cold-vs-incremental equivalence tests of the content-addressed
// subcircuit-artifact pipeline: stitch_flatten vs flatten byte-identity,
// grouped activity propagation, stage skipping inside implement() and the
// subcircuit library, NET-* diagnostic routing, and the one-knob-delta
// sweep whose frontier JSON must be byte-identical with the artifact
// tiers on or off.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cell/characterize.hpp"
#include "core/artifact_codec.hpp"
#include "core/compiler.hpp"
#include "core/scl.hpp"
#include "core/spec.hpp"
#include "core/stage.hpp"
#include "dse/eval_cache.hpp"
#include "dse/sweep.hpp"
#include "netlist/flatten.hpp"
#include "netlist/stitch.hpp"
#include "power/activity.hpp"
#include "rtlgen/content_key.hpp"
#include "rtlgen/macro.hpp"
#include "tech/tech_node.hpp"

using namespace syndcim;

namespace {

const cell::Library& lib() {
  static const cell::Library l =
      cell::characterize_default_library(tech::make_default_40nm());
  return l;
}

rtlgen::MacroConfig small_cfg() {
  rtlgen::MacroConfig cfg;
  cfg.rows = 16;
  cfg.cols = 8;
  cfg.mcr = 1;
  cfg.input_bits = {4};
  cfg.weight_bits = {4};
  return cfg;
}

std::vector<rtlgen::MacroConfig> config_variants() {
  std::vector<rtlgen::MacroConfig> out;
  out.push_back(small_cfg());
  {
    rtlgen::MacroConfig c = small_cfg();
    c.cols = 16;
    c.mcr = 2;
    out.push_back(c);
  }
  {
    rtlgen::MacroConfig c = small_cfg();
    c.rows = 32;
    c.input_bits = {4, 8};
    c.weight_bits = {4, 8};
    c.cols = 16;
    out.push_back(c);
  }
  {
    rtlgen::MacroConfig c = small_cfg();
    c.bitcell = rtlgen::BitcellKind::k8T;
    c.tree.style = rtlgen::AdderTreeStyle::kMixed;
    c.tree.fa_fraction = 0.5;
    out.push_back(c);
  }
  return out;
}

void expect_activity_equal(const power::ActivityModel& a,
                           const power::ActivityModel& b) {
  ASSERT_EQ(a.toggle_rate.size(), b.toggle_rate.size());
  ASSERT_EQ(a.p_one.size(), b.p_one.size());
  for (std::size_t i = 0; i < a.toggle_rate.size(); ++i) {
    EXPECT_EQ(a.toggle_rate[i], b.toggle_rate[i]) << "net " << i;
    EXPECT_EQ(a.p_one[i], b.p_one[i]) << "net " << i;
  }
}

/// Byte-exact comparison of the fields downstream consumers read.
void expect_impl_equal(const core::Implementation& a,
                       const core::Implementation& b) {
  EXPECT_EQ(a.fmax_mhz, b.fmax_mhz);
  EXPECT_EQ(a.macro_area_mm2, b.macro_area_mm2);
  EXPECT_EQ(a.total_power_uw, b.total_power_uw);
  EXPECT_EQ(a.tops_1b, b.tops_1b);
  EXPECT_EQ(a.timing.wns_ps, b.timing.wns_ps);
  EXPECT_EQ(a.timing.min_period_ps, b.timing.min_period_ps);
  EXPECT_EQ(a.timing.min_write_period_ps, b.timing.min_write_period_ps);
  EXPECT_EQ(a.power.total_uw(), b.power.total_uw());
  EXPECT_EQ(a.cell_area.total_um2, b.cell_area.total_um2);
  // Diagnostics replay must reproduce the cold findings exactly.
  ASSERT_EQ(a.diagnostics.diags().size(), b.diagnostics.diags().size());
  for (std::size_t i = 0; i < a.diagnostics.diags().size(); ++i) {
    EXPECT_EQ(a.diagnostics.diags()[i].rule, b.diagnostics.diags()[i].rule);
    EXPECT_EQ(a.diagnostics.diags()[i].object,
              b.diagnostics.diags()[i].object);
  }
  // Per-group interface arcs (arrival/slew summaries).
  ASSERT_EQ(a.timing.interfaces.size(), b.timing.interfaces.size());
  for (std::size_t g = 0; g < a.timing.interfaces.size(); ++g) {
    const sta::GroupInterface& ga = a.timing.interfaces[g];
    const sta::GroupInterface& gb = b.timing.interfaces[g];
    EXPECT_EQ(ga.group, gb.group);
    ASSERT_EQ(ga.inputs.size(), gb.inputs.size());
    ASSERT_EQ(ga.outputs.size(), gb.outputs.size());
    for (std::size_t i = 0; i < ga.outputs.size(); ++i) {
      EXPECT_EQ(ga.outputs[i].net, gb.outputs[i].net);
      EXPECT_EQ(ga.outputs[i].arrival_ps, gb.outputs[i].arrival_ps);
      EXPECT_EQ(ga.outputs[i].slew_ps, gb.outputs[i].slew_ps);
    }
  }
}

TEST(Stitch, MatchesFlattenAcrossConfigs) {
  for (const rtlgen::MacroConfig& cfg : config_variants()) {
    const rtlgen::MacroDesign md = rtlgen::gen_macro(cfg);
    const netlist::FlatNetlist ref = netlist::flatten(md.design, md.top);
    const netlist::StitchResult sr =
        netlist::stitch_flatten(md.design, md.top);
    EXPECT_TRUE(netlist::flat_netlist_equal(ref, sr.nl))
        << rtlgen::config_content_key(cfg);
    // Repeated subcircuits (columns, OFU groups) splice one build.
    EXPECT_GT(sr.stats.blocks_reused, 0u);
  }
}

TEST(Stitch, SharedCacheReusesBlocksAcrossConfigs) {
  netlist::FlatBlockCache cache("blocks");
  const rtlgen::MacroConfig a = small_cfg();
  rtlgen::MacroConfig b = small_cfg();
  b.cols = 16;  // one-knob delta: same column subcircuit, more instances

  const rtlgen::MacroDesign mda = rtlgen::gen_macro(a);
  const netlist::StitchResult ra =
      netlist::stitch_flatten(mda.design, mda.top, &cache);
  const rtlgen::MacroDesign mdb = rtlgen::gen_macro(b);
  const netlist::StitchResult rb =
      netlist::stitch_flatten(mdb.design, mdb.top, &cache);

  // The second design builds almost nothing: its column block is already
  // in the shared tier.
  EXPECT_LT(rb.stats.blocks_built, ra.stats.blocks_built);
  EXPECT_TRUE(netlist::flat_netlist_equal(
      rb.nl, netlist::flatten(mdb.design, mdb.top)));
}

TEST(GroupedActivity, ColdAndWarmAreByteIdentical) {
  const rtlgen::MacroDesign md = rtlgen::gen_macro(small_cfg());
  const netlist::FlatNetlist nl = netlist::flatten(md.design, md.top);
  const power::ActivitySpec spec;

  const power::ActivityModel flat_ref =
      power::propagate_activity(nl, lib(), spec);
  const power::ActivityModel cold =
      power::propagate_activity_grouped(nl, lib(), spec, nullptr);
  ASSERT_EQ(cold.toggle_rate.size(), flat_ref.toggle_rate.size());

  power::ActivityCache cache("activity");
  power::GroupedActivityStats s1, s2;
  const power::ActivityModel warm1 =
      power::propagate_activity_grouped(nl, lib(), spec, &cache, &s1);
  const power::ActivityModel warm2 =
      power::propagate_activity_grouped(nl, lib(), spec, &cache, &s2);

  expect_activity_equal(cold, warm1);
  expect_activity_equal(cold, warm2);
  EXPECT_GT(s2.groups, 0u);
  EXPECT_EQ(s2.group_hits, s2.groups);  // second pass splices every cone
}

TEST(GroupedActivity, CacheKeysStableAcrossEngines) {
  // Per-cone cache entries are engine-independent: a cache warmed by the
  // SoA kernel must fully satisfy a scalar-engine replay (and vice versa),
  // with byte-identical spliced models. A key that embedded the engine —
  // or an engine that produced different bits — would fail this.
  const rtlgen::MacroDesign md = rtlgen::gen_macro(small_cfg());
  const netlist::FlatNetlist nl = netlist::flatten(md.design, md.top);
  const power::ActivitySpec spec;

  power::ActivityCache cache("activity");
  power::GroupedActivityStats s1, s2;
  const power::ActivityModel warm = power::propagate_activity_grouped(
      nl, lib(), spec, &cache, &s1, power::ActivityEngine::kSoa);
  const power::ActivityModel replay = power::propagate_activity_grouped(
      nl, lib(), spec, &cache, &s2, power::ActivityEngine::kScalar);

  expect_activity_equal(warm, replay);
  EXPECT_GT(s2.groups, 0u);
  EXPECT_EQ(s2.group_hits, s2.groups);  // scalar replay splices every cone
  // The warming pass did compute at least the distinct cones itself
  // (repeated identical columns legitimately hit within the pass).
  EXPECT_LT(s1.group_hits, s1.groups);
}

TEST(ContentKeys, StableAndDiscriminating) {
  const rtlgen::MacroConfig cfg = small_cfg();
  const std::string k = rtlgen::config_content_key(cfg);
  EXPECT_EQ(k.size(), 32u);
  EXPECT_EQ(k, rtlgen::config_content_key(cfg));

  rtlgen::MacroConfig rows = cfg;
  rows.rows = 32;
  EXPECT_NE(rtlgen::config_content_key(rows), k);

  // cols-only deltas share the characterization slice but not the config.
  rtlgen::MacroConfig cols = cfg;
  cols.cols = 32;
  EXPECT_NE(rtlgen::config_content_key(cols), k);
  EXPECT_EQ(rtlgen::slice_content_key(cols), rtlgen::slice_content_key(cfg));

  cell::Library l =
      cell::characterize_default_library(tech::make_default_40nm());
  const std::string fp = l.fingerprint();
  EXPECT_EQ(fp.size(), 32u);
  EXPECT_EQ(fp, l.fingerprint());
  EXPECT_EQ(fp, lib().fingerprint());  // same characterization, same key
}

TEST(SpecKnobsKey, CoversExactlyTheImplementKnobs) {
  core::PerfSpec spec;
  const std::string k = core::spec_knobs_key(spec);
  core::PerfSpec f = spec;
  f.mac_freq_mhz += 1.0;
  EXPECT_NE(core::spec_knobs_key(f), k);
  core::PerfSpec v = spec;
  v.vdd += 0.05;
  EXPECT_NE(core::spec_knobs_key(v), k);
  // Preference weights steer selection, not implementation: same key.
  core::PerfSpec p = spec;
  p.pref.power += 1.0;
  EXPECT_EQ(core::spec_knobs_key(p), k);
  EXPECT_EQ(dse::canonical_spec_knobs_key(spec), k);
}

TEST(Implement, WarmRunIsByteIdenticalAndSkipsStages) {
  const rtlgen::MacroConfig cfg = small_cfg();
  core::PerfSpec spec;
  spec.mac_freq_mhz = 300.0;
  const core::Workload wl;

  // Cold reference: the identical code path with every tier bypassed.
  core::SynDcimCompiler cold(lib());
  cold.scl().artifacts().set_enabled(false);
  const core::Implementation ref = cold.implement(cfg, spec, wl);
  for (const core::StageRecord& r : ref.stages) EXPECT_FALSE(r.skipped);

  core::SynDcimCompiler warm(lib());
  const core::Implementation first = warm.implement(cfg, spec, wl);
  const core::Implementation second = warm.implement(cfg, spec, wl);

  expect_impl_equal(ref, first);
  expect_impl_equal(ref, second);

  // Second run: everything after elaboration splices cached artifacts.
  ASSERT_EQ(second.stages.size(), 7u);
  std::size_t skipped = 0;
  for (const core::StageRecord& r : second.stages) {
    skipped += r.skipped ? 1 : 0;
  }
  EXPECT_GE(skipped, 6u);  // all but the always-run rtlgen stage
  // Both runs walked the same phases in the same order.
  ASSERT_EQ(first.timeline.phases.size(), second.timeline.phases.size());
  for (std::size_t i = 0; i < first.stages.size(); ++i) {
    EXPECT_EQ(first.stages[i].stage, second.stages[i].stage);
    EXPECT_EQ(first.stages[i].key, second.stages[i].key);
  }
}

TEST(Implement, SpecRespinSkipsSimulationButReprices) {
  core::SynDcimCompiler c(lib());
  const rtlgen::MacroConfig cfg = small_cfg();
  core::PerfSpec a;
  a.mac_freq_mhz = 300.0;
  core::PerfSpec b = a;
  b.vdd = a.vdd * 0.9;  // voltage re-spin: same netlist, same workload

  (void)c.implement(cfg, a);
  const auto sim_before = c.scl().artifacts().act_models.stats();
  const core::Implementation rb = c.implement(cfg, b);
  const auto sim_after = c.scl().artifacts().act_models.stats();

  // The gate-level activity simulation is spec-independent: the re-spin
  // hits the act_models tier instead of re-simulating...
  EXPECT_EQ(sim_after.entries, sim_before.entries);
  EXPECT_GT(sim_after.hits, sim_before.hits);
  // ...but power is re-priced under the new knobs (its stage ran).
  EXPECT_FALSE(rb.stages.back().skipped);
  EXPECT_EQ(rb.stages.back().stage, "power");
}

TEST(Implement, SimActivityTierKeysOnLanesAndStillHitsWarm) {
  core::SynDcimCompiler c(lib());
  const rtlgen::MacroConfig cfg = small_cfg();
  core::PerfSpec spec;
  spec.mac_freq_mhz = 300.0;
  core::Workload wl;  // lanes = 1, the scalar-identical schedule
  core::Workload wl64 = wl;
  wl64.lanes = 64;

  const core::Implementation s1 = c.implement(cfg, spec, wl);
  const auto st1 = c.scl().artifacts().act_models.stats();
  // A different lane count is a different stimulus schedule: the "wl2"
  // workload key must miss and add a new tier entry, not alias the
  // scalar artifact.
  const core::Implementation p1 = c.implement(cfg, spec, wl64);
  const auto st2 = c.scl().artifacts().act_models.stats();
  EXPECT_EQ(st2.entries, st1.entries + 1);

  // A voltage re-spin at lanes=64 re-prices power but must hit the
  // 64-lane activity artifact warm — the key change kept the tier
  // incremental, it did not just invalidate everything.
  core::PerfSpec respin = spec;
  respin.vdd = spec.vdd * 0.9;
  (void)c.implement(cfg, respin, wl64);
  const auto st3 = c.scl().artifacts().act_models.stats();
  EXPECT_EQ(st3.entries, st2.entries);
  EXPECT_GT(st3.hits, st2.hits);

  // Replaying the original lanes=64 implement is byte-identical, and the
  // scalar schedule's artifact survived untouched alongside it.
  const core::Implementation p2 = c.implement(cfg, spec, wl64);
  expect_impl_equal(p1, p2);
  const core::Implementation s2 = c.implement(cfg, spec, wl);
  expect_impl_equal(s1, s2);
  EXPECT_EQ(c.scl().artifacts().act_models.stats().entries, st3.entries);
}

TEST(SubcircuitLibrary, SlicesTierIsTheOnlyMemoOfTheSliceStages) {
  auto store = std::make_shared<core::ArtifactStore>();
  core::SubcircuitLibrary scl1(lib(), store);
  core::SubcircuitLibrary scl2(lib(), store);
  const rtlgen::MacroConfig cfg = small_cfg();
  // The tiers of implement()'s stages, which the slice stages leave alone.
  auto expect_stage_tiers_untouched = [&] {
    for (const core::ArtifactTierStats& t :
         {store->flats.stats(), store->placed.stats(), store->routes.stats(),
          store->timings.stats(), store->act_models.stats(),
          store->powers.stats()}) {
      EXPECT_EQ(t.lookups(), 0u) << t.name;
      EXPECT_EQ(t.entries, 0u) << t.name;
    }
  };

  (void)scl1.evaluate(cfg, core::PerfSpec{});
  expect_stage_tiers_untouched();
  EXPECT_EQ(store->slices.stats().misses, 1u);
  EXPECT_EQ(store->slices.stats().entries, 1u);

  // A second library over the same store (the sweep's worker situation)
  // answers from the slices tier.
  const std::string cold = core::encode_slice_eval(*scl2.slice(cfg));
  EXPECT_EQ(store->slices.stats().hits, 1u);
  EXPECT_EQ(store->slices.stats().misses, 1u);

  // With the slice itself gone, characterizing again gives the same bits.
  store->slices.clear();
  EXPECT_EQ(core::encode_slice_eval(*scl2.slice(cfg)), cold);
  EXPECT_EQ(store->slices.stats().misses, 1u);
  expect_stage_tiers_untouched();
}

TEST(NetValidate, RoutesProblemsThroughDiagEngine) {
  netlist::Design d;
  netlist::Module top("top");
  const netlist::NetId x = top.add_port("x", netlist::PortDir::kIn);
  top.add_submodule("u0", "missing", {{"A", x}});
  top.add_cell("u0", "INVX1", {{"A", x}});  // duplicate instance name
  d.add_module(std::move(top));

  core::DiagEngine diag;
  EXPECT_FALSE(netlist::validate(d, "top", diag));
  EXPECT_TRUE(diag.has_errors());
  EXPECT_EQ(diag.count_rule("NET-NOMODULE"), 1u);
  EXPECT_EQ(diag.count_rule("NET-DUPINST"), 1u);
  core::DiagEngine notop;
  EXPECT_FALSE(netlist::validate(d, "nosuch", notop));
  EXPECT_EQ(notop.count_rule("NET-NOTOP"), 1u);
}

TEST(Sweep, OneKnobDeltaFrontierIsByteIdenticalWithArtifactTierOnOrOff) {
  core::PerfSpec base;
  base.rows = 32;
  base.cols = 32;
  base.mcr = 1;
  base.input_bits = {4};
  base.weight_bits = {4};
  base.mac_freq_mhz = 300.0;
  base.wupdate_freq_mhz = 300.0;
  dse::SweepGrid grid;
  grid.base = base;
  grid.mac_freqs_mhz = {300.0, 340.0};  // the one knob that varies
  const std::vector<core::PerfSpec> specs = grid.expand();
  ASSERT_EQ(specs.size(), 2u);

  auto run = [&](bool artifacts, int threads) {
    dse::SweepOptions opt;
    opt.threads = threads;
    opt.use_artifact_cache = artifacts;
    return dse::run_sweep(lib(), specs, opt);
  };
  const dse::SweepReport on1 = run(true, 1);
  const dse::SweepReport off1 = run(false, 1);
  const dse::SweepReport on4 = run(true, 4);

  const std::string ref = dse::sweep_frontier_json(off1);
  EXPECT_EQ(dse::sweep_frontier_json(on1), ref);
  EXPECT_EQ(dse::sweep_frontier_json(on4), ref);

  // Per-point PPA across the whole explored set, not just the frontier.
  ASSERT_EQ(on1.per_spec.size(), off1.per_spec.size());
  for (std::size_t s = 0; s < on1.per_spec.size(); ++s) {
    const auto& pa = on1.per_spec[s].result.pareto;
    const auto& pb = off1.per_spec[s].result.pareto;
    ASSERT_EQ(pa.size(), pb.size()) << "spec " << s;
    for (std::size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].label, pb[i].label);
      EXPECT_EQ(pa[i].ppa.power_uw, pb[i].ppa.power_uw);
      EXPECT_EQ(pa[i].ppa.area_um2, pb[i].ppa.area_um2);
      EXPECT_EQ(pa[i].ppa.fmax_mhz, pb[i].ppa.fmax_mhz);
    }
  }

  // The enabled tier actually worked: the second spec shares every
  // subcircuit artifact with the first (only the spec knob moved).
  EXPECT_GT(on1.artifact_hits(), 0u);
  EXPECT_EQ(off1.artifact_hits(), 0u);
  bool saw_tier_stats = false;
  for (const core::ArtifactTierStats& t : on1.artifacts) {
    saw_tier_stats = saw_tier_stats || t.lookups() > 0;
  }
  EXPECT_TRUE(saw_tier_stats);
  // The report JSON carries the tier roll-up for the CLI summary.
  EXPECT_NE(dse::sweep_report_json(on1).find("\"artifacts\""),
            std::string::npos);
}

}  // namespace
