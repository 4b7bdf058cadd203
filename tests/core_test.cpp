#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cell/characterize.hpp"
#include "core/baselines.hpp"
#include "core/compiler.hpp"
#include "core/report.hpp"
#include "core/scl.hpp"
#include "core/searcher.hpp"
#include "core/spec.hpp"
#include "netlist/flatten.hpp"
#include "netlist/serialize.hpp"
#include "power/power.hpp"
#include "tech/tech_node.hpp"

namespace {
using namespace syndcim;
using core::DesignPoint;
using core::PerfSpec;

const cell::Library& lib() {
  static const cell::Library l =
      cell::characterize_default_library(tech::make_default_40nm());
  return l;
}

PerfSpec small_spec() {
  PerfSpec s;
  s.rows = 16;
  s.cols = 8;
  s.mcr = 2;
  s.input_bits = {4};
  s.weight_bits = {4};
  s.mac_freq_mhz = 300;
  s.wupdate_freq_mhz = 300;
  return s;
}

TEST(Pareto, FilterAndScore) {
  auto mk = [](double p, double a, bool feasible) {
    DesignPoint d;
    d.ppa.power_uw = p;
    d.ppa.area_um2 = a;
    d.feasible = feasible;
    return d;
  };
  const std::vector<DesignPoint> pts = {
      mk(10, 100, true), mk(20, 50, true),  mk(15, 120, true),
      mk(30, 30, true),  mk(5, 200, false), mk(12, 90, true)};
  const auto front = core::pareto_front(pts);
  ASSERT_EQ(front.size(), 4u);  // (10,100) (12,90) (20,50) (30,30)
  for (const auto& p : front) {
    EXPECT_TRUE(p.feasible);
    EXPECT_NE(p.ppa.power_uw, 15);  // dominated by (12,90)
  }
  // Power-preferring score selects the lowest-power point.
  const DesignPoint* best = nullptr;
  double bs = 1e30;
  for (const auto& p : front) {
    const double s = core::preference_score(p, front, 1.0, 0.0, 0.0);
    if (s < bs) {
      bs = s;
      best = &p;
    }
  }
  ASSERT_NE(best, nullptr);
  EXPECT_DOUBLE_EQ(best->ppa.power_uw, 10);
}

TEST(Scl, CachesSliceEvaluations) {
  core::SubcircuitLibrary scl(lib());
  const core::ArtifactCache<core::SliceEval>& slices =
      scl.artifacts().slices;
  const PerfSpec spec = small_spec();
  const auto cfg = spec.base_config();
  (void)scl.evaluate(cfg, spec);
  EXPECT_EQ(slices.stats().misses, 1u);
  EXPECT_EQ(slices.stats().entries, 1u);
  // A repeat — and a column-count variant, which shares the slice — are
  // one slices hit each, with no stage lookup behind them.
  const std::uint64_t flat_lookups = scl.artifacts().flats.stats().lookups();
  (void)scl.evaluate(cfg, spec);
  auto wide = cfg;
  wide.cols *= 2;
  (void)scl.evaluate(wide, spec);
  EXPECT_EQ(slices.stats().hits, 2u);
  EXPECT_EQ(slices.stats().entries, 1u);
  EXPECT_EQ(scl.artifacts().flats.stats().lookups(), flat_lookups);
  auto cfg2 = cfg;
  cfg2.tree.fa_fraction = 1.0;
  (void)scl.evaluate(cfg2, spec);
  EXPECT_EQ(slices.stats().misses, 2u);
  EXPECT_EQ(slices.stats().entries, 2u);
}

TEST(Scl, EvaluateIsConsistent) {
  core::SubcircuitLibrary scl(lib());
  const PerfSpec spec = small_spec();
  const auto cfg = spec.base_config();
  const auto ppa = scl.evaluate(cfg, spec).ppa;
  EXPECT_GT(ppa.fmax_mhz, 0);
  EXPECT_GT(ppa.write_fmax_mhz, ppa.fmax_mhz);  // write path is short
  EXPECT_GT(ppa.power_uw, 0);
  EXPECT_GT(ppa.area_um2, 0);
  EXPECT_GT(ppa.latency_cycles, spec.input_bits[0]);
  EXPECT_NEAR(ppa.tops_1b, 2.0 * 16 * 8 * 300e6 * 1e-12, 1e-9);
  // Lower voltage -> slower and more efficient.
  PerfSpec lv = spec;
  lv.vdd = 0.7;
  const auto ppa_lv = scl.evaluate(cfg, lv).ppa;
  EXPECT_LT(ppa_lv.fmax_mhz, ppa.fmax_mhz);
  EXPECT_LT(ppa_lv.power_uw, ppa.power_uw);
}

TEST(Scl, FasterTreeLadder) {
  rtlgen::AdderTreeConfig t;
  t.style = rtlgen::AdderTreeStyle::kRcaTree;
  t.carry_reorder = false;
  auto ladder = core::SubcircuitLibrary::faster_tree_ladder(t);
  ASSERT_FALSE(ladder.empty());
  EXPECT_EQ(ladder.front().style, rtlgen::AdderTreeStyle::kMixed);
  t.style = rtlgen::AdderTreeStyle::kMixed;
  t.fa_fraction = 1.0;
  t.carry_reorder = true;
  EXPECT_TRUE(core::SubcircuitLibrary::faster_tree_ladder(t).empty());
}

TEST(Searcher, LooseSpecIsFeasibleAndParetoValid) {
  core::SubcircuitLibrary scl(lib());
  core::MsoSearcher searcher(scl);
  const auto res = searcher.search(small_spec());
  ASSERT_TRUE(res.feasible());
  EXPECT_GE(res.explored.size(), res.pareto.size());
  // Pareto points are mutually non-dominated.
  for (const auto& a : res.pareto) {
    for (const auto& b : res.pareto) {
      if (&a == &b) continue;
      EXPECT_FALSE(b.ppa.power_uw <= a.ppa.power_uw &&
                   b.ppa.area_um2 <= a.ppa.area_um2 &&
                   (b.ppa.power_uw < a.ppa.power_uw ||
                    b.ppa.area_um2 < a.ppa.area_um2));
    }
  }
  // Every pareto point meets the spec frequency.
  for (const auto& p : res.pareto) {
    EXPECT_GE(p.ppa.fmax_mhz, small_spec().mac_freq_mhz * 0.999);
  }
}

TEST(Searcher, TightSpecTriggersTechniques) {
  core::SubcircuitLibrary scl(lib());
  core::MsoSearcher searcher(scl);
  PerfSpec spec = small_spec();
  spec.rows = 64;
  spec.cols = 8;
  spec.mac_freq_mhz = 950.0;  // forces tt techniques at 0.9 V
  const auto res = searcher.search(spec);
  bool used_technique = false;
  for (const auto& p : res.explored) {
    for (const auto& a : p.applied) {
      if (a.rfind("tt", 0) == 0) used_technique = true;
    }
  }
  EXPECT_TRUE(used_technique);
  if (res.feasible()) {
    for (const auto& p : res.pareto) {
      EXPECT_GE(p.ppa.fmax_mhz, spec.mac_freq_mhz * 0.999);
    }
  }
}

TEST(Searcher, InfeasibleSpecReportsEmptyPareto) {
  core::SubcircuitLibrary scl(lib());
  core::MsoSearcher searcher(scl);
  PerfSpec spec = small_spec();
  spec.rows = 256;
  spec.mac_freq_mhz = 20000.0;  // 20 GHz: impossible
  const auto res = searcher.search(spec);
  EXPECT_FALSE(res.feasible());
  EXPECT_FALSE(res.explored.empty());
  EXPECT_THROW((void)res.best(spec.pref), std::logic_error);
}

TEST(Searcher, PreferenceShiftsSelection) {
  core::SubcircuitLibrary scl(lib());
  core::MsoSearcher searcher(scl);
  const auto res = searcher.search(small_spec());
  ASSERT_TRUE(res.feasible());
  if (res.pareto.size() < 2) GTEST_SKIP() << "frontier collapsed to a point";
  core::PpaPreference power_pref{1.0, 0.0, 0.0};
  core::PpaPreference area_pref{0.0, 1.0, 0.0};
  const auto& p = res.best(power_pref);
  const auto& a = res.best(area_pref);
  EXPECT_LE(p.ppa.power_uw, a.ppa.power_uw);
  EXPECT_LE(a.ppa.area_um2, p.ppa.area_um2);
}

TEST(Compiler, EndToEndSignoffClean) {
  core::SynDcimCompiler compiler(lib());
  const auto res = compiler.compile(small_spec());
  EXPECT_TRUE(res.impl.drc.clean());
  EXPECT_TRUE(res.impl.lvs.clean());
  EXPECT_TRUE(res.impl.timing.met());
  EXPECT_TRUE(res.impl.signoff_clean());
  EXPECT_GT(res.impl.fmax_mhz, small_spec().mac_freq_mhz);
  EXPECT_GT(res.impl.macro_area_mm2, 0);
  EXPECT_GT(res.impl.total_power_uw, 0);
  EXPECT_GT(res.impl.tops_per_w(), 0);
  // Search-time estimate and post-layout measurement agree within 3x
  // (wire parasitics and measured vs. probabilistic activity shift them).
  EXPECT_GT(res.impl.total_power_uw, res.selected.ppa.power_uw / 3);
  EXPECT_LT(res.impl.total_power_uw, res.selected.ppa.power_uw * 3);
}

// implement() flattens the macro once, in its `map` stage, and keeps that
// netlist: it is the macro flattened, and the floorplan covers its gates.
TEST(Compiler, ImplementationKeepsTheMappedNetlist) {
  core::SynDcimCompiler compiler(lib());
  const auto res = compiler.compile(small_spec());
  ASSERT_NE(res.impl.flat, nullptr);
  EXPECT_EQ(netlist::encode_flat_netlist(*res.impl.flat),
            netlist::encode_flat_netlist(netlist::flatten(
                res.impl.macro.design, res.impl.macro.top)));
  EXPECT_EQ(res.impl.floorplan.gate_rects.size(),
            res.impl.flat->gates().size());
}

// No design point meeting the spec is the caller's error: the
// std::invalid_argument the daemon answers with 400, naming the spec.
TEST(Compiler, InfeasibleSpecThrowsInvalidArgumentNamingTheSpec) {
  core::SynDcimCompiler compiler(lib());
  PerfSpec spec = small_spec();
  spec.mac_freq_mhz = 20000.0;  // 20 GHz: impossible
  try {
    (void)compiler.compile(spec);
    FAIL() << "compile accepted an infeasible spec";
  } catch (const core::InfeasibleSpecError& e) {
    const std::invalid_argument& caller_error = e;
    const std::string msg = caller_error.what();
    EXPECT_NE(msg.find("spec infeasible"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rows=16 cols=8 mcr=2 mac_mhz=20000"),
              std::string::npos)
        << msg;
  }
}

TEST(Baselines, FeatureMatrixMatchesTable1) {
  const auto m = core::compiler_feature_matrix();
  ASSERT_EQ(m.size(), 5u);
  // Only SynDCIM has all four properties.
  int full = 0;
  for (const auto& c : m) {
    if (c.end_to_end && c.fp_and_int && c.ppa_selectable_subcircuits &&
        c.spec_oriented_synthesis) {
      ++full;
      EXPECT_NE(c.name.find("SynDCIM"), std::string::npos);
    }
  }
  EXPECT_EQ(full, 1);
  EXPECT_FALSE(m[0].fp_and_int);  // AutoDCIM is INT-only
  EXPECT_FALSE(m[1].digital_cim);  // EasyACIM is analog
  EXPECT_TRUE(m[3].fp_and_int);    // ARCTIC supports FP
}

TEST(Baselines, ConfigsMatchTheirTemplates) {
  const PerfSpec spec = small_spec();
  const auto a = core::autodcim_style_config(spec);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->mux, rtlgen::MuxStyle::kPassGate1T);
  EXPECT_EQ(a->tree.style, rtlgen::AdderTreeStyle::kRcaTree);
  EXPECT_TRUE(a->fp_formats.empty());
  const auto i = core::islped23_style_config(spec);
  ASSERT_TRUE(i.has_value());
  EXPECT_EQ(i->mux, rtlgen::MuxStyle::kTGateNor);
  const auto r = core::arctic_style_config(spec);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->tree.style, rtlgen::AdderTreeStyle::kCompressor);
}

TEST(Baselines, SynDcimDominatesOrMatchesTemplates) {
  core::SubcircuitLibrary scl(lib());
  core::MsoSearcher searcher(scl);
  const PerfSpec spec = small_spec();
  const auto res = searcher.search(spec);
  ASSERT_TRUE(res.feasible());
  const auto base = core::autodcim_style_config(spec);
  ASSERT_TRUE(base.has_value());
  const auto base_ppa = scl.evaluate(*base, spec).ppa;
  // At least one searched point is no worse in both power and area.
  bool dominates = false;
  for (const auto& p : res.pareto) {
    if (p.ppa.power_uw <= base_ppa.power_uw &&
        p.ppa.area_um2 <= base_ppa.area_um2) {
      dominates = true;
    }
  }
  EXPECT_TRUE(dominates);
}

TEST(Report, TextTableFormatting) {
  core::TextTable t({"name", "value"});
  t.add_row({"alpha", core::TextTable::num(1.2345, 2)});
  t.add_row({"b", core::TextTable::yesno(true)});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.23"), std::string::npos);
  EXPECT_NE(s.find("yes"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

}  // namespace

namespace {
using namespace syndcim;

TEST(Searcher, DeterministicAcrossRuns) {
  core::SubcircuitLibrary scl(lib());
  core::MsoSearcher s1(scl), s2(scl);
  const auto spec = small_spec();
  const auto a = s1.search(spec);
  const auto b = s2.search(spec);
  ASSERT_EQ(a.explored.size(), b.explored.size());
  for (std::size_t i = 0; i < a.explored.size(); ++i) {
    EXPECT_EQ(a.explored[i].label, b.explored[i].label);
    EXPECT_DOUBLE_EQ(a.explored[i].ppa.power_uw, b.explored[i].ppa.power_uw);
    EXPECT_DOUBLE_EQ(a.explored[i].ppa.area_um2, b.explored[i].ppa.area_um2);
  }
  EXPECT_EQ(a.pareto.size(), b.pareto.size());
}

TEST(Searcher, SpecPinnedSubcircuitsAreHonored) {
  core::SubcircuitLibrary scl(lib());
  core::MsoSearcher searcher(scl);
  PerfSpec spec = small_spec();
  spec.mux = rtlgen::MuxStyle::kPassGate1T;
  spec.bitcell = rtlgen::BitcellKind::k12T;
  const auto res = searcher.search(spec);
  for (const auto& p : res.explored) {
    EXPECT_EQ(p.cfg.mux, rtlgen::MuxStyle::kPassGate1T) << p.label;
    EXPECT_EQ(p.cfg.bitcell, rtlgen::BitcellKind::k12T) << p.label;
  }
}

TEST(Searcher, ExploresBitcellAlternative) {
  core::SubcircuitLibrary scl(lib());
  core::MsoSearcher searcher(scl);
  const auto res = searcher.search(small_spec());
  bool has_8t = false;
  for (const auto& p : res.explored) {
    has_8t |= p.cfg.bitcell == rtlgen::BitcellKind::k8T;
  }
  EXPECT_TRUE(has_8t);
}

TEST(Compiler, FpSpecEndToEnd) {
  core::SynDcimCompiler compiler(lib());
  PerfSpec spec = small_spec();
  spec.fp_formats = {num::kFp8};
  spec.mac_freq_mhz = 250;
  spec.wupdate_freq_mhz = 250;
  const auto res = compiler.compile(spec);
  EXPECT_TRUE(res.impl.signoff_clean());
  // The FP macro has an alignment unit contributing area and power.
  EXPECT_GT(res.impl.power.group_uw("align"), 0.0);
  EXPECT_GT(res.impl.cell_area.group_um2("align"), 0.0);
}

TEST(Power, HotCornerRaisesLeakageOnly) {
  core::SynDcimCompiler compiler(lib());
  const auto res = compiler.compile(small_spec());
  const auto flat = netlist::flatten(res.impl.macro.design,
                                     res.impl.macro.top);
  const auto act = power::propagate_activity(flat, lib(), {});
  power::PowerOptions cold, hot;
  cold.temp_c = 25;
  hot.temp_c = 125;
  const auto pc = power::analyze_power(flat, lib(), act, cold);
  const auto ph = power::analyze_power(flat, lib(), act, hot);
  EXPECT_NEAR(ph.leakage_uw / pc.leakage_uw, 16.0, 0.5);
  EXPECT_DOUBLE_EQ(ph.dynamic_uw(), pc.dynamic_uw());
}

// A key the compiler does not act on must throw like any unknown key:
// accepting temp_c=125 would compile at the nominal 25 C without a word.
// So must a value that is not wholly the number or name it claims to be.
TEST(Spec, FromKvRejectsTempCAndUnknownKeys) {
  const PerfSpec ok = core::spec_from_kv({{"rows", "32"}, {"mac_mhz", "300"}});
  EXPECT_EQ(ok.rows, 32);
  EXPECT_DOUBLE_EQ(ok.mac_freq_mhz, 300.0);
  EXPECT_THROW((void)core::spec_from_kv({{"temp_c", "125"}}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)core::spec_from_kv({{"rows", "32"}, {"no_such_key", "1"}}),
      std::invalid_argument);
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"rows", "99999999999"}, {"rows", "32x"},     {"rows", ""},
      {"mac_mhz", "1e999"},    {"mac_mhz", "0"},    {"mac_mhz", "nan"},
      {"wupdate_mhz", "-100"}, {"vdd", "0"},        {"pref_area", "inf"},
      {"input_bits", "4,x"},   {"bitcell", "7T"},   {"mux", "nand"},
  };
  for (const auto& [key, value] : bad) {
    EXPECT_THROW((void)core::spec_from_kv({{key, value}}),
                 std::invalid_argument)
        << key << "=" << value;
  }
}

// The number parsers take the whole string, and their error names the
// key and the value so a served 400 or a CLI `error:` says what was wrong.
TEST(Spec, NumberParsersTakeTheWholeStringAndNameTheKey) {
  EXPECT_EQ(core::parse_int("rows", "64"), 64);
  EXPECT_EQ(core::parse_int("rows", "-3"), -3);
  EXPECT_EQ(core::parse_int<std::size_t>("budget", "4096"), 4096u);
  EXPECT_EQ(core::parse_number("mac_mhz", "350"), 350.0);
  EXPECT_EQ(core::parse_number("pref_area", "0.25"), 0.25);
  EXPECT_EQ(core::parse_number("pref_area", "0"), 0.0);
  EXPECT_EQ(core::parse_number("pref_area", "-1.5"), -1.5);
  EXPECT_EQ(core::parse_int_list("input_bits", "4,8"),
            (std::vector<int>{4, 8}));
  EXPECT_EQ(core::parse_int_list("input_bits", "2"), (std::vector<int>{2}));

  EXPECT_THROW((void)core::parse_int("rows", " 32"), std::invalid_argument);
  EXPECT_THROW((void)core::parse_int("rows", "32.0"), std::invalid_argument);
  EXPECT_THROW((void)core::parse_int<std::size_t>("budget", "-1"),
               std::invalid_argument);
  EXPECT_THROW((void)core::parse_number("mac_mhz", "350MHz"),
               std::invalid_argument);
  EXPECT_THROW((void)core::parse_number("mac_mhz", "-inf"),
               std::invalid_argument);
  EXPECT_THROW((void)core::parse_number("vdd", "-0.9", /*positive=*/true),
               std::invalid_argument);
  EXPECT_THROW((void)core::parse_int_list("input_bits", "4,,8"),
               std::invalid_argument);

  try {
    (void)core::parse_int("rows", "99999999999");
    ADD_FAILURE() << "an int out of range parsed";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rows"), std::string::npos) << msg;
    EXPECT_NE(msg.find("99999999999"), std::string::npos) << msg;
  }
  try {
    (void)core::parse_number("mac_mhz", "0", /*positive=*/true);
    ADD_FAILURE() << "a zero clock parsed";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("mac_mhz"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'0'"), std::string::npos) << msg;
  }
}

}  // namespace
