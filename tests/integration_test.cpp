// Cross-module integration and property tests: pipelined alignment at the
// gate level, STA case analysis and slew clamping, SCL composition
// accuracy against full-macro analysis, bitcell variants, FP4 embedding.
#include <gtest/gtest.h>

#include <random>

#include "cell/characterize.hpp"
#include "core/compiler.hpp"
#include "netlist/flatten.hpp"
#include "num/alignment.hpp"
#include "layout/floorplan.hpp"
#include "power/power.hpp"
#include "rtlgen/alignment_unit.hpp"
#include "rtlgen/gates.hpp"
#include "rtlgen/macro.hpp"
#include "sim/gate_sim.hpp"
#include "sim/macro_tb.hpp"
#include "sta/sta.hpp"
#include "tech/tech_node.hpp"

namespace {
using namespace syndcim;

const cell::Library& lib() {
  static const cell::Library l =
      cell::characterize_default_library(tech::make_default_40nm());
  return l;
}

TEST(AlignmentPipelined, GateLevelMatchesReferenceAfterLatency) {
  rtlgen::AlignmentConfig cfg;
  cfg.format = num::kFp8;
  cfg.lanes = 16;
  cfg.guard_bits = 2;
  cfg.pipelined = true;
  netlist::Design d;
  d.add_module(rtlgen::gen_alignment_unit(cfg, "align"));
  const auto flat = netlist::flatten(d, "align");
  sim::GateSim gs(flat, lib());
  const int out_w = num::aligned_mant_bits(cfg.format, cfg.guard_bits);
  const int latency = cfg.latency_cycles();
  EXPECT_GE(latency, 4);

  std::mt19937 rng(5);
  std::uniform_int_distribution<std::uint32_t> dist(0, 255);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<std::uint32_t> enc(16);
    for (auto& e : enc) e = dist(rng);
    for (int l = 0; l < 16; ++l) {
      const num::FpFields f = num::fp_split(enc[l], cfg.format);
      gs.set_input_bus("exp" + std::to_string(l),
                       static_cast<std::uint64_t>(f.exp_raw), 4);
      gs.set_input_bus("man" + std::to_string(l),
                       static_cast<std::uint64_t>(f.man_raw), 3);
      gs.set_input("sgn" + std::to_string(l), f.sign);
    }
    for (int t = 0; t < latency; ++t) gs.step();
    gs.eval();
    const auto ref = num::align_fp_group(enc, cfg.format, cfg.guard_bits);
    for (int l = 0; l < 16; ++l) {
      EXPECT_EQ(num::sign_extend(
                    gs.output_bus("am" + std::to_string(l), out_w), out_w),
                ref.mant[l])
          << "lane " << l << " trial " << trial;
    }
  }
}

TEST(StaCaseAnalysis, StaticInputsExcludedFromTiming) {
  // A chain from a config-like input dominates timing unless declared
  // static.
  netlist::Design d;
  netlist::Module m("t");
  const auto clk = m.add_port("clk", netlist::PortDir::kIn);
  const auto cfg_in = m.add_port("cfg", netlist::PortDir::kIn);
  const auto data = m.add_port("data", netlist::PortDir::kIn);
  const auto out = m.add_port("out", netlist::PortDir::kOut);
  rtlgen::GateBuilder gb(m, "g_");
  netlist::NetId x = cfg_in;
  for (int i = 0; i < 30; ++i) x = gb.inv(x);  // long config chain
  const auto y = gb.and2(x, gb.dff(data, clk));
  const auto q = gb.dff(y, clk);
  m.add_cell("ob", "BUFX1", {{"A", q}, {"Y", out}});
  d.add_module(std::move(m));
  const auto flat = netlist::flatten(d, "t");
  sta::StaEngine eng(flat, lib());
  sta::StaOptions opt;
  const double with_cfg = eng.analyze(opt).min_period_ps;
  opt.static_inputs = {"cfg"};
  const double without_cfg = eng.analyze(opt).min_period_ps;
  EXPECT_LT(without_cfg, with_cfg / 2);
  // Unknown names are ignored.
  opt.static_inputs = {"cfg", "does_not_exist"};
  EXPECT_DOUBLE_EQ(eng.analyze(opt).min_period_ps, without_cfg);
}

TEST(StaMaxSlew, ClampBoundsWireDegradedPaths) {
  // A weak driver into a huge load produces a degenerate slew; the
  // max-transition clamp (APR repeater model) bounds the downstream
  // penalty.
  netlist::Design d;
  netlist::Module m("t");
  const auto clk = m.add_port("clk", netlist::PortDir::kIn);
  const auto a = m.add_port("a", netlist::PortDir::kIn);
  const auto out = m.add_port("out", netlist::PortDir::kOut);
  rtlgen::GateBuilder gb(m, "g_");
  netlist::NetId x = gb.dff(a, clk);
  x = gb.inv(x);  // weak INVX1 driving the fat net below
  netlist::NetId fat = x;
  // 60 inverter loads on one net.
  std::vector<netlist::NetId> ys;
  for (int i = 0; i < 60; ++i) ys.push_back(gb.inv(fat));
  netlist::NetId chain = ys[0];
  for (int i = 0; i < 10; ++i) chain = gb.inv(chain);
  const auto q = gb.dff(chain, clk);
  m.add_cell("ob", "BUFX1", {{"A", q}, {"Y", out}});
  d.add_module(std::move(m));
  const auto flat = netlist::flatten(d, "t");
  sta::StaEngine eng(flat, lib());
  sta::StaOptions loose, tight;
  loose.max_slew_ps = 10000.0;
  tight.max_slew_ps = 200.0;
  EXPECT_LT(eng.analyze(tight).min_period_ps,
            eng.analyze(loose).min_period_ps);
}

TEST(SclComposition, MatchesFullMacroAnalysis) {
  // The slice-composed area/power estimate must track a real full-macro
  // analysis (cols larger than the slice).
  core::PerfSpec spec;
  spec.rows = 32;
  spec.cols = 32;  // slice is 8 cols -> composition ratio 4
  spec.mcr = 2;
  spec.input_bits = {4};
  spec.weight_bits = {4};
  spec.mac_freq_mhz = 300;
  spec.wupdate_freq_mhz = 300;
  const auto cfg = spec.base_config();

  core::SubcircuitLibrary scl(lib());
  const auto est = scl.evaluate(cfg, spec).ppa;

  const auto md = rtlgen::gen_macro(cfg);
  const auto flat = netlist::flatten(md.design, md.top);
  const auto area = power::analyze_area(flat, lib());
  EXPECT_NEAR(est.area_um2, area.total_um2, 0.15 * area.total_um2);

  const auto act = power::propagate_activity(flat, lib(), {});
  power::PowerOptions popt;
  popt.freq_mhz = spec.mac_freq_mhz;
  const auto pw = power::analyze_power(flat, lib(), act, popt);
  EXPECT_NEAR(est.power_uw, pw.total_uw(), 0.30 * pw.total_uw());

  // Timing: compare post-layout to post-layout (the SCL characterizes its
  // slice with extracted wires).
  const auto fp = layout::sdp_place(flat, lib(), cfg);
  sta::StaEngine eng(flat, lib());
  sta::StaOptions topt;
  topt.static_inputs = md.static_control_ports();
  topt.wire = layout::extract_wire_model(flat, fp, lib().node());
  const auto rep = eng.analyze(topt);
  EXPECT_NEAR(est.fmax_mhz, rep.fmax_mhz, 0.25 * rep.fmax_mhz);
}

class BitcellVariant
    : public ::testing::TestWithParam<rtlgen::BitcellKind> {};

TEST_P(BitcellVariant, FunctionalAndCosted) {
  rtlgen::MacroConfig cfg;
  cfg.rows = 16;
  cfg.cols = 8;
  cfg.mcr = 2;
  cfg.input_bits = {4};
  cfg.weight_bits = {4};
  cfg.bitcell = GetParam();
  const auto md = rtlgen::gen_macro(cfg);
  sim::DcimMacroModel model(cfg);
  sim::MacroTestbench tb(md, lib());
  std::mt19937 rng(9);
  std::vector<std::vector<std::int64_t>> w(2);
  for (auto& g : w) {
    g.resize(16);
    for (auto& v : g) v = static_cast<std::int64_t>(rng() % 16) - 8;
  }
  model.load_weights_int(0, 4, w);
  tb.preload_weights(model);
  std::vector<std::int64_t> in(16);
  for (auto& v : in) v = static_cast<std::int64_t>(rng() % 16) - 8;
  EXPECT_EQ(tb.run_mac_int(in, 4, 4, 0), model.mac_int(in, 4, 4, 0));

  // Denser cells cost less area.
  const auto flat = netlist::flatten(md.design, md.top);
  const auto area = power::analyze_area(flat, lib());
  EXPECT_GT(area.bitcell_um2, 0);
}

INSTANTIATE_TEST_SUITE_P(Kinds, BitcellVariant,
                         ::testing::Values(rtlgen::BitcellKind::k6T,
                                           rtlgen::BitcellKind::k8T,
                                           rtlgen::BitcellKind::k12T));

TEST(BitcellAreas, OrderedAcrossVariants) {
  auto bitcell_area = [&](rtlgen::BitcellKind k) {
    rtlgen::MacroConfig cfg;
    cfg.rows = 16;
    cfg.cols = 8;
    cfg.mcr = 1;
    cfg.input_bits = {4};
    cfg.weight_bits = {4};
    cfg.bitcell = k;
    const auto md = rtlgen::gen_macro(cfg);
    const auto flat = netlist::flatten(md.design, md.top);
    return power::analyze_area(flat, lib()).bitcell_um2;
  };
  EXPECT_LT(bitcell_area(rtlgen::BitcellKind::k6T),
            bitcell_area(rtlgen::BitcellKind::k8T));
  EXPECT_LT(bitcell_area(rtlgen::BitcellKind::k8T),
            bitcell_area(rtlgen::BitcellKind::k12T));
}

TEST(Fp4Embedding, Fp4ValuesRunExactlyThroughTheFp8Unit) {
  // The Fig. 8 spec lists FP4 and FP8; FP4 re-encodes exactly into the
  // FP8 alignment hardware (every E2M1 value is representable in E4M3).
  rtlgen::MacroConfig cfg;
  cfg.rows = 16;
  cfg.cols = 8;
  cfg.mcr = 1;
  cfg.input_bits = {4};
  cfg.weight_bits = {4};
  cfg.fp_formats = {num::kFp8};
  cfg.fp_guard_bits = 1;
  const auto md = rtlgen::gen_macro(cfg);
  sim::DcimMacroModel model(cfg);
  sim::MacroTestbench tb(md, lib());

  std::mt19937 rng(13);
  std::uniform_int_distribution<std::uint32_t> d4(0, 15);
  auto fp4_as_fp8 = [](std::uint32_t e4) {
    return num::fp_encode(num::fp_decode(e4, num::kFp4), num::kFp8);
  };
  // Exactness of the embedding itself:
  for (std::uint32_t e = 0; e < 16; ++e) {
    EXPECT_DOUBLE_EQ(num::fp_decode(fp4_as_fp8(e), num::kFp8),
                     num::fp_decode(e, num::kFp4));
  }
  const int wp = cfg.max_weight_bits();
  std::vector<std::vector<std::uint32_t>> w(cfg.cols / wp);
  for (auto& g : w) {
    g.resize(16);
    for (auto& v : g) v = fp4_as_fp8(d4(rng));
  }
  model.load_weights_fp(0, num::kFp8, w);
  tb.preload_weights(model);
  std::vector<std::uint32_t> in(16);
  for (auto& v : in) v = fp4_as_fp8(d4(rng));
  const auto expected = model.mac_fp(in, num::kFp8, 0);
  EXPECT_EQ(tb.run_mac_fp(in, num::kFp8, 0), expected.raw);
}

TEST(PostLayoutFlow, WireAnnotationSlowsTiming) {
  rtlgen::MacroConfig cfg;
  cfg.rows = 16;
  cfg.cols = 8;
  cfg.mcr = 2;
  cfg.input_bits = {4};
  cfg.weight_bits = {4};
  const auto md = rtlgen::gen_macro(cfg);
  const auto flat = netlist::flatten(md.design, md.top);
  const auto fp = layout::sdp_place(flat, lib(), cfg);
  sta::StaEngine eng(flat, lib());
  sta::StaOptions pre;
  pre.wire.cap_per_fanout_ff = 0.0;
  sta::StaOptions post;
  post.wire = layout::extract_wire_model(flat, fp, lib().node());
  EXPECT_GT(eng.analyze(post).min_period_ps,
            eng.analyze(pre).min_period_ps);
}

}  // namespace
