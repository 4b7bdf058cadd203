// Tests for the interchange writers (Verilog, SDC, SDP TCL, DEF, compile
// artifacts) and the Verilog parser round-trip.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>

#include "cell/characterize.hpp"
#include "core/artifacts.hpp"
#include "core/compiler.hpp"
#include "layout/sdp_script.hpp"
#include "netlist/flatten.hpp"
#include "netlist/verilog.hpp"
#include "netlist/verilog_parser.hpp"
#include "rtlgen/adder_tree.hpp"
#include "rtlgen/macro.hpp"
#include "sim/gate_sim.hpp"
#include "sta/sdc.hpp"
#include "tech/tech_node.hpp"

namespace {
using namespace syndcim;

const cell::Library& lib() {
  static const cell::Library l =
      cell::characterize_default_library(tech::make_default_40nm());
  return l;
}

TEST(VerilogIdent, Escaping) {
  EXPECT_EQ(netlist::verilog_ident("sum[3]"), "sum_3_");
  EXPECT_EQ(netlist::verilog_ident("a/b.c"), "a_b_c");
  EXPECT_EQ(netlist::verilog_ident("3x"), "n3x");
  EXPECT_EQ(netlist::verilog_ident("plain_name"), "plain_name");
}

TEST(VerilogWriter, EmitsStructuralNetlist) {
  rtlgen::AdderTreeConfig cfg;
  cfg.rows = 8;
  netlist::Design d;
  d.add_module(rtlgen::gen_adder_tree(cfg, "tree"));
  std::ostringstream os;
  netlist::write_verilog(d, "tree", os);
  const std::string v = os.str();
  EXPECT_NE(v.find("module tree ("), std::string::npos);
  EXPECT_NE(v.find("input in_0_;"), std::string::npos);
  EXPECT_NE(v.find("output sum_0_;"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
  EXPECT_NE(v.find("CMP42X1"), std::string::npos);
}

TEST(VerilogRoundTrip, TreeParsesAndSimulatesIdentically) {
  rtlgen::AdderTreeConfig cfg;
  cfg.rows = 16;
  cfg.style = rtlgen::AdderTreeStyle::kMixed;
  cfg.fa_fraction = 0.5;
  netlist::Design d;
  d.add_module(rtlgen::gen_adder_tree(cfg, "tree"));

  std::ostringstream os;
  netlist::write_verilog(d, "tree", os);
  std::istringstream is(os.str());
  const netlist::Design d2 = netlist::parse_verilog(is);

  const auto f1 = netlist::flatten(d, "tree");
  const auto f2 = netlist::flatten(d2, "tree");
  EXPECT_EQ(f1.gates().size(), f2.gates().size());

  // Same master histogram.
  auto histo = [](const netlist::FlatNetlist& f) {
    std::map<std::string, int> h;
    for (const auto& g : f.gates()) ++h[f.master_names()[g.master]];
    return h;
  };
  EXPECT_EQ(histo(f1), histo(f2));

  // Same function (port names are escaped in the parsed design).
  sim::GateSim s1(f1, lib());
  sim::GateSim s2(f2, lib());
  std::mt19937 rng(3);
  for (int t = 0; t < 50; ++t) {
    std::uint64_t pop = 0;
    for (int i = 0; i < 16; ++i) {
      const int b = static_cast<int>(rng() & 1);
      pop += static_cast<std::uint64_t>(b);
      s1.set_input(netlist::bus_name("in", i), b);
      s2.set_input("in_" + std::to_string(i) + "_", b);
    }
    s1.eval();
    s2.eval();
    std::uint64_t v2 = 0;
    for (int i = 0; i < 5; ++i) {
      v2 |= static_cast<std::uint64_t>(
                s2.output("sum_" + std::to_string(i) + "_"))
            << i;
    }
    EXPECT_EQ(s1.output_bus("sum", 5), pop);
    EXPECT_EQ(v2, pop);
  }
}

TEST(VerilogRoundTrip, HierarchicalMacroStructure) {
  rtlgen::MacroConfig cfg;
  cfg.rows = 16;
  cfg.cols = 8;
  cfg.mcr = 2;
  cfg.input_bits = {4};
  cfg.weight_bits = {4};
  const auto md = rtlgen::gen_macro(cfg);
  std::ostringstream os;
  netlist::write_verilog(md.design, md.top, os);
  std::istringstream is(os.str());
  const auto d2 = netlist::parse_verilog(is);
  EXPECT_TRUE(d2.has_module("dcim_macro"));
  EXPECT_TRUE(d2.has_module("dcim_col"));
  EXPECT_TRUE(d2.has_module("tree"));
  const auto f1 = netlist::flatten(md.design, md.top);
  const auto f2 = netlist::flatten(d2, "dcim_macro");
  EXPECT_EQ(f1.gates().size(), f2.gates().size());
  EXPECT_EQ(f1.net_count(), f2.net_count());
}

TEST(VerilogParser, RejectsGarbage) {
  std::istringstream bad1("module m (; endmodule");
  EXPECT_THROW((void)netlist::parse_verilog(bad1), std::invalid_argument);
  std::istringstream bad2("module m (); assign x = 1'bz; endmodule");
  EXPECT_THROW((void)netlist::parse_verilog(bad2), std::invalid_argument);
  std::istringstream bad3("notmodule m ();");
  EXPECT_THROW((void)netlist::parse_verilog(bad3), std::invalid_argument);
}

TEST(SdcWriter, EmitsConstraints) {
  sta::StaOptions opt;
  opt.clock_period_ps = 2500;
  opt.write_period_ps = 5000;
  opt.static_inputs = {"bsel[0]", "mode[1]"};
  std::ostringstream os;
  sta::write_sdc(opt, os);
  const std::string s = os.str();
  EXPECT_NE(s.find("create_clock -name mac_clk -period 2.5"),
            std::string::npos);
  EXPECT_NE(s.find("create_clock -name wupdate_clk -add -period 5"),
            std::string::npos);
  EXPECT_NE(s.find("set_case_analysis 0 [get_ports {bsel[0]}]"),
            std::string::npos);
  EXPECT_NE(s.find("set_max_transition"), std::string::npos);
}

TEST(SdpScript, TclAndDefCoverAllPlacedCells) {
  rtlgen::MacroConfig cfg;
  cfg.rows = 16;
  cfg.cols = 8;
  cfg.mcr = 1;
  cfg.input_bits = {4};
  cfg.weight_bits = {4};
  const auto md = rtlgen::gen_macro(cfg);
  const auto flat = netlist::flatten(md.design, md.top);
  const auto fp = layout::sdp_place(flat, lib(), cfg);

  std::ostringstream tcl;
  layout::write_sdp_tcl(flat, fp, tcl);
  const std::string t = tcl.str();
  EXPECT_NE(t.find("floorPlan -site core"), std::string::npos);
  EXPECT_NE(t.find("createInstGroup grp_col0"), std::string::npos);
  std::size_t count = 0, pos = 0;
  while ((pos = t.find("placeInstance", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, flat.gates().size());

  std::ostringstream def;
  layout::write_def(flat, fp, md.top, def);
  const std::string s = def.str();
  EXPECT_NE(s.find("DESIGN dcim_macro ;"), std::string::npos);
  EXPECT_NE(
      s.find("COMPONENTS " + std::to_string(flat.gates().size()) + " ;"),
      std::string::npos);
  EXPECT_NE(s.find("+ PLACED ("), std::string::npos);
  EXPECT_NE(s.find("END COMPONENTS"), std::string::npos);
}

TEST(Artifacts, WritesCompleteBundle) {
  core::SynDcimCompiler compiler(lib());
  core::PerfSpec spec;
  spec.rows = 16;
  spec.cols = 8;
  spec.mcr = 2;
  spec.input_bits = {4};
  spec.weight_bits = {4};
  spec.mac_freq_mhz = 300;
  spec.wupdate_freq_mhz = 300;
  const auto res = compiler.compile(spec);
  const std::string dir = ::testing::TempDir() + "/syndcim_artifacts";
  const auto files = core::write_artifacts(res, spec, lib(), dir);
  ASSERT_EQ(files.size(), 7u);
  for (const auto& f : files) {
    EXPECT_TRUE(std::filesystem::exists(f)) << f;
    EXPECT_GT(std::filesystem::file_size(f), 50u) << f;
  }
  // The emitted Verilog is parseable and flattens to the same size.
  std::ifstream v(dir + "/macro.v");
  const auto d2 = netlist::parse_verilog(v);
  const auto f1 = netlist::flatten(res.impl.macro.design,
                                   res.impl.macro.top);
  const auto f2 = netlist::flatten(d2, res.impl.macro.top);
  EXPECT_EQ(f1.gates().size(), f2.gates().size());
  std::filesystem::remove_all(dir);
}

// The DEF and the TCL come from the netlist the compile placed, so a
// result without one is refused before half a bundle lands on disk.
TEST(Artifacts, RefusesResultWithoutNetlistAndWritesNothing) {
  core::SynDcimCompiler compiler(lib());
  core::PerfSpec spec;
  spec.rows = 16;
  spec.cols = 8;
  spec.mcr = 2;
  spec.input_bits = {4};
  spec.weight_bits = {4};
  spec.mac_freq_mhz = 300;
  spec.wupdate_freq_mhz = 300;
  auto res = compiler.compile(spec);
  ASSERT_NE(res.impl.flat, nullptr);
  res.impl.flat.reset();
  const std::string dir = ::testing::TempDir() + "/syndcim_no_netlist";
  std::filesystem::remove_all(dir);
  EXPECT_THROW((void)core::write_artifacts(res, spec, lib(), dir),
               std::invalid_argument);
  EXPECT_FALSE(std::filesystem::exists(dir));
}

}  // namespace
