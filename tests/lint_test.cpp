// Static-analysis (lint) pass: seeded structural defects must be found
// with the right rule ids, generated macros must be clean, and malformed
// inputs must produce diagnostics instead of crashes.
#include <gtest/gtest.h>

#include <sstream>

#include "cell/characterize.hpp"
#include "cell/liberty_parser.hpp"
#include "core/diag.hpp"
#include "json/json.hpp"
#include "layout/floorplan.hpp"
#include "lint/lint.hpp"
#include "netlist/flatten.hpp"
#include "netlist/verilog_parser.hpp"
#include "rtlgen/macro.hpp"
#include "tech/tech_node.hpp"

namespace {
using namespace syndcim;

const cell::Library& lib() {
  static const cell::Library l =
      cell::characterize_default_library(tech::make_default_40nm());
  return l;
}

rtlgen::MacroConfig small_cfg() {
  rtlgen::MacroConfig cfg;
  cfg.rows = 16;
  cfg.cols = 8;
  cfg.mcr = 2;
  cfg.input_bits = {2, 4};
  cfg.weight_bits = {2, 4};
  cfg.fp_formats = {};
  return cfg;
}

netlist::FlatNetlist flat_from(const std::string& src,
                               const std::string& top) {
  std::istringstream is(src);
  const netlist::Design d = netlist::parse_verilog(is);
  return netlist::flatten(d, top);
}

TEST(Lint, SeededDefectsReportTheRightRules) {
  // Multiply-driven net, floating net and a combinational loop in one
  // netlist (mirrors examples/lint_defects.v).
  const std::string src = R"(
module defects (in1, in2, in3, clk, out1, out2, out3, out4);
  input in1; input in2; input in3; input clk;
  output out1; output out2; output out3; output out4;
  wire md; wire floatn; wire loop_a; wire loop_b;
  INVX1 u_md_a (.A(in1), .Y(md));
  INVX1 u_md_b (.A(in2), .Y(md));
  INVX1 u_md_use (.A(md), .Y(out1));
  INVX1 u_float (.A(floatn), .Y(out2));
  INVX1 u_loop_1 (.A(loop_a), .Y(loop_b));
  INVX1 u_loop_2 (.A(loop_b), .Y(loop_a));
  INVX1 u_loop_use (.A(loop_b), .Y(out4));
  DFFX1 u_reg (.D(in3), .CK(clk), .Q(out3));
endmodule
)";
  core::DiagEngine diag;
  const lint::LintSummary s =
      lint::lint_netlist(flat_from(src, "defects"), lib(), diag);
  EXPECT_FALSE(s.clean());
  EXPECT_EQ(s.errors, 3u);
  EXPECT_EQ(diag.count_rule("LINT-MULTIDRIVE"), 1u);
  EXPECT_EQ(diag.count_rule("LINT-FLOATING"), 1u);
  EXPECT_EQ(diag.count_rule("LINT-COMB-LOOP"), 1u);
  const auto md = diag.first_of("LINT-MULTIDRIVE");
  ASSERT_TRUE(md.has_value());
  EXPECT_EQ(md->object, "md");
  const auto fl = diag.first_of("LINT-FLOATING");
  ASSERT_TRUE(fl.has_value());
  EXPECT_EQ(fl->object, "floatn");
  // The loop report names both members of the cycle.
  const auto lp = diag.first_of("LINT-COMB-LOOP");
  ASSERT_TRUE(lp.has_value());
  EXPECT_NE(lp->message.find("2 gates"), std::string::npos);
}

TEST(Lint, GeneratedMacroHasNoErrorsOrWarnings) {
  const rtlgen::MacroDesign macro = rtlgen::gen_macro(small_cfg());
  const netlist::FlatNetlist flat =
      netlist::flatten(macro.design, macro.top);
  core::DiagEngine diag;
  const lint::LintSummary s = lint::lint_netlist(flat, lib(), diag);
  EXPECT_EQ(s.errors, 0u) << diag.summary();
  EXPECT_EQ(s.warnings, 0u) << diag.summary();
}

TEST(Lint, UnconnectedPinsSplitBySeverity) {
  // NAND2X1 with B and Y unconnected: the input is an error (it would
  // float in silicon), the output only a warning (unused logic).
  const std::string src = R"(
module uncon (in1);
  input in1;
  NAND2X1 u (.A(in1));
endmodule
)";
  core::DiagEngine diag;
  const lint::LintSummary s =
      lint::lint_netlist(flat_from(src, "uncon"), lib(), diag);
  EXPECT_EQ(diag.count_rule("LINT-UNCONNECTED"), 2u);
  EXPECT_EQ(s.errors, 1u);
  EXPECT_EQ(s.warnings, 1u);
}

TEST(Lint, UnknownCellAndUnknownPin) {
  const std::string src = R"(
module unk (in1, out1);
  input in1; output out1;
  BOGUSX9 u1 (.A(in1), .Y(out1));
  INVX1 u2 (.A(in1), .Z(out1));
endmodule
)";
  core::DiagEngine diag;
  const lint::LintSummary s =
      lint::lint_netlist(flat_from(src, "unk"), lib(), diag);
  EXPECT_FALSE(s.clean());
  EXPECT_EQ(diag.count_rule("LINT-UNKNOWN-CELL"), 1u);
  EXPECT_EQ(diag.first_of("LINT-UNKNOWN-CELL")->object, "BOGUSX9");
  EXPECT_EQ(diag.count_rule("LINT-UNKNOWN-PIN"), 1u);
  // u2's Y stays unconnected once Z is rejected.
  EXPECT_GE(diag.count_rule("LINT-UNCONNECTED"), 1u);
}

TEST(Lint, CdcThroughCombLogicIsFlagged) {
  const std::string src = R"(
module cdc (din, clk_a, clk_b, qout);
  input din; input clk_a; input clk_b; output qout;
  wire qa; wire qi;
  DFFX1 u_src (.D(din), .CK(clk_a), .Q(qa));
  INVX1 u_mid (.A(qa), .Y(qi));
  DFFX1 u_dst (.D(qi), .CK(clk_b), .Q(qout));
endmodule
)";
  core::DiagEngine diag;
  const lint::LintSummary s =
      lint::lint_netlist(flat_from(src, "cdc"), lib(), diag);
  EXPECT_EQ(s.errors, 0u);
  EXPECT_EQ(diag.count_rule("LINT-CDC"), 1u);
  const auto c = diag.first_of("LINT-CDC");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->severity, core::Severity::kWarning);
  EXPECT_NE(c->message.find("clk_a"), std::string::npos);
}

TEST(Lint, DirectSynchronizerIsNotFlagged) {
  // reg(clk_a) -> reg(clk_b) with no logic in between IS the
  // synchronizer pattern; same-domain comb paths are fine too.
  const std::string src = R"(
module sync (din, clk_a, clk_b, qout);
  input din; input clk_a; input clk_b; output qout;
  wire qa; wire qs; wire qi;
  DFFX1 u_src (.D(din), .CK(clk_a), .Q(qa));
  DFFX1 u_sync (.D(qa), .CK(clk_b), .Q(qs));
  INVX1 u_same (.A(qs), .Y(qi));
  DFFX1 u_dst (.D(qi), .CK(clk_b), .Q(qout));
endmodule
)";
  core::DiagEngine diag;
  (void)lint::lint_netlist(flat_from(src, "sync"), lib(), diag);
  EXPECT_EQ(diag.count_rule("LINT-CDC"), 0u) << diag.summary();
}

TEST(Lint, SramWriteEndpointChecksDesignatedClock) {
  const std::string src = R"(
module wdom (din, sel, wclk, mclk, qw);
  input din; input sel; input wclk; input mclk; output qw;
  wire wd; wire wl;
  DFFX1 u_w (.D(din), .CK(wclk), .Q(wd));
  DFFX1 u_m (.D(sel), .CK(mclk), .Q(wl));
  DFFX1 u_use (.D(wd), .CK(wclk), .Q(qw));
  SRAM6T u_bit (.WL(wl), .D(wd));
endmodule
)";
  // Without a designated write clock the storage check is off.
  {
    core::DiagEngine diag;
    (void)lint::lint_netlist(flat_from(src, "wdom"), lib(), diag);
    EXPECT_EQ(diag.count_rule("LINT-CDC"), 0u);
  }
  // With it, the MAC-domain register driving WL is a crossing; the
  // write-domain register driving D is not.
  {
    core::DiagEngine diag;
    (void)lint::lint_netlist(flat_from(src, "wdom"), lib(), diag, "wclk");
    EXPECT_EQ(diag.count_rule("LINT-CDC"), 1u);
    const auto c = diag.first_of("LINT-CDC");
    ASSERT_TRUE(c.has_value());
    EXPECT_NE(c->message.find("'WL'"), std::string::npos);
    EXPECT_NE(c->message.find("mclk"), std::string::npos);
  }
}

TEST(Lint, DesignLevelWidthMismatchAndUnconnectedPort) {
  netlist::Design d;
  netlist::Module sub("leaf");
  const netlist::NetId a0 = sub.add_port("d[0]", netlist::PortDir::kIn);
  const netlist::NetId a1 = sub.add_port("d[1]", netlist::PortDir::kIn);
  const netlist::NetId y = sub.add_port("y", netlist::PortDir::kOut);
  sub.add_cell("u", "NAND2X1", {{"A", a0}, {"B", a1}, {"Y", y}});
  d.add_module(std::move(sub));

  netlist::Module top("top");
  const netlist::NetId in = top.add_port("in", netlist::PortDir::kIn);
  const netlist::NetId out = top.add_port("out", netlist::PortDir::kOut);
  // Connects only bit 0 of the 2-bit bus `d` and leaves d[1] dangling.
  top.add_submodule("u_leaf", "leaf", {{"d[0]", in}, {"y", out}});
  d.add_module(std::move(top));

  core::DiagEngine diag;
  const lint::LintSummary s = lint::lint_design(d, "top", diag);
  EXPECT_FALSE(s.clean());
  EXPECT_EQ(diag.count_rule("LINT-WIDTH"), 1u);
  const auto w = diag.first_of("LINT-WIDTH");
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->object, "u_leaf");
  EXPECT_NE(w->message.find("2 bits wide"), std::string::npos);
  EXPECT_GE(diag.count_rule("LINT-UNCONNECTED"), 1u);
}

TEST(Lint, MissingTopIsAStructError) {
  netlist::Design d;
  core::DiagEngine diag;
  const lint::LintSummary s = lint::lint_design(d, "nope", diag);
  EXPECT_FALSE(s.clean());
  EXPECT_EQ(diag.count_rule("LINT-STRUCT"), 1u);
}

TEST(Lint, PerRuleCapTruncatesWithANote) {
  // 70 separate floating nets against the cap of 64: 64 reported, a
  // LINT-TRUNCATED note counts the other 6, and the summary still counts
  // all 70 errors.
  constexpr int kNets = 70;
  static_assert(kNets > static_cast<int>(lint::kMaxPerRule));
  std::string src = "module caps (";
  for (int i = 0; i < kNets; ++i) {
    src += (i ? ", " : "") + ("o" + std::to_string(i));
  }
  src += ");\n";
  for (int i = 0; i < kNets; ++i) {
    src += "  output o" + std::to_string(i) + ";\n";
    src += "  wire f" + std::to_string(i) + ";\n";
  }
  for (int i = 0; i < kNets; ++i) {
    src += "  INVX1 u" + std::to_string(i) + " (.A(f" + std::to_string(i) +
           "), .Y(o" + std::to_string(i) + "));\n";
  }
  src += "endmodule\n";
  core::DiagEngine diag;
  const lint::LintSummary s =
      lint::lint_netlist(flat_from(src, "caps"), lib(), diag);
  EXPECT_EQ(s.errors, 70u);
  EXPECT_EQ(diag.count_rule("LINT-FLOATING"), 64u);
  EXPECT_EQ(diag.count_rule("LINT-TRUNCATED"), 1u);
  EXPECT_NE(diag.first_of("LINT-TRUNCATED")->message.find("6 further"),
            std::string::npos);
}

TEST(Lint, MalformedVerilogYieldsDiagnosticsNotThrows) {
  // Truncated module: legacy mode throws, diag mode records VLOG-SYNTAX
  // and returns what parsed.
  const std::string truncated = R"(
module good (a, y);
  input a; output y;
  INVX1 u (.A(a), .Y(y));
endmodule
module bad (a, y);
  input a; output y;
  INVX1 u (.A(a), .Y(
)";
  {
    std::istringstream is(truncated);
    EXPECT_THROW((void)netlist::parse_verilog(is), std::invalid_argument);
  }
  {
    std::istringstream is(truncated);
    core::DiagEngine diag;
    const netlist::Design d = netlist::parse_verilog(is, &diag);
    EXPECT_EQ(diag.count_rule("VLOG-SYNTAX"), 1u);
    EXPECT_TRUE(d.has_module("good"));
  }
  // Non-constant assign: VLOG-BADASSIGN with a line number.
  {
    const std::string bad_assign =
        "module m (a, y);\n  input a; output y;\n  assign y = a;\n"
        "endmodule\n";
    std::istringstream is(bad_assign);
    core::DiagEngine diag;
    (void)netlist::parse_verilog(is, &diag);
    const auto f = diag.first_of("VLOG-BADASSIGN");
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->line, 3);
  }
}

TEST(Lint, FloorplanRejectsMalformedColumnGroupNames) {
  // A depth-1 instance named col_bogus lands a group whose name starts
  // with "col" but is not col<N>; sdp_place must skip it with an
  // FP-BADGROUP warning instead of misplacing it (the seed parsed it
  // with std::stoi and relied on exceptions for control flow).
  rtlgen::MacroDesign macro = rtlgen::gen_macro(small_cfg());
  netlist::Module junk("fp_junk");
  const netlist::NetId ja = junk.add_port("a", netlist::PortDir::kIn);
  const netlist::NetId jy = junk.add_port("y", netlist::PortDir::kOut);
  junk.add_cell("u", "INVX1", {{"A", ja}, {"Y", jy}});
  macro.design.add_module(std::move(junk));
  netlist::Module& top = macro.design.module(macro.top);
  const netlist::NetId jin = top.add_net("fp_junk_in");
  const netlist::NetId jout = top.add_net("fp_junk_out");
  top.add_submodule("col_bogus", "fp_junk", {{"a", jin}, {"y", jout}});

  const netlist::FlatNetlist flat =
      netlist::flatten(macro.design, macro.top);
  core::DiagEngine diag;
  const layout::Floorplan fp =
      layout::sdp_place(flat, lib(), small_cfg(), &diag);
  EXPECT_EQ(diag.count_rule("FP-BADGROUP"), 1u);
  EXPECT_EQ(diag.first_of("FP-BADGROUP")->object, "col_bogus");
  // The real columns are all still placed.
  EXPECT_NE(fp.region("col0"), nullptr);
  EXPECT_NE(fp.region("col7"), nullptr);
}

TEST(Lint, JsonReportCarriesCountsAndFindings) {
  // Every control byte plus quote and backslash, in one message.
  std::string awkward;
  for (char c = 0x01; c < 0x20; ++c) awkward.push_back(c);
  awkward += "\"\\";
  core::DiagEngine diag;
  diag.error("LINT-MULTIDRIVE", "net has 2 drivers", "n\"1", "colA");
  diag.warning("LINT-CDC", "crossing", "pin", "colB");
  diag.info("LINT-DANGLING", "unused");
  diag.info("LINT-DANGLING", awkward);
  const std::string json = diag.to_json();
  EXPECT_NE(json.find("\"format\": \"syndcim-diagnostics\""),
            std::string::npos);
  EXPECT_NE(json.find("\"errors\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"warnings\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"notes\": 2"), std::string::npos);
  // Quotes inside object names are escaped.
  EXPECT_NE(json.find("n\\\"1"), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"LINT-CDC\""), std::string::npos);
  // The shared parser recovers every escaped string exactly.
  json::JsonValue doc;
  std::string err;
  ASSERT_TRUE(json::json_parse(json, &doc, &err)) << err << "\n" << json;
  const json::JsonValue* list = doc.find("diagnostics");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->size(), 4u);
  EXPECT_EQ(list->at(0).find("object")->as_string(), "n\"1");
  EXPECT_EQ(list->at(3).find("message")->as_string(), awkward);
}

TEST(Lint, LibertyDiagnosticsFlowThroughTheSharedEngine) {
  // The same DiagEngine collects findings from multiple producers.
  const std::string bad_lib =
      "library (l) {\n  cell (ZZZ) {\n    area : banana;\n  }\n}\n";
  std::istringstream is(bad_lib);
  core::DiagEngine diag;
  diag.warning("LINT-CDC", "pre-existing finding");
  (void)cell::parse_liberty(is, tech::make_default_40nm(), &diag);
  EXPECT_GE(diag.count_rule("LIB-BADNUM"), 1u);
  EXPECT_EQ(diag.count_rule("LINT-CDC"), 1u);
  EXPECT_TRUE(diag.has_errors());
}

}  // namespace
