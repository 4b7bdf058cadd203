#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/diag.hpp"
#include "netlist/design.hpp"
#include "netlist/flatten.hpp"
#include "netlist/module.hpp"
#include "netlist/verilog.hpp"
#include "netlist/verilog_parser.hpp"

namespace {
using namespace syndcim::netlist;

Module make_full_adder_module() {
  // Structural FA from two HAs + OR (classic decomposition).
  Module m("fa_struct");
  const NetId a = m.add_port("A", PortDir::kIn);
  const NetId b = m.add_port("B", PortDir::kIn);
  const NetId ci = m.add_port("CI", PortDir::kIn);
  const NetId s = m.add_port("S", PortDir::kOut);
  const NetId co = m.add_port("CO", PortDir::kOut);
  const NetId s1 = m.add_net("s1");
  const NetId c1 = m.add_net("c1");
  const NetId c2 = m.add_net("c2");
  m.add_cell("ha0", "HAX1", {{"A", a}, {"B", b}, {"S", s1}, {"CO", c1}});
  m.add_cell("ha1", "HAX1", {{"A", s1}, {"B", ci}, {"S", s}, {"CO", c2}});
  m.add_cell("or0", "OR2X1", {{"A", c1}, {"B", c2}, {"Y", co}});
  return m;
}

TEST(Module, BusNaming) {
  EXPECT_EQ(bus_name("sum", 3), "sum[3]");
  EXPECT_EQ(bus_name("x", 0), "x[0]");
}

TEST(Module, PortsAndNets) {
  Module m = make_full_adder_module();
  EXPECT_EQ(m.ports().size(), 5u);
  EXPECT_EQ(m.instances().size(), 3u);
  EXPECT_EQ(m.cell_count(), 3u);
  EXPECT_TRUE(m.has_port("CI"));
  EXPECT_FALSE(m.has_port("XX"));
  EXPECT_EQ(m.port("S").dir, PortDir::kOut);
  EXPECT_THROW((void)m.port("nope"), std::out_of_range);
}

TEST(Module, ConstNetsAreSingletons) {
  Module m("t");
  const NetId z1 = m.const0();
  const NetId z2 = m.const0();
  const NetId o = m.const1();
  EXPECT_EQ(z1, z2);
  EXPECT_FALSE(z1 == o);
  EXPECT_EQ(m.net(z1).tie, NetConst::kZero);
  EXPECT_EQ(m.net(o).tie, NetConst::kOne);
}

TEST(Module, AddBusCreatesIndexedNets) {
  Module m("t");
  const auto bus = m.add_bus("d", 4);
  ASSERT_EQ(bus.size(), 4u);
  EXPECT_EQ(m.net(bus[2]).name, "d[2]");
  const auto pbus = m.add_port_bus("q", PortDir::kOut, 3);
  EXPECT_EQ(m.ports().size(), 3u);
  EXPECT_EQ(m.net(pbus[0]).name, "q[0]");
}

TEST(Module, RejectsInvalidNet) {
  Module m("t");
  EXPECT_THROW(m.add_cell("i0", "INVX1", {{"A", NetId{}}}),
               std::invalid_argument);
}

TEST(Design, DuplicateModuleRejected) {
  Design d;
  d.add_module(Module("m"));
  EXPECT_THROW(d.add_module(Module("m")), std::invalid_argument);
}

TEST(Design, ValidateFindsMissingSubmodule) {
  Design d;
  Module top("top");
  const NetId x = top.add_port("x", PortDir::kIn);
  top.add_submodule("u0", "missing", {{"A", x}});
  d.add_module(std::move(top));
  const auto problems = validate(d, "top");
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("unknown submodule"), std::string::npos);
}

TEST(Design, ValidateFindsBadPortAndDupName) {
  Design d;
  d.add_module(make_full_adder_module());
  Module top("top");
  const NetId x = top.add_port("x", PortDir::kIn);
  const NetId y = top.add_port("y", PortDir::kOut);
  top.add_submodule("u0", "fa_struct",
                    {{"A", x}, {"B", x}, {"CI", x}, {"S", y}, {"BAD", x}});
  top.add_cell("u0", "INVX1", {{"A", x}});  // duplicate instance name
  d.add_module(std::move(top));
  const auto problems = validate(d, "top");
  EXPECT_EQ(problems.size(), 2u);
}

TEST(Netlist, RecursiveHierarchyIsAFindingNotACrash) {
  // top -> a -> b -> a (mirrors examples/lint_recursive.v): before the
  // path check, validate passed it and flatten recursed until the stack
  // overflowed.
  Design d;
  Module top("top");
  const NetId in = top.add_port("in1", PortDir::kIn);
  const NetId out = top.add_port("out1", PortDir::kOut);
  top.add_submodule("u_a", "a", {{"x", in}, {"y", out}});
  d.add_module(std::move(top));
  for (const auto& [name, sub] : {std::pair{"a", "b"}, std::pair{"b", "a"}}) {
    Module m(name);
    const NetId x = m.add_port("x", PortDir::kIn);
    const NetId y = m.add_port("y", PortDir::kOut);
    m.add_submodule(std::string("u_") + sub, sub, {{"x", x}, {"y", y}});
    d.add_module(std::move(m));
  }

  const auto problems = validate(d, "top");
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("recursive instantiation top -> a -> b -> a"),
            std::string::npos)
      << problems[0];
  syndcim::core::DiagEngine diag;
  EXPECT_FALSE(validate(d, "top", diag));
  EXPECT_EQ(diag.count_rule("NET-RECURSIVE"), 1u);
  EXPECT_THROW((void)flatten(d, "top"), std::invalid_argument);
  // Rooted on the cycle itself, the path starts there.
  const auto from_a = validate(d, "a");
  ASSERT_EQ(from_a.size(), 1u);
  EXPECT_NE(from_a[0].find("recursive instantiation a -> b -> a"),
            std::string::npos)
      << from_a[0];
}

TEST(Flatten, SingleLevel) {
  Design d;
  d.add_module(make_full_adder_module());
  const FlatNetlist f = flatten(d, "fa_struct");
  EXPECT_EQ(f.gates().size(), 3u);
  EXPECT_EQ(f.primary_inputs().size(), 3u);
  EXPECT_EQ(f.primary_outputs().size(), 2u);
  // 5 port nets + 3 internal.
  EXPECT_EQ(f.net_count(), 8u);
  EXPECT_NO_THROW((void)f.input_net("CI"));
  EXPECT_THROW((void)f.input_net("S"), std::out_of_range);
  EXPECT_NO_THROW((void)f.output_net("S"));
}

TEST(Flatten, Hierarchical) {
  Design d;
  d.add_module(make_full_adder_module());
  Module top("rca2");
  const auto a = top.add_port_bus("a", PortDir::kIn, 2);
  const auto b = top.add_port_bus("b", PortDir::kIn, 2);
  const NetId ci = top.add_port("ci", PortDir::kIn);
  const auto s = top.add_port_bus("s", PortDir::kOut, 2);
  const NetId co = top.add_port("co", PortDir::kOut);
  const NetId c0 = top.add_net("c0");
  top.add_submodule("fa0", "fa_struct",
                    {{"A", a[0]}, {"B", b[0]}, {"CI", ci}, {"S", s[0]},
                     {"CO", c0}});
  top.add_submodule("fa1", "fa_struct",
                    {{"A", a[1]}, {"B", b[1]}, {"CI", c0}, {"S", s[1]},
                     {"CO", co}});
  d.add_module(std::move(top));
  const FlatNetlist f = flatten(d, "rca2");
  EXPECT_EQ(f.gates().size(), 6u);
  // Groups: top itself + fa0 + fa1.
  EXPECT_EQ(f.group_names().size(), 3u);
  EXPECT_EQ(f.group_names()[1], "fa0");
  // Nets: 8 top-level (a,b,s 2 each + ci + co) + c0 + per-FA internal 3.
  EXPECT_EQ(f.net_count(), 8u + 1u + 3u + 3u);
}

TEST(Flatten, SharedConstantsAcrossHierarchy) {
  Design d;
  Module leaf("leaf");
  const NetId y = leaf.add_port("Y", PortDir::kOut);
  leaf.add_cell("i0", "INVX1", {{"A", leaf.const0()}, {"Y", y}});
  d.add_module(std::move(leaf));
  Module top("top");
  const NetId o1 = top.add_port("o1", PortDir::kOut);
  const NetId o2 = top.add_port("o2", PortDir::kOut);
  top.add_submodule("u0", "leaf", {{"Y", o1}});
  top.add_submodule("u1", "leaf", {{"Y", o2}});
  top.add_cell("i0", "INVX1", {{"A", top.const0()}, {"Y", top.const1()}});
  d.add_module(std::move(top));
  const FlatNetlist f = flatten(d, "top");
  // All const0 nets collapse onto one flat net.
  std::uint32_t const0_net = UINT32_MAX;
  std::size_t const0_count = 0;
  for (std::uint32_t n = 0; n < f.net_count(); ++n) {
    if (f.net_const(n) == NetConst::kZero) {
      const0_net = n;
      ++const0_count;
    }
  }
  EXPECT_EQ(const0_count, 1u);
  std::size_t users = 0;
  for (const auto& g : f.gates()) {
    for (const auto& pc : g.pins) {
      if (pc.net == const0_net) ++users;
    }
  }
  EXPECT_EQ(users, 3u);
}

TEST(Flatten, UnconnectedInputThrows) {
  Design d;
  d.add_module(make_full_adder_module());
  Module top("top");
  const NetId x = top.add_port("x", PortDir::kIn);
  const NetId y = top.add_port("y", PortDir::kOut);
  top.add_submodule("u0", "fa_struct", {{"A", x}, {"S", y}});
  d.add_module(std::move(top));
  EXPECT_THROW((void)flatten(d, "top"), std::invalid_argument);
}

TEST(Flatten, UnconnectedOutputGetsDanglingNet) {
  Design d;
  d.add_module(make_full_adder_module());
  Module top("top");
  const NetId x = top.add_port("x", PortDir::kIn);
  const NetId y = top.add_port("y", PortDir::kOut);
  top.add_submodule("u0", "fa_struct",
                    {{"A", x}, {"B", x}, {"CI", x}, {"S", y}});  // CO open
  d.add_module(std::move(top));
  const FlatNetlist f = flatten(d, "top");
  EXPECT_EQ(f.gates().size(), 3u);
}

TEST(Flatten, MasterAndPinInterning) {
  Design d;
  d.add_module(make_full_adder_module());
  const FlatNetlist f = flatten(d, "fa_struct");
  // Two HAX1 gates share one interned master id.
  EXPECT_EQ(f.master_names().size(), 2u);  // HAX1, OR2X1
  int ha = 0;
  for (const auto& g : f.gates()) {
    if (f.master_names()[g.master] == "HAX1") ++ha;
  }
  EXPECT_EQ(ha, 2);
}

// Every expansion of a module after its first reuses the first one's
// master, pin and port lookups. Each copy must still get its own internal
// nets and follow its own instance's connections, whatever their pin
// order: two 2-bit ripple adders, each of two full adders.
TEST(Flatten, RepeatedExpansionsKeepTheirOwnConnections) {
  Design d;
  d.add_module(make_full_adder_module());
  Module rca("rca2");
  const NetId a = rca.add_port("a", PortDir::kIn);
  const NetId b = rca.add_port("b", PortDir::kIn);
  const NetId ci = rca.add_port("ci", PortDir::kIn);
  const NetId s0 = rca.add_port("s0", PortDir::kOut);
  const NetId s1 = rca.add_port("s1", PortDir::kOut);
  const NetId co = rca.add_port("co", PortDir::kOut);
  const NetId c = rca.add_net("c");
  rca.add_submodule("fa0", "fa_struct",
                    {{"A", a}, {"B", b}, {"CI", ci}, {"S", s0}, {"CO", c}});
  rca.add_submodule("fa1", "fa_struct",
                    {{"CO", co}, {"S", s1}, {"CI", c}, {"B", b}, {"A", a}});
  d.add_module(std::move(rca));
  Module top("top");
  std::vector<Conn> m0, m1;
  for (const std::string k : {"0", "1"}) {
    std::vector<Conn>& cs = k == "0" ? m0 : m1;
    for (const char* in : {"a", "b", "ci"}) {
      cs.push_back({in, top.add_port(in + k, PortDir::kIn)});
    }
    for (const char* out : {"s0", "s1", "co"}) {
      cs.push_back({out, top.add_port(out + k, PortDir::kOut)});
    }
  }
  std::reverse(m1.begin(), m1.end());  // m1 lists its pins backwards
  top.add_submodule("m0", "rca2", m0);
  top.add_submodule("m1", "rca2", m1);
  d.add_module(std::move(top));

  const FlatNetlist f = flatten(d, "top");
  // 12 top ports, then per adder pair its carry and 3 nets per adder.
  EXPECT_EQ(f.net_count(), 12u + 2u * (1u + 2u * 3u));
  // Gates in instance order: m0.fa0, m0.fa1, m1.fa0, m1.fa1, each
  // ha0, ha1, or0.
  ASSERT_EQ(f.gates().size(), 12u);
  auto net = [&](std::size_t g, const std::string& pin) {
    for (const auto& pc : f.gates()[g].pins) {
      if (f.pin_names()[pc.pin_name] == pin) return pc.net;
    }
    ADD_FAILURE() << "gate " << g << " has no pin " << pin;
    return UINT32_MAX;
  };
  for (std::size_t r = 0; r < 2; ++r) {
    const std::string k = std::to_string(r);
    const std::size_t fa0 = 6 * r, fa1 = fa0 + 3;
    EXPECT_EQ(f.gates()[fa0].group, r + 1);
    EXPECT_EQ(f.gates()[fa1 + 2].group, r + 1);
    for (const std::size_t fa : {fa0, fa1}) {
      EXPECT_EQ(net(fa, "A"), f.input_net("a" + k)) << r;
      EXPECT_EQ(net(fa, "B"), f.input_net("b" + k)) << r;
      // The adder's own internal net joins its two half adders.
      EXPECT_EQ(net(fa, "S"), net(fa + 1, "A")) << r;
    }
    EXPECT_NE(net(fa0, "S"), net(fa1, "S")) << r;
    EXPECT_EQ(net(fa0 + 1, "B"), f.input_net("ci" + k)) << r;
    EXPECT_EQ(net(fa0 + 1, "S"), f.output_net("s0" + k)) << r;
    EXPECT_EQ(net(fa1 + 1, "S"), f.output_net("s1" + k)) << r;
    // fa0's carry out is fa1's carry in.
    EXPECT_EQ(net(fa0 + 2, "Y"), net(fa1 + 1, "B")) << r;
    EXPECT_EQ(net(fa1 + 2, "Y"), f.output_net("co" + k)) << r;
  }
  EXPECT_NE(net(2, "Y"), net(8, "Y"));
  EXPECT_NE(net(0, "S"), net(6, "S"));
}

/// Parses `src` (recording findings in `diag`) and prints module `top`
/// back with write_verilog.
std::string reprint(const std::string& src, syndcim::core::DiagEngine& diag) {
  std::istringstream is(src);
  const Design d = parse_verilog(is, &diag);
  std::ostringstream os;
  write_verilog(d, "top", os);
  return os.str();
}

TEST(VerilogParser, AnsiPortListMatchesBodyDeclarations) {
  const std::string body =
      "  wire n1;\n"
      "  AND2X1 u1(.A(a), .B(b), .Y(n1));\n"
      "  BUFX1 u2(.A(n1), .Y(y));\n"
      "endmodule\n";
  syndcim::core::DiagEngine diag;
  const std::string want = reprint(
      "module top(a, b, y);\n  input a;\n  input b;\n  output y;\n" + body,
      diag);
  // A direction applies to every name after it, up to the next one.
  EXPECT_EQ(reprint("module top(input a, input b, output y);\n" + body, diag),
            want);
  EXPECT_EQ(reprint("module top(input a, b, output y);\n" + body, diag),
            want);
  EXPECT_EQ(diag.error_count(), 0u) << diag.summary();
  EXPECT_NE(want.find("input a;"), std::string::npos) << want;
  EXPECT_NE(want.find("output y;"), std::string::npos) << want;
}

}  // namespace
