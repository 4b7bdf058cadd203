// The netlist-to-library binding every analysis engine builds from: one
// table of malformed netlists refused by each engine under its own name,
// and the binding of the reference macro checked against its flat
// connections.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cell/bind.hpp"
#include "cell/characterize.hpp"
#include "netlist/design.hpp"
#include "netlist/flatten.hpp"
#include "power/power.hpp"
#include "rtlgen/macro.hpp"
#include "sim/gate_sim.hpp"
#include "sim/scalar_ref.hpp"
#include "sta/sta.hpp"
#include "tech/tech_node.hpp"

namespace {
using namespace syndcim;
using netlist::PortDir;

const cell::Library& lib() {
  static const cell::Library l =
      cell::characterize_default_library(tech::make_default_40nm());
  return l;
}

/// One malformed netlist: `build` fills module "bad"; every engine named
/// in `engines` must refuse it with a message starting with its name and
/// containing `what`.
struct BadNetlist {
  const char* name;
  std::function<void(netlist::Module&)> build;
  const char* what;
  std::vector<std::string> engines;
};

void run_engine(const std::string& engine, const netlist::FlatNetlist& flat) {
  if (engine == "StaEngine") {
    (void)sta::StaEngine(flat, lib());
  } else if (engine == "GateSim") {
    (void)sim::GateSim(flat, lib());
  } else if (engine == "ScalarGateSim") {
    (void)sim::ScalarGateSim(flat, lib());
  } else {
    power::ActivityModel am;
    am.toggle_rate.assign(flat.net_count(), 0.0);
    am.p_one.assign(flat.net_count(), 0.5);
    (void)power::analyze_power(flat, lib(), am, {});
  }
}

TEST(Bind, EveryEngineRefusesMalformedNetlists) {
  const std::vector<std::string> all = {"StaEngine", "GateSim",
                                        "ScalarGateSim", "analyze_power"};
  const std::vector<BadNetlist> rows = {
      {"unknown pin",
       [](netlist::Module& m) {
         const auto a = m.add_port("a", PortDir::kIn);
         const auto y = m.add_port("y", PortDir::kOut);
         m.add_cell("i0", "INVX1", {{"A", a}, {"Y", y}, {"Z", a}});
       },
       "cell INVX1 has no pin Z", all},
      {"unconnected input",
       [](netlist::Module& m) {
         const auto y = m.add_port("y", PortDir::kOut);
         m.add_cell("i0", "INVX1", {{"Y", y}});
       },
       "input pin A is unconnected", all},
      {"two drivers",
       [](netlist::Module& m) {
         const auto a = m.add_port("a", PortDir::kIn);
         const auto y = m.add_port("y", PortDir::kOut);
         m.add_cell("i0", "INVX1", {{"A", a}, {"Y", y}});
         m.add_cell("i1", "INVX1", {{"A", a}, {"Y", y}});
       },
       "already driven by gate bad/INVX1#0", all},
      {"combinational loop",
       [](netlist::Module& m) {
         const auto a = m.add_net("a");
         const auto b = m.add_net("b");
         m.add_cell("i0", "INVX1", {{"A", a}, {"Y", b}});
         m.add_cell("i1", "INVX1", {{"A", b}, {"Y", a}});
       },
       "combinational loop detected", {"StaEngine", "GateSim",
                                       "ScalarGateSim"}},
  };
  for (const BadNetlist& row : rows) {
    netlist::Design d;
    netlist::Module m("bad");
    row.build(m);
    d.add_module(std::move(m));
    const auto flat = netlist::flatten(d, "bad");
    for (const std::string& engine : row.engines) {
      try {
        run_engine(engine, flat);
        ADD_FAILURE() << row.name << ": " << engine << " accepted it";
      } catch (const std::invalid_argument& e) {
        const std::string msg = e.what();
        EXPECT_EQ(msg.rfind(engine + ": ", 0), 0u) << row.name << ": " << msg;
        EXPECT_NE(msg.find(row.what), std::string::npos)
            << row.name << ": " << msg;
      }
    }
  }
}

TEST(Bind, ReferenceMacroMatchesItsFlatConnections) {
  rtlgen::MacroConfig cfg;
  cfg.rows = 64;
  cfg.cols = 64;
  cfg.mcr = 2;
  cfg.input_bits = {4, 8};
  cfg.weight_bits = {4, 8};
  const auto md = rtlgen::gen_macro(cfg);
  const auto flat = netlist::flatten(md.design, md.top);
  const cell::Binding b = cell::bind(flat, lib(), "test");

  ASSERT_EQ(b.cells.size(), flat.gates().size());
  ASSERT_EQ(b.driver.size(), flat.net_count());
  std::vector<std::int32_t> driver(flat.net_count(), -1);
  for (std::uint32_t g = 0; g < flat.gates().size(); ++g) {
    const auto& fg = flat.gates()[g];
    const cell::Cell& c = *b.cells[g];
    ASSERT_EQ(&c, &lib().get(flat.master_names()[fg.master])) << g;
    const auto nets = b.nets(g);
    ASSERT_EQ(nets.size(), c.pins.size()) << g;
    std::size_t connected = 0;
    for (const std::uint32_t n : nets) connected += n != cell::kNoNet;
    EXPECT_EQ(connected, fg.pins.size()) << g;
    for (const auto& pc : fg.pins) {
      const int pi = b.table.pin(fg.master, pc.pin_name);
      ASSERT_GE(pi, 0) << g;
      const auto p = static_cast<std::size_t>(pi);
      EXPECT_EQ(c.pins[p].name, flat.pin_names()[pc.pin_name]) << g;
      EXPECT_EQ(nets[p], pc.net) << g;
      if (!c.pins[p].is_input) driver[pc.net] = static_cast<std::int32_t>(g);
    }
  }
  EXPECT_EQ(b.driver, driver);
}

}  // namespace
