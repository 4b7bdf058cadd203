#include <gtest/gtest.h>

#include <cmath>

#include "cell/characterize.hpp"
#include "layout/floorplan.hpp"
#include "layout/route.hpp"
#include "netlist/flatten.hpp"
#include "rtlgen/macro.hpp"
#include "tech/tech_node.hpp"

namespace {
using namespace syndcim;

const cell::Library& lib() {
  static const cell::Library l =
      cell::characterize_default_library(tech::make_default_40nm());
  return l;
}

rtlgen::MacroConfig tiny_cfg() {
  rtlgen::MacroConfig cfg;
  cfg.rows = 16;
  cfg.cols = 8;
  cfg.mcr = 2;
  cfg.input_bits = {4};
  cfg.weight_bits = {4};
  return cfg;
}

struct Built {
  rtlgen::MacroDesign md;
  netlist::FlatNetlist flat;
};

Built build(const rtlgen::MacroConfig& cfg) {
  Built b{rtlgen::gen_macro(cfg), {}};
  b.flat = netlist::flatten(b.md.design, b.md.top);
  return b;
}

TEST(Layout, SdpPlacesEverythingDrcLvsClean) {
  const auto cfg = tiny_cfg();
  const auto b = build(cfg);
  const auto fp = layout::sdp_place(b.flat, lib(), cfg);
  for (std::size_t g = 0; g < b.flat.gates().size(); ++g) {
    EXPECT_TRUE(fp.placed[g]) << g;
  }
  const auto drc = layout::run_drc(b.flat, lib(), fp);
  EXPECT_TRUE(drc.clean()) << (drc.violations.empty()
                                   ? ""
                                   : drc.violations[0]);
  const auto lvs = layout::run_lvs(b.flat, lib(), fp);
  EXPECT_TRUE(lvs.clean()) << (lvs.mismatches.empty() ? ""
                                                      : lvs.mismatches[0]);
  EXPECT_GT(fp.utilization, 0.3);
  EXPECT_LE(fp.utilization, 1.0);
  EXPECT_GT(fp.wirelength_um, 0.0);
}

TEST(Layout, RegionsAreStructured) {
  const auto cfg = tiny_cfg();
  const auto b = build(cfg);
  const auto fp = layout::sdp_place(b.flat, lib(), cfg);
  ASSERT_NE(fp.region("col0"), nullptr);
  ASSERT_NE(fp.region("col7"), nullptr);
  ASSERT_NE(fp.region("wldrv"), nullptr);
  ASSERT_NE(fp.region("wrport"), nullptr);
  ASSERT_NE(fp.region("ofu_g0"), nullptr);
  // Columns tile left to right at a uniform pitch.
  const double pitch = fp.region("col1")->rect.x - fp.region("col0")->rect.x;
  for (int c = 1; c < 8; ++c) {
    const auto* r = fp.region("col" + std::to_string(c));
    ASSERT_NE(r, nullptr);
    EXPECT_NEAR(r->rect.x - fp.region("col" + std::to_string(c - 1))->rect.x,
                pitch, 1e-6);
  }
  // WL driver sits left of the array.
  EXPECT_LE(fp.region("wldrv")->rect.x2(),
            fp.region("col0")->rect.x + 1e-6);
}

TEST(Layout, BitcellsOnRegularGrid) {
  const auto cfg = tiny_cfg();
  const auto b = build(cfg);
  const auto fp = layout::sdp_place(b.flat, lib(), cfg);
  const auto& bc = lib().get("SRAM6T");
  // All bitcell rects have the bitcell footprint and y positions that are
  // multiples of the bitcell height relative to the array origin.
  double array_y0 = 1e30;
  std::vector<std::size_t> cells;
  for (std::size_t g = 0; g < b.flat.gates().size(); ++g) {
    if (b.flat.master_names()[b.flat.gates()[g].master] == "SRAM6T") {
      cells.push_back(g);
      array_y0 = std::min(array_y0, fp.gate_rects[g].y);
    }
  }
  ASSERT_EQ(cells.size(), 256u);
  for (const std::size_t g : cells) {
    const auto& r = fp.gate_rects[g];
    EXPECT_NEAR(r.w, bc.width_um, 1e-9);
    const double rel = (r.y - array_y0) / bc.height_um;
    EXPECT_NEAR(rel, std::round(rel), 1e-6);
  }
}

TEST(Layout, SdpBeatsScatteredOnWirelength) {
  // At realistic macro sizes, datapath connectivity is strip-local so the
  // structured placement wins clearly; tiny toy macros are too compact to
  // show it, hence 64x16.
  rtlgen::MacroConfig cfg = tiny_cfg();
  cfg.rows = 64;
  cfg.cols = 16;
  const auto b = build(cfg);
  const auto sdp = layout::sdp_place(b.flat, lib(), cfg);
  const auto rnd = layout::scattered_place(b.flat, lib(), 1);
  EXPECT_LT(sdp.wirelength_um, rnd.wirelength_um);
}

TEST(Layout, ScatteredIsDrcCleanToo) {
  const auto cfg = tiny_cfg();
  const auto b = build(cfg);
  const auto fp = layout::scattered_place(b.flat, lib(), 7);
  const auto drc = layout::run_drc(b.flat, lib(), fp);
  EXPECT_TRUE(drc.clean()) << (drc.violations.empty()
                                   ? ""
                                   : drc.violations[0]);
}

TEST(Layout, WireModelBackAnnotation) {
  const auto cfg = tiny_cfg();
  const auto b = build(cfg);
  const auto fp = layout::sdp_place(b.flat, lib(), cfg);
  const auto wm = layout::extract_wire_model(b.flat, lib(), fp);
  ASSERT_EQ(wm.per_net_cap_ff.size(), b.flat.net_count());
  double total = 0.0;
  for (const double c : wm.per_net_cap_ff) {
    EXPECT_GE(c, 0.0);
    total += c;
  }
  EXPECT_GT(total, 0.0);
  // Roughly consistent with wirelength * cap-per-um (Steiner factor >= 1).
  EXPECT_GE(total, fp.wirelength_um * lib().node().wire_c_ff_per_um * 0.99);
}

TEST(Layout, DrcCatchesInjectedOverlap) {
  const auto cfg = tiny_cfg();
  const auto b = build(cfg);
  auto fp = layout::sdp_place(b.flat, lib(), cfg);
  fp.gate_rects[1] = fp.gate_rects[0];  // force overlap
  const auto drc = layout::run_drc(b.flat, lib(), fp);
  EXPECT_FALSE(drc.clean());
}

TEST(Layout, LvsCatchesFootprintMismatch) {
  const auto cfg = tiny_cfg();
  const auto b = build(cfg);
  auto fp = layout::sdp_place(b.flat, lib(), cfg);
  fp.gate_rects[0].w += 1.0;
  EXPECT_FALSE(layout::run_lvs(b.flat, lib(), fp).clean());
  fp.placed[0] = 0;
  EXPECT_FALSE(layout::run_lvs(b.flat, lib(), fp).clean());
}

TEST(Layout, OutlineScalesWithMacroSize) {
  auto area_of = [&](int rows, int cols) {
    rtlgen::MacroConfig cfg = tiny_cfg();
    cfg.rows = rows;
    cfg.cols = cols;
    const auto b = build(cfg);
    return layout::sdp_place(b.flat, lib(), cfg).outline.area();
  };
  const double a16 = area_of(16, 8);
  const double a32 = area_of(32, 16);
  EXPECT_GT(a32, a16 * 2.2);  // ~4x cells, peripheral overhead amortizes
}

TEST(Layout, RejectsNonMacroNetlist) {
  netlist::Design d;
  netlist::Module m("top");
  const auto a = m.add_port("a", netlist::PortDir::kIn);
  const auto y = m.add_port("y", netlist::PortDir::kOut);
  m.add_cell("i", "INVX1", {{"A", a}, {"Y", y}});
  d.add_module(std::move(m));
  const auto flat = netlist::flatten(d, "top");
  EXPECT_THROW((void)layout::sdp_place(flat, lib(), tiny_cfg()),
               std::invalid_argument);
}

}  // namespace

namespace {
using namespace syndcim;

TEST(GlobalRoute, SdpMacroCongestionIsHealthy) {
  const auto cfg = tiny_cfg();
  const auto b = build(cfg);
  const auto fp = layout::sdp_place(b.flat, lib(), cfg);
  const auto rr = layout::global_route(b.flat, fp, lib().node());
  EXPECT_GT(rr.total_routed_um, 0.0);
  // One-trunk Steiner tracks the HPWL closely (intra-row jogs excluded).
  EXPECT_GE(rr.total_routed_um, fp.wirelength_um * 0.9);
  EXPECT_LE(rr.total_routed_um, fp.wirelength_um * 1.5);
  EXPECT_GT(rr.grid.capacity, 0u);
  // Average congestion is low; isolated hotspots (converging accumulator
  // buses) stay within what detouring absorbs.
  EXPECT_LT(rr.avg_utilization, 0.6);
  const double hot_fraction =
      static_cast<double>(rr.overflow_gcells) /
      (static_cast<double>(rr.grid.nx) * rr.grid.ny);
  EXPECT_LT(hot_fraction, 0.25);
}

TEST(GlobalRoute, ScatteredPlacementIsMoreCongested) {
  rtlgen::MacroConfig cfg = tiny_cfg();
  cfg.rows = 64;
  cfg.cols = 16;
  const auto b = build(cfg);
  const auto sdp = layout::sdp_place(b.flat, lib(), cfg);
  const auto rnd = layout::scattered_place(b.flat, lib(), 3);
  const auto r1 = layout::global_route(b.flat, sdp, lib().node());
  const auto r2 = layout::global_route(b.flat, rnd, lib().node());
  EXPECT_LT(r1.total_routed_um, r2.total_routed_um);
  EXPECT_LE(r1.max_utilization, r2.max_utilization * 1.5);
}

TEST(GlobalRoute, TightCapacityOverflows) {
  const auto cfg = tiny_cfg();
  const auto b = build(cfg);
  const auto fp = layout::sdp_place(b.flat, lib(), cfg);
  // Starve the router of tracks: overflow must be detected.
  const auto rr = layout::global_route(b.flat, fp, lib().node(), 10.0, 0.02);
  EXPECT_FALSE(rr.routable());
  EXPECT_GT(rr.max_utilization, 1.0);
  EXPECT_THROW(
      (void)layout::global_route(b.flat, fp, lib().node(), -1.0, 0.5),
      std::invalid_argument);
}

}  // namespace
