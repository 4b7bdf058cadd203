// Tests of the src/netmap subsystem: model ingestion diagnostics
// (NETMAP-* rules), tiler exactness against analytic op counts,
// scheduler cycle conservation, candidate pools (in-memory and persisted
// frontier JSON round-trip, stable point_ids), the two-stage fleet
// allocator's budget/energy guarantees, and byte-identical report JSON
// across sweep thread counts.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "cell/characterize.hpp"
#include "core/diag.hpp"
#include "dse/sweep.hpp"
#include "netmap/model.hpp"
#include "netmap/netmap.hpp"
#include "netmap/tile.hpp"
#include "tech/tech_node.hpp"

using namespace syndcim;

namespace {

/// True when some diagnostic carries `rule`.
bool has_rule(const core::DiagEngine& diag, const std::string& rule) {
  for (const auto& d : diag.diags()) {
    if (d.rule == rule) return true;
  }
  return false;
}

netmap::Layer make_layer(const std::string& name, long m, long k, long n,
                         int ib = 8, int wb = 8) {
  netmap::Layer l;
  l.name = name;
  l.m = m;
  l.k = k;
  l.n = n;
  l.input_bits = ib;
  l.weight_bits = wb;
  return l;
}

/// A synthetic macro type for allocator tests — no sweep needed.
netmap::MacroCandidate make_cand(const std::string& id, int rows, int cols,
                                 int mcr, std::vector<int> bits,
                                 double mac_mhz, double wupdate_mhz,
                                 double power_uw, double area_um2) {
  netmap::MacroCandidate c;
  c.point_id = id;
  c.label = id;
  c.rows = rows;
  c.cols = cols;
  c.mcr = mcr;
  c.input_bits = bits;
  c.weight_bits = std::move(bits);
  c.mac_mhz = mac_mhz;
  c.wupdate_mhz = wupdate_mhz;
  c.fmax_mhz = mac_mhz;
  c.power_uw = power_uw;
  c.area_um2 = area_um2;
  c.latency_cycles = 4;
  return c;
}

/// One small shared sweep for the frontier-based tests (characterization
/// is the slow part; every test reuses this report).
const dse::SweepReport& small_sweep(int threads = 2) {
  static const dse::SweepReport rep = [] {
    const auto lib =
        cell::characterize_default_library(tech::make_default_40nm());
    const std::map<std::string, std::string> kv = {
        {"rows", "32"},           {"cols", "32"},
        {"input_bits", "4,8"},    {"weight_bits", "4,8"},
        {"sweep_mac_mhz", "320"}, {"sweep_mcr", "1,2"}};
    dse::SweepOptions opt;
    opt.threads = 2;
    opt.lint_frontier = false;
    return dse::run_sweep(lib, dse::grid_from_kv(kv).expand(), opt);
  }();
  (void)threads;
  return rep;
}

// ---------------------------------------------------------------------------
// Model ingestion
// ---------------------------------------------------------------------------

TEST(NetmapModel, ParsesEveryKindAndLowersToGemm) {
  const std::string doc = R"({
    "format": "syndcim-model", "version": 1, "name": "net",
    "layers": [
      {"name": "c", "kind": "conv", "out_pixels": 100, "kernel": 3,
       "in_channels": 8, "out_channels": 16, "input_density": 0.5},
      {"name": "l", "kind": "linear", "batch": 4, "in_features": 64,
       "out_features": 10, "input_bits": 4, "weight_bits": 4},
      {"name": "a", "kind": "attention", "seq_len": 32, "model_dim": 64,
       "heads": 4}
    ]})";
  core::DiagEngine diag;
  const netmap::Model m = netmap::parse_model(doc, diag, "t");
  ASSERT_FALSE(diag.has_errors()) << diag.summary();
  ASSERT_EQ(m.layers.size(), 3u);
  EXPECT_EQ(m.name, "net");
  // conv: m = pixels, k = kernel^2 * cin, n = cout.
  EXPECT_EQ(m.layers[0].m, 100);
  EXPECT_EQ(m.layers[0].k, 72);
  EXPECT_EQ(m.layers[0].n, 16);
  EXPECT_DOUBLE_EQ(m.layers[0].input_density, 0.5);
  // linear: m = batch, k = in, n = out.
  EXPECT_EQ(m.layers[1].m, 4);
  EXPECT_EQ(m.layers[1].k, 64);
  EXPECT_EQ(m.layers[1].n, 10);
  EXPECT_EQ(m.layers[1].input_bits, 4);
  // attention: fused QKV projection, n = 3 * model_dim.
  EXPECT_EQ(m.layers[2].m, 32);
  EXPECT_EQ(m.layers[2].k, 64);
  EXPECT_EQ(m.layers[2].n, 192);
  EXPECT_EQ(m.total_macs(), 100L * 72 * 16 + 4L * 64 * 10 + 32L * 64 * 192);
}

TEST(NetmapModel, ReportsEveryDefectInOnePass) {
  const std::string doc = R"({
    "format": "syndcim-model", "version": 1,
    "layers": [
      {"name": "x", "kind": "warp"},
      {"name": "s", "kind": "conv", "out_pixels": 0, "kernel": 3,
       "in_channels": 1, "out_channels": 1},
      {"name": "p", "kind": "linear", "in_features": 8, "out_features": 8,
       "input_bits": 17},
      {"name": "d", "kind": "linear", "in_features": 8, "out_features": 8,
       "input_density": 1.5},
      {"name": "d", "kind": "linear", "in_features": 8, "out_features": 8},
      {"name": "h", "kind": "attention", "seq_len": 8, "model_dim": 30,
       "heads": 4}
    ]})";
  core::DiagEngine diag;
  (void)netmap::parse_model(doc, diag, "t");
  EXPECT_TRUE(diag.has_errors());
  EXPECT_TRUE(has_rule(diag, "NETMAP-BADKIND"));
  EXPECT_TRUE(has_rule(diag, "NETMAP-BADSHAPE"));      // out_pixels 0, heads
  EXPECT_TRUE(has_rule(diag, "NETMAP-BADPRECISION"));  // input_bits 17
  EXPECT_TRUE(has_rule(diag, "NETMAP-BADDENSITY"));    // density 1.5
  EXPECT_TRUE(has_rule(diag, "NETMAP-DUPLAYER"));      // second "d"
}

TEST(NetmapModel, RejectsBadDocuments) {
  core::DiagEngine d1;
  (void)netmap::parse_model("not json", d1);
  EXPECT_TRUE(has_rule(d1, "NETMAP-BADJSON"));

  core::DiagEngine d2;
  (void)netmap::parse_model(R"({"format": "other", "version": 1})", d2);
  EXPECT_TRUE(has_rule(d2, "NETMAP-BADFORMAT"));

  core::DiagEngine d3;
  (void)netmap::parse_model(
      R"({"format": "syndcim-model", "version": 1, "layers": []})", d3);
  EXPECT_TRUE(has_rule(d3, "NETMAP-NOLAYERS"));

  core::DiagEngine d4;
  (void)netmap::parse_model_file("/nonexistent/model.json", d4);
  EXPECT_TRUE(has_rule(d4, "NETMAP-BADJSON"));
}

TEST(NetmapModel, WarnsOnUnknownMembersButStillParses) {
  const std::string doc = R"({
    "format": "syndcim-model", "version": 1, "stride": 2,
    "layers": [{"name": "l", "kind": "linear", "in_features": 8,
                "out_features": 8, "padding": 1}]})";
  core::DiagEngine diag;
  const netmap::Model m = netmap::parse_model(doc, diag);
  EXPECT_FALSE(diag.has_errors());
  EXPECT_TRUE(has_rule(diag, "NETMAP-UNKNOWNKEY"));
  EXPECT_EQ(m.layers.size(), 1u);
}

// ---------------------------------------------------------------------------
// Tiler
// ---------------------------------------------------------------------------

TEST(NetmapTile, GridCoversGemmExactly) {
  const netmap::Layer l = make_layer("l", 7, 100, 10);
  const netmap::TileGrid g = netmap::tile_layer(l, 64, 64, 8);
  EXPECT_EQ(g.rows, 64);
  EXPECT_EQ(g.outs_per_tile, 8);  // 64 cols / 8 weight bits
  EXPECT_EQ(g.k_tiles, 2);        // ceil(100 / 64)
  EXPECT_EQ(g.n_tiles, 2);        // ceil(10 / 8)
  EXPECT_EQ(g.tail_k, 36);
  EXPECT_EQ(g.tail_n, 2);
  EXPECT_EQ(g.tiles(), 4);
  // Exact coverage, no overlap: tiles account for every (k, n) element.
  EXPECT_EQ((g.k_tiles - 1) * g.rows + g.tail_k, l.k);
  EXPECT_EQ((g.n_tiles - 1) * g.outs_per_tile + g.tail_n, l.n);
}

TEST(NetmapTile, ExactDivisionHasFullTails) {
  const netmap::TileGrid g =
      netmap::tile_layer(make_layer("l", 1, 128, 16), 64, 64, 4);
  EXPECT_EQ(g.k_tiles, 2);
  EXPECT_EQ(g.tail_k, 64);
  EXPECT_EQ(g.n_tiles, 1);
  EXPECT_EQ(g.tail_n, 16);
}

TEST(NetmapTile, ThrowsOnDegenerateMacro) {
  EXPECT_THROW((void)netmap::tile_layer(make_layer("l", 1, 8, 8), 64, 4, 8),
               std::invalid_argument);  // cols < weight_bits
  EXPECT_THROW((void)netmap::tile_layer(make_layer("l", 1, 8, 8), 0, 64, 8),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

TEST(NetmapSchedule, ConservesCycleCounts) {
  const netmap::Layer l = make_layer("l", 10, 100, 20, 8, 8);
  const netmap::TileGrid g = netmap::tile_layer(l, 64, 64, 8);
  netmap::MacroTiming t;
  t.mac_mhz = 400.0;
  t.wupdate_mhz = 200.0;
  t.mcr = 1;
  t.latency_cycles = 4;
  for (const int count : {1, 2, 3, 7}) {
    const netmap::LayerSchedule s = netmap::schedule_layer(l, g, t, count);
    EXPECT_EQ(s.tiles, g.tiles());
    EXPECT_EQ(s.mac_cycles_per_tile, l.m * (l.input_bits + 1));
    EXPECT_EQ(s.load_cycles_per_tile, 2 * g.rows);
    EXPECT_EQ(s.total_mac_cycles, s.tiles * s.mac_cycles_per_tile);
    EXPECT_EQ(s.total_load_cycles, s.tiles * s.load_cycles_per_tile);
    EXPECT_GE(s.dead_cycles, 0.0);
    EXPECT_GT(s.time_us, 0.0);
  }
}

TEST(NetmapSchedule, ClampsUnusedMacros) {
  const netmap::Layer l = make_layer("l", 4, 32, 4, 4, 4);
  const netmap::TileGrid g = netmap::tile_layer(l, 64, 64, 4);
  ASSERT_EQ(g.tiles(), 1);
  netmap::MacroTiming t;
  t.mac_mhz = 100.0;
  t.wupdate_mhz = 100.0;
  const netmap::LayerSchedule s = netmap::schedule_layer(l, g, t, 8);
  EXPECT_EQ(s.n_used, 1);  // one tile cannot spread over 8 macros
  EXPECT_EQ(s.tiles_busiest, 1);
}

TEST(NetmapSchedule, DoubleBufferingHidesLoads) {
  const netmap::Layer l = make_layer("l", 200, 512, 64, 8, 8);
  const netmap::TileGrid g = netmap::tile_layer(l, 64, 64, 8);
  ASSERT_GT(g.tiles(), 1);
  netmap::MacroTiming serial;
  serial.mac_mhz = 400.0;
  serial.wupdate_mhz = 400.0;
  serial.mcr = 1;
  netmap::MacroTiming dbuf = serial;
  dbuf.mcr = 2;
  const netmap::LayerSchedule ss = netmap::schedule_layer(l, g, serial, 1);
  const netmap::LayerSchedule ds = netmap::schedule_layer(l, g, dbuf, 1);
  EXPECT_FALSE(ss.double_buffered);
  EXPECT_TRUE(ds.double_buffered);
  EXPECT_LT(ds.exposed_load_us, ss.exposed_load_us);
  EXPECT_LT(ds.time_us, ss.time_us);
  // Same work either way — only the overlap differs.
  EXPECT_EQ(ds.total_mac_cycles, ss.total_mac_cycles);
  EXPECT_EQ(ds.total_load_cycles, ss.total_load_cycles);
}

TEST(NetmapSchedule, MoreMacrosNeverSlower) {
  const netmap::Layer l = make_layer("l", 50, 400, 100, 8, 8);
  const netmap::TileGrid g = netmap::tile_layer(l, 64, 64, 8);
  netmap::MacroTiming t;
  t.mac_mhz = 400.0;
  t.wupdate_mhz = 200.0;
  t.mcr = 2;
  double prev = 1e300;
  for (int count = 1; count <= 8; ++count) {
    const double now = netmap::schedule_layer(l, g, t, count).time_us;
    EXPECT_LE(now, prev + 1e-9) << "count " << count;
    prev = now;
  }
}

// ---------------------------------------------------------------------------
// Candidates
// ---------------------------------------------------------------------------

TEST(NetmapCandidates, EffectivePrecisionRoundsUp) {
  const netmap::MacroCandidate c =
      make_cand("c", 64, 64, 2, {4, 8}, 400, 400, 1000, 50000);
  EXPECT_EQ(c.effective_input_bits(3), 4);
  EXPECT_EQ(c.effective_input_bits(4), 4);
  EXPECT_EQ(c.effective_input_bits(5), 8);
  EXPECT_EQ(c.effective_input_bits(9), -1);
  EXPECT_TRUE(c.supports(make_layer("l", 1, 8, 8, 8, 8)));
  EXPECT_FALSE(c.supports(make_layer("l", 1, 8, 8, 12, 8)));
  EXPECT_FALSE(c.supports(make_layer("l", 1, 8, 8, 8, 12)));
}

TEST(NetmapCandidates, FrontierPointsCarryStableUniqueIds) {
  const dse::SweepReport& rep = small_sweep();
  ASSERT_FALSE(rep.frontier.empty());
  std::set<std::string> ids;
  for (const dse::FrontierPoint& fp : rep.frontier) {
    EXPECT_EQ(fp.point_id.size(), 16u) << "hex-64 content hash";
    // Recomputing from the config + producing spec reproduces the id.
    EXPECT_EQ(fp.point_id,
              dse::frontier_point_id(fp.point.cfg,
                                     rep.per_spec[fp.spec_index].spec));
    EXPECT_TRUE(ids.insert(fp.point_id).second)
        << "duplicate point_id " << fp.point_id;
  }
}

TEST(NetmapCandidates, PersistedFrontierRoundTrips) {
  const dse::SweepReport& rep = small_sweep();
  const auto direct = netmap::candidates_from_frontier(rep);
  ASSERT_FALSE(direct.empty());

  core::DiagEngine diag;
  const auto parsed = netmap::candidates_from_frontier_json(
      dse::sweep_frontier_json(rep), diag, "t");
  ASSERT_FALSE(diag.has_errors()) << diag.summary();
  ASSERT_EQ(parsed.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(parsed[i].point_id, direct[i].point_id);
    EXPECT_EQ(parsed[i].label, direct[i].label);
    EXPECT_EQ(parsed[i].rows, direct[i].rows);
    EXPECT_EQ(parsed[i].cols, direct[i].cols);
    EXPECT_EQ(parsed[i].mcr, direct[i].mcr);
    EXPECT_EQ(parsed[i].input_bits, direct[i].input_bits);
    EXPECT_EQ(parsed[i].weight_bits, direct[i].weight_bits);
    EXPECT_DOUBLE_EQ(parsed[i].mac_mhz, direct[i].mac_mhz);
    EXPECT_DOUBLE_EQ(parsed[i].wupdate_mhz, direct[i].wupdate_mhz);
    EXPECT_DOUBLE_EQ(parsed[i].power_uw, direct[i].power_uw);
    EXPECT_DOUBLE_EQ(parsed[i].area_um2, direct[i].area_um2);
  }
}

TEST(NetmapCandidates, RejectsFrontierWithoutMacroBlock) {
  core::DiagEngine diag;
  (void)netmap::candidates_from_frontier_json(
      R"({"format": "syndcim-frontier", "version": 1,
          "points": [{"label": "x", "power_uw": 1}]})",
      diag, "t");
  EXPECT_TRUE(has_rule(diag, "NETMAP-BADFRONTIER"));
}

// ---------------------------------------------------------------------------
// Fleet allocation
// ---------------------------------------------------------------------------

netmap::Model two_layer_model() {
  netmap::Model m;
  m.name = "two";
  // A compute-dominated layer (large m) and a load-dominated one (one
  // pass over many tiles) — they prefer different macro types.
  m.layers.push_back(make_layer("compute", 2000, 64, 16, 8, 8));
  m.layers.push_back(make_layer("load", 1, 2048, 64, 8, 8));
  return m;
}

std::vector<netmap::MacroCandidate> diverse_pool() {
  return {
      // Low power, serial loads: best energy on compute-bound layers.
      make_cand("frugal", 64, 64, 1, {4, 8}, 200, 100, 800, 40000),
      // Double-buffered, fast weight port: wins load-bound layers.
      make_cand("streamer", 64, 64, 2, {4, 8}, 400, 800, 2000, 60000),
  };
}

TEST(NetmapAllocate, HetNeverLosesToHomogOnEnergy) {
  const netmap::Model model = two_layer_model();
  netmap::Budget budget;
  budget.max_macros = 4;
  const netmap::NetmapResult res =
      netmap::run_netmap(model, diverse_pool(), budget);
  ASSERT_TRUE(res.homog.valid);
  EXPECT_LE(res.total_energy_pj, res.homog.energy_pj + 1e-9);
  EXPECT_EQ(res.layers.size(), 2u);
  EXPECT_GT(res.total_time_us, 0.0);
}

TEST(NetmapAllocate, RespectsMacroAndAreaBudgets) {
  const netmap::Model model = two_layer_model();
  for (const int max_macros : {1, 2, 3, 8}) {
    netmap::Budget budget;
    budget.max_macros = max_macros;
    const netmap::NetmapResult res =
        netmap::run_netmap(model, diverse_pool(), budget);
    EXPECT_LE(res.fleet_macros, max_macros);
    int owned = 0;
    double area = 0.0;
    for (const netmap::FleetEntry& fe : res.fleet) {
      owned += fe.count;
      area += fe.area_um2;
    }
    EXPECT_EQ(owned, res.fleet_macros);
    EXPECT_DOUBLE_EQ(area, res.fleet_area_um2);
  }
  // An area budget that only fits the small type forces it everywhere.
  netmap::Budget tight;
  tight.max_macros = 4;
  tight.max_area_um2 = 50000;
  const netmap::NetmapResult res =
      netmap::run_netmap(model, diverse_pool(), tight);
  ASSERT_EQ(res.fleet.size(), 1u);
  EXPECT_EQ(res.candidates[res.fleet[0].candidate_index].point_id, "frugal");
  EXPECT_LE(res.fleet_area_um2, 50000.0);
}

TEST(NetmapAllocate, ThrowsOnDegenerateInputs) {
  const netmap::Model model = two_layer_model();
  EXPECT_THROW((void)netmap::run_netmap(netmap::Model{}, diverse_pool()),
               std::invalid_argument);
  EXPECT_THROW((void)netmap::run_netmap(model, {}), std::invalid_argument);
  // 12-bit layer: no candidate supports it.
  netmap::Model wide = model;
  wide.layers.push_back(make_layer("wide", 1, 8, 8, 12, 12));
  EXPECT_THROW((void)netmap::run_netmap(wide, diverse_pool()),
               std::invalid_argument);
  netmap::Budget bad;
  bad.max_macros = 0;
  EXPECT_THROW((void)netmap::run_netmap(model, diverse_pool(), bad),
               std::invalid_argument);
}

TEST(NetmapAllocate, MixedPrecisionModelSplitsTheFleet) {
  // INT4 layers run 2x denser columns and half the serial phases on a
  // 4-bit-capable macro; an 8-bit layer pins one type, the 4-bit layers
  // are free to pick the other.
  netmap::Model m;
  m.name = "mixed";
  m.layers.push_back(make_layer("int8", 500, 256, 64, 8, 8));
  m.layers.push_back(make_layer("int4", 500, 256, 64, 4, 4));
  const std::vector<netmap::MacroCandidate> pool = {
      make_cand("both", 64, 64, 2, {4, 8}, 400, 400, 2000, 60000),
      make_cand("narrow", 64, 64, 2, {4}, 400, 400, 900, 30000),
  };
  netmap::Budget budget;
  budget.max_macros = 4;
  const netmap::NetmapResult res = netmap::run_netmap(m, pool, budget);
  ASSERT_TRUE(res.homog.valid);
  // Only "both" supports the INT8 layer, so homog must use it; the
  // heterogeneous fleet runs the INT4 layer on the cheaper narrow macro
  // and strictly beats the baseline.
  EXPECT_EQ(res.candidates[res.homog.candidate_index].point_id, "both");
  EXPECT_EQ(res.candidates[res.layers[1].candidate_index].point_id, "narrow");
  EXPECT_LT(res.total_energy_pj, res.homog.energy_pj);
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

TEST(NetmapReport, VersionedAndDeterministicAcrossThreadCounts) {
  const std::string model_doc = R"({
    "format": "syndcim-model", "version": 1, "name": "d",
    "layers": [
      {"name": "a", "kind": "linear", "batch": 16, "in_features": 100,
       "out_features": 24, "input_bits": 4, "weight_bits": 4},
      {"name": "b", "kind": "linear", "batch": 16, "in_features": 24,
       "out_features": 8, "input_bits": 8, "weight_bits": 8}
    ]})";
  core::DiagEngine diag;
  const netmap::Model model = netmap::parse_model(model_doc, diag);
  ASSERT_FALSE(diag.has_errors());

  const auto lib =
      cell::characterize_default_library(tech::make_default_40nm());
  const std::map<std::string, std::string> kv = {
      {"rows", "32"},           {"cols", "32"},
      {"input_bits", "4,8"},    {"weight_bits", "4,8"},
      {"sweep_mac_mhz", "320"}, {"sweep_mcr", "1,2"}};
  std::string first;
  for (const int threads : {1, 4}) {
    dse::SweepOptions sopt;
    sopt.threads = threads;
    sopt.lint_frontier = false;
    const dse::SweepReport rep =
        dse::run_sweep(lib, dse::grid_from_kv(kv).expand(), sopt);
    const netmap::NetmapResult res =
        netmap::run_netmap(model, netmap::candidates_from_frontier(rep));
    const std::string report = netmap::netmap_report_json(res);
    if (first.empty()) {
      first = report;
    } else {
      EXPECT_EQ(report, first) << "report differs at threads=" << threads;
    }
  }
  EXPECT_NE(first.find("\"format\": \"syndcim-netmap\""), std::string::npos);
  EXPECT_NE(first.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(first.find("\"homog_baseline\""), std::string::npos);
  EXPECT_NE(first.find("\"point_id\""), std::string::npos);
  EXPECT_EQ(first.back(), '\n');
}

}  // namespace
