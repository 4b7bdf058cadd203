#include "core/scl.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "layout/floorplan.hpp"
#include "netlist/flatten.hpp"
#include "obs/obs.hpp"
#include "power/power.hpp"
#include "rtlgen/content_key.hpp"
#include "rtlgen/macro.hpp"
#include "rtlgen/ofu.hpp"
#include "sta/sta.hpp"
#include "tech/units.hpp"

namespace syndcim::core {

using rtlgen::MacroConfig;

namespace {
/// Reference period for the cached nominal analysis; group required
/// periods are recovered as (T_ref - group_wns).
constexpr double kRefPeriodPs = 1.0e5;

[[nodiscard]] bool starts_with(const std::string& s, const char* p) {
  return s.rfind(p, 0) == 0;
}
}  // namespace

SubcircuitLibrary::SubcircuitLibrary(const cell::Library& lib,
                                     std::shared_ptr<ArtifactStore> store)
    : lib_(lib), store_(std::move(store)) {
  // Artifact keys of library-dependent stages embed the fingerprint;
  // computing it here makes the concurrent slice() calls pure reads.
  // Code that constructs libraries from several threads forces it first
  // (the serve daemon does).
  (void)lib_.fingerprint();
}

std::shared_ptr<const SliceEval> SubcircuitLibrary::slice(
    const MacroConfig& cfg) const {
  // The slice content key already normalizes the column count, so every
  // configuration differing only in `cols` maps to one characterization.
  return store_->slices.get_or_compute(
      "slice1|" + rtlgen::slice_content_key(cfg) + "|" + lib_.fingerprint(),
      [&] { return characterize(cfg); });
}

SliceEval SubcircuitLibrary::characterize(const MacroConfig& cfg) const {
  // Slice: one OFU group wide (min 8 columns to satisfy the generator).
  MacroConfig sc = cfg;
  sc.cols = std::max(cfg.max_weight_bits(), 8);
  sc.validate();

  // The stages below have no tier of their own: every input they read is
  // covered by the slice key, so the `slices` tier is their one memo.
  // Reuse inside a characterization comes from the module and per-cone
  // activity tiers the generator and propagation consult. Each stage
  // keeps its `scl.slice.<stage>` span.
  ArtifactStore& as = *store_;
  const netlist::FlatNetlist flat = [&] {
    OBS_SPAN("scl.slice.flatten");
    const rtlgen::MacroDesign md = rtlgen::gen_macro(sc, &as.modules);
    return netlist::flatten(md.design, md.top);
  }();

  SliceEval ev;
  ev.slice_cols = sc.cols;

  // Characterize the slice post-placement so the searcher's estimates see
  // extracted wire parasitics (the cross-region accumulator and OFU nets
  // dominate the fused configurations' timing).
  const layout::Floorplan floorplan = [&] {
    OBS_SPAN("scl.slice.floorplan");
    return layout::sdp_place(flat, lib_, sc);
  }();
  const sta::WireModel wire = [&] {
    OBS_SPAN("scl.slice.route");
    return layout::extract_wire_model(flat, lib_, floorplan);
  }();

  // static_control_ports() is a pure function of the configuration.
  rtlgen::MacroDesign ports;
  ports.cfg = sc;

  const sta::TimingReport rep = [&] {
    OBS_SPAN("scl.slice.sta");
    sta::StaEngine sta(flat, lib_);
    sta::StaOptions topt;
    topt.clock_period_ps = kRefPeriodPs;
    topt.write_period_ps = kRefPeriodPs;
    topt.vdd = lib_.node().vdd_nominal;
    topt.wire = wire;
    topt.static_inputs = ports.static_control_ports();
    return sta.analyze(topt);
  }();
  ev.min_period_ps = rep.min_period_ps;
  ev.min_write_period_ps = rep.min_write_period_ps;
  for (const sta::GroupSlack& gs : rep.groups) {
    const double req = kRefPeriodPs - gs.wns_ps;
    const bool ofu_side =
        starts_with(gs.group, "ofu_g") || gs.group == ports.top;
    (ofu_side ? ev.ofu_path_period_ps : ev.mac_path_period_ps) =
        std::max(ofu_side ? ev.ofu_path_period_ps : ev.mac_path_period_ps,
                 req);
  }

  // Search-time activity: one grouped propagation whose per-cone results
  // come from the shared activity tier.
  const power::ActivityModel act = [&] {
    OBS_SPAN("scl.slice.activity");
    return power::propagate_activity_grouped(
        flat, lib_, power::ActivitySpec{}, &as.activity);
  }();

  const PowerArtifact pw = [&] {
    OBS_SPAN("scl.slice.power");
    power::PowerOptions popt;
    popt.vdd = lib_.node().vdd_nominal;
    popt.freq_mhz = 1000.0;  // 1 GHz reference: uW == fJ/cycle
    PowerArtifact pa;
    pa.power = power::analyze_power(flat, lib_, act, popt);
    pa.area = power::analyze_area(flat, lib_);
    return pa;
  }();

  for (std::size_t g = 0; g < pw.power.by_group.size(); ++g) {
    SliceEval::GroupCost gc;
    gc.group = pw.power.by_group[g].group;
    gc.dynamic_fj =
        pw.power.by_group[g].dynamic_uw;  // at 1 GHz: uW == fJ/cycle
    gc.leakage_nw = pw.power.by_group[g].leakage_uw * 1.0e3;
    gc.area_um2 = g < pw.area.by_group.size()
                      ? pw.area.by_group[g].area_um2
                      : 0.0;
    ev.groups.push_back(std::move(gc));
  }
  return ev;
}

EvalOutcome SubcircuitLibrary::evaluate(const MacroConfig& cfg,
                                        const PerfSpec& spec) const {
  const std::shared_ptr<const SliceEval> slice_ev = slice(cfg);
  const SliceEval& ev = *slice_ev;
  const tech::TechNode& node = lib_.node();
  const double ds = node.delay_scale(spec.vdd);
  const double es = node.energy_scale(spec.vdd);
  const double ls = node.leakage_scale(spec.vdd);
  EvalOutcome out;

  PathStatus& st = out.timing;
  st.mac_period_ps = ev.mac_path_period_ps * ds;
  st.ofu_period_ps = ev.ofu_path_period_ps * ds;
  st.write_period_ps = ev.min_write_period_ps * ds;
  const double target = spec.period_ps() * (1.0 - spec.timing_margin);
  const double wtarget =
      spec.write_period_ps() * (1.0 - spec.timing_margin);
  st.mac_ok = st.mac_period_ps <= target;
  st.ofu_ok = st.ofu_period_ps <= target;
  st.write_ok = st.write_period_ps <= wtarget;

  PpaEstimate& ppa = out.ppa;
  ppa.fmax_mhz = 1.0e6 / (ev.min_period_ps * ds);
  ppa.write_fmax_mhz = 1.0e6 / (ev.min_write_period_ps * ds);

  // Compose the slice's per-group costs into the full macro. Column and
  // OFU groups replicate with the column count; wldrv/align are shared
  // (same row count in the slice); the write port splits roughly evenly
  // between its row decoder (shared) and its per-column bitline drivers.
  const double col_ratio =
      static_cast<double>(cfg.cols) / static_cast<double>(ev.slice_cols);
  double dyn_fj = 0.0, leak_nw = 0.0, area = 0.0;
  for (const SliceEval::GroupCost& gc : ev.groups) {
    double k = 1.0;
    if (starts_with(gc.group, "col") || starts_with(gc.group, "ofu_g")) {
      k = col_ratio;
    } else if (gc.group == "wrport") {
      k = 0.5 + 0.5 * col_ratio;
    }
    dyn_fj += k * gc.dynamic_fj;
    leak_nw += k * gc.leakage_nw;
    area += k * gc.area_um2;
  }
  ppa.power_uw = units::uw_from_fj_mhz(dyn_fj * es, spec.mac_freq_mhz) +
                 leak_nw * ls * 1.0e-3;
  ppa.area_um2 = area;

  // Throughput: 2*rows*cols bitwise MACs per cycle at 1b-1b equivalence.
  const double ops_per_cycle = 2.0 * cfg.rows * cfg.cols;
  ppa.tops_1b = ops_per_cycle * spec.mac_freq_mhz * 1.0e6 * 1.0e-12;
  ppa.energy_per_mac_fj = dyn_fj * es / ops_per_cycle;

  rtlgen::MacroDesign latency_helper;
  latency_helper.cfg = cfg;
  ppa.latency_cycles = latency_helper.ofu_valid_cycle(
      cfg.max_input_bits(),
      rtlgen::OfuModuleConfig{cfg.max_weight_bits(), cfg.sa_width(),
                              cfg.ofu}
          .n_stages());
  return out;
}

std::vector<rtlgen::AdderTreeConfig> SubcircuitLibrary::faster_tree_ladder(
    const rtlgen::AdderTreeConfig& cur) {
  std::vector<rtlgen::AdderTreeConfig> out;
  rtlgen::AdderTreeConfig c = cur;
  if (c.style == rtlgen::AdderTreeStyle::kRcaTree) {
    // Switch family first: the CSA styles are the faster SCL entries.
    c.style = rtlgen::AdderTreeStyle::kMixed;
    c.fa_fraction = 0.0;
    out.push_back(c);
  }
  if (!c.carry_reorder) {
    c.carry_reorder = true;
    out.push_back(c);
  }
  static constexpr double kLadder[] = {0.25, 0.5, 0.75, 1.0};
  for (const double fa : kLadder) {
    if (fa > c.fa_fraction + 1e-9) {
      rtlgen::AdderTreeConfig next = c;
      next.style = rtlgen::AdderTreeStyle::kMixed;
      next.fa_fraction = fa;
      out.push_back(next);
    }
  }
  return out;
}

}  // namespace syndcim::core
