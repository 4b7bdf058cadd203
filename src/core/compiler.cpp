#include "core/compiler.hpp"

#include <algorithm>
#include <random>
#include <sstream>
#include <stdexcept>

#include "netlist/flatten.hpp"
#include "num/int_ops.hpp"
#include "rtlgen/content_key.hpp"
#include "sim/macro_tb.hpp"
#include "tech/units.hpp"

namespace syndcim::core {

namespace {

/// Content key of the workload the power stage simulates. "wl2" covers
/// the lane count and the lane-parallel stimulus schedule: with lanes > 1
/// the drive schedule packs independent per-lane input streams, so the
/// simulated activity is a different (equally valid) workload sample and
/// must not alias the scalar schedule's cached artifacts.
std::string workload_key(const Workload& wl) {
  ArtifactHasher h;
  h.str("wl2");
  h.i32(wl.n_macs);
  h.dbl(wl.input_density);
  h.dbl(wl.weight_density);
  h.i32(wl.input_bits);
  h.i32(wl.weight_bits);
  h.u32(wl.seed);
  h.i32(wl.lanes);
  return h.hex();
}

/// Random workload run on the gate-level netlist for measured activity.
/// Weights always come from one mt19937(seed) stream; with lanes == 1 the
/// inputs continue that same stream (the exact pre-lane schedule), while
/// lanes > 1 draws each lane's input stream from its own mt19937 seeded
/// deterministically from (seed, lane) and carries `lanes` independent
/// MACs per protocol pass, ceil(n_macs / lanes) passes total.
void drive_workload(sim::MacroTestbench& tb, sim::DcimMacroModel& model,
                    const Workload& wl) {
  std::mt19937 rng(wl.seed);
  std::bernoulli_distribution in_bit(wl.input_density);
  std::bernoulli_distribution w_bit(wl.weight_density);
  const auto& cfg = model.cfg();
  const int wp = wl.weight_bits;
  const int n_out = cfg.cols / wp;

  for (int bank = 0; bank < cfg.mcr; ++bank) {
    std::vector<std::vector<std::int64_t>> w(
        static_cast<std::size_t>(n_out));
    for (auto& g : w) {
      g.resize(static_cast<std::size_t>(cfg.rows));
      for (auto& v : g) {
        std::uint64_t bits = 0;
        for (int b = 0; b < wp; ++b) {
          bits |= static_cast<std::uint64_t>(w_bit(rng)) << b;
        }
        v = wp > 1 ? num::sign_extend(bits, wp)
                   : static_cast<std::int64_t>(bits);
      }
    }
    model.load_weights_int(bank, wp, w);
  }
  tb.preload_weights(model);
  tb.sim().reset_activity();

  auto draw_input = [&](std::mt19937& r, std::int64_t& v) {
    std::uint64_t bits = 0;
    for (int b = 0; b < wl.input_bits; ++b) {
      bits |= static_cast<std::uint64_t>(in_bit(r)) << b;
    }
    v = wl.input_bits > 1 ? num::sign_extend(bits, wl.input_bits)
                          : static_cast<std::int64_t>(bits);
  };

  if (tb.lanes() == 1) {
    for (int m = 0; m < wl.n_macs; ++m) {
      std::vector<std::int64_t> in(static_cast<std::size_t>(cfg.rows));
      for (auto& v : in) draw_input(rng, v);
      (void)tb.run_mac_int(in, wl.input_bits, wp, m % cfg.mcr,
                           wl.input_bits > 1);
    }
    return;
  }

  const int lanes = tb.lanes();
  std::vector<std::mt19937> lane_rng;
  lane_rng.reserve(static_cast<std::size_t>(lanes));
  for (int l = 0; l < lanes; ++l) {
    lane_rng.emplace_back(wl.seed +
                          0x9e3779b9u * static_cast<unsigned>(l + 1));
  }
  const int passes = (wl.n_macs + lanes - 1) / lanes;
  std::vector<std::vector<std::int64_t>> in(
      static_cast<std::size_t>(lanes),
      std::vector<std::int64_t>(static_cast<std::size_t>(cfg.rows)));
  for (int m = 0; m < passes; ++m) {
    for (int l = 0; l < lanes; ++l) {
      for (auto& v : in[static_cast<std::size_t>(l)]) {
        draw_input(lane_rng[static_cast<std::size_t>(l)], v);
      }
    }
    (void)tb.run_mac_int_lanes(in, wl.input_bits, wp, m % cfg.mcr,
                               wl.input_bits > 1);
  }
}

/// implement()'s `map` stage: flattens the macro into one gate-level
/// netlist, kept in `flats` under the configuration key alone (netlist
/// structure is library-independent).
std::shared_ptr<const netlist::FlatNetlist> run_map(
    StagePipeline& pipe, ArtifactStore& as, const std::string& ckey,
    const rtlgen::MacroDesign& macro) {
  return pipe.run("map", &as.flats, "flatm1|" + ckey,
                  [&] { return netlist::flatten(macro.design, macro.top); });
}

/// Key of implement()'s `lint` stage: the configuration key and the
/// library fingerprint.
std::string lint_key(const cell::Library& lib, const std::string& ckey) {
  return "lint1|" + ckey + "|" + lib.fingerprint();
}

/// implement()'s `lint` stage: static checks of the netlist `flat()`
/// returns, kept in `lints` under lint_key. `flat` runs only on a miss,
/// so a hit needs neither the macro nor its netlist.
template <typename FlatFn>
std::shared_ptr<const LintArtifact> run_lint(StagePipeline& pipe,
                                             ArtifactStore& as,
                                             const cell::Library& lib,
                                             const std::string& ckey,
                                             FlatFn&& flat) {
  return pipe.run("lint", &as.lints, lint_key(lib, ckey), [&] {
    LintArtifact la;
    DiagEngine dg;
    la.summary = lint::lint_netlist(*flat(), lib, dg);
    la.diags = dg.diags();
    return la;
  });
}

}  // namespace

std::shared_ptr<const LintArtifact> lint_config(
    const cell::Library& lib, ArtifactStore& as,
    const rtlgen::MacroConfig& cfg, obs::PhaseTimeline* timeline) {
  StagePipeline pipe("compile", timeline);
  const std::string ckey = rtlgen::config_content_key(cfg);
  return run_lint(pipe, as, lib, ckey, [&] {
    return run_map(pipe, as, ckey, rtlgen::gen_macro(cfg, &as.modules));
  });
}

bool lint_cached(const cell::Library& lib, const ArtifactStore& as,
                 const rtlgen::MacroConfig& cfg) {
  return as.lints.contains(lint_key(lib, rtlgen::config_content_key(cfg)));
}

Implementation SynDcimCompiler::implement(const rtlgen::MacroConfig& cfg,
                                          const PerfSpec& spec,
                                          const Workload& workload,
                                          const CancelToken* cancel) {
  Implementation impl;

  // Pass pipeline over the shared subcircuit-artifact store: every stage
  // declares its input key and skips (splicing the cached artifact,
  // including the diagnostics it originally emitted) when that key is
  // unchanged. Each stage still lands in the implementation's phase
  // timeline — the established phase names are kept — and, when
  // observability is enabled, in the tracer.
  ArtifactStore& as = scl_.artifacts();
  StagePipeline pipe("compile", &impl.timeline);
  pipe.set_cancel(cancel);
  const std::string ckey = rtlgen::config_content_key(cfg);
  const std::string lkey = ckey + "|" + lib_.fingerprint();

  // rtlgen always materializes the MacroDesign (the caller keeps it for
  // testbench hookup and module keys); its subcircuit modules still come
  // from — and land in — the modules tier.
  const auto macro = pipe.run<rtlgen::MacroDesign>(
      "rtlgen", nullptr, ckey,
      [&] { return rtlgen::gen_macro(cfg, &as.modules); });
  impl.macro = *macro;

  const auto flat = run_map(pipe, as, ckey, impl.macro);
  impl.flat = flat;

  // Static netlist checks before any physical or timing work: an
  // error-severity finding means the netlist itself is broken and every
  // downstream number would be meaningless.
  const auto lint_art = run_lint(pipe, as, lib_, ckey, [&] { return flat; });
  replay_diags(lint_art->diags, impl.diagnostics);
  impl.lint = lint_art->summary;
  if (!impl.lint.clean()) {
    throw std::runtime_error("SynDcimCompiler::implement: netlist lint "
                             "failed (" + impl.diagnostics.summary() + ")");
  }

  // APR: structured-data-path placement, then signoff checks.
  const auto placed =
      pipe.run("floorplan", &as.placed, "place1|" + lkey, [&] {
        PlacedArtifact pa;
        DiagEngine dg;
        pa.floorplan = layout::sdp_place(*flat, lib_, cfg, &dg);
        pa.diags = dg.diags();
        return pa;
      });
  replay_diags(placed->diags, impl.diagnostics);
  impl.floorplan = placed->floorplan;

  const auto route = pipe.run("route", &as.routes, "route1|" + lkey, [&] {
    RouteArtifact ra;
    ra.drc = layout::run_drc(*flat, lib_, placed->floorplan);
    ra.lvs = layout::run_lvs(*flat, lib_, placed->floorplan);
    ra.wire =
        layout::extract_wire_model(*flat, lib_, placed->floorplan);
    return ra;
  });
  impl.drc = route->drc;
  impl.lvs = route->lvs;

  // Post-layout STA with back-annotated parasitics. The key adds the spec
  // timing knobs — the only spec fields this stage reads.
  const std::string skey = spec_knobs_key(spec);
  const auto timing =
      pipe.run("sta", &as.timings, "sta2|" + lkey + "|" + skey, [&] {
        TimingArtifact ta;
        DiagEngine dg;
        sta::StaEngine sta(*flat, lib_);
        sta::StaOptions topt;
        topt.clock_period_ps = spec.period_ps();
        topt.write_period_ps = spec.write_period_ps();
        topt.vdd = spec.vdd;
        topt.wire = route->wire;
        topt.static_inputs = impl.macro.static_control_ports();
        topt.collect_group_interfaces = true;
        topt.diag = &dg;
        ta.timing = sta.analyze(topt);
        ta.diags = dg.diags();
        return ta;
      });
  replay_diags(timing->diags, impl.diagnostics);
  impl.timing = timing->timing;
  impl.fmax_mhz = impl.timing.fmax_mhz;

  // Post-layout power from gate-level simulated activity. The simulated
  // activity model is spec-independent (configuration x workload x
  // library), so a voltage/frequency re-spin skips the simulation and
  // only re-prices the power.
  const double power_freq_mhz = std::min(spec.mac_freq_mhz, impl.fmax_mhz);
  const std::string wkey = workload_key(workload);
  const auto pw = pipe.run(
      "power", &as.powers, "pow1|" + lkey + "|" + skey + "|" + wkey, [&] {
        const auto act = as.act_models.get_or_compute(
            "simact1|" + lkey + "|" + wkey, [&] {
              Workload wl = workload;
              wl.input_bits = std::min(wl.input_bits, cfg.max_input_bits());
              wl.weight_bits =
                  std::min(wl.weight_bits, cfg.max_weight_bits());
              wl.lanes = std::clamp(wl.lanes, 1, 64);
              sim::MacroTestbench tb(impl.macro, flat, lib_, wl.lanes);
              sim::DcimMacroModel model(cfg);
              drive_workload(tb, model, wl);
              obs::metrics().counter("sim.gate_evals")
                  .inc(tb.sim().gate_evals());
              obs::metrics().counter("sim.events_skipped")
                  .inc(tb.sim().events_skipped());
              obs::metrics().gauge("sim.lanes").set(
                  static_cast<double>(tb.sim().lanes()));
              return power::activity_from_sim(*flat, lib_, tb.sim());
            });
        power::PowerOptions popt;
        popt.vdd = spec.vdd;
        popt.freq_mhz = power_freq_mhz;
        popt.wire = route->wire;
        PowerArtifact pa;
        pa.power = power::analyze_power(*flat, lib_, *act, popt);
        pa.area = power::analyze_area(*flat, lib_);
        return pa;
      });
  impl.power = pw->power;
  impl.cell_area = pw->area;

  impl.macro_area_mm2 = impl.floorplan.outline.area() * 1e-6;
  impl.total_power_uw = impl.power.total_uw();
  impl.tops_1b =
      2.0 * cfg.rows * cfg.cols * power_freq_mhz * 1.0e6 * 1.0e-12;
  impl.stages = pipe.records();
  return impl;
}

CompileResult SynDcimCompiler::compile(const PerfSpec& spec,
                                       const Workload& workload,
                                       const CancelToken* cancel) {
  OBS_SPAN("core.compile");
  CompileResult res;
  if (cancel != nullptr) cancel->check("compile.search");
  {
    OBS_SPAN("core.search");
    res.search = searcher_.search(spec);
  }

  // Implement Pareto points in preference order; post-layout verification
  // can reject an aggressive point whose extracted parasitics exceed the
  // pre-layout guard band, in which case the next point is taken (the
  // paper's flow likewise validates each implemented design by
  // post-layout simulation before accepting it).
  std::vector<const DesignPoint*> order;
  for (const DesignPoint& p : res.search.pareto) order.push_back(&p);
  std::sort(order.begin(), order.end(),
            [&](const DesignPoint* a, const DesignPoint* b) {
              return preference_score(*a, res.search.pareto, spec.pref.power,
                                      spec.pref.area,
                                      spec.pref.performance) <
                     preference_score(*b, res.search.pareto, spec.pref.power,
                                      spec.pref.area,
                                      spec.pref.performance);
            });
  if (order.empty()) {
    std::ostringstream os;
    os << "spec infeasible: no design point meets rows=" << spec.rows
       << " cols=" << spec.cols << " mcr=" << spec.mcr
       << " mac_mhz=" << spec.mac_freq_mhz
       << " wupdate_mhz=" << spec.wupdate_freq_mhz << " vdd=" << spec.vdd;
    throw InfeasibleSpecError(os.str());
  }
  for (const DesignPoint* p : order) {
    if (cancel != nullptr) cancel->check("compile.implement");
    res.selected = *p;
    res.impl = implement(p->cfg, spec, workload, cancel);
    if (res.impl.signoff_clean()) break;
  }
  return res;
}

}  // namespace syndcim::core
