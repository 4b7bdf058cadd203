#include "sta/sta.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <stdexcept>
#include <type_traits>

#include "obs/obs.hpp"

namespace syndcim::sta {

using netlist::FlatNetlist;
using netlist::NetConst;

namespace {
using cell::kNoNet;
constexpr double kStorageQSlewPs = 80.0;  // weak bitcell read transition
constexpr double kClockSlewPs = 40.0;

/// Collapsed rows are stored with at least two entries so the kernel can
/// unconditionally blend row[i] and row[i+1] (a single-point slew axis
/// duplicates its value; lut_lerp(v, v, 0) == v bit for bit).
std::size_t row_stride(const cell::Lut2d& lut) {
  return std::max<std::size_t>(2, lut.slew_axis().size());
}

/// Same segment Lut2d::locate computes (upper_bound semantics, clamped
/// ends, identical FP expression for t), over a flat axis slice. The
/// linear scan beats a binary search on the short characterization grids
/// and keeps the whole lookup inlined in the kernel loop.
inline cell::LutSeg locate_axis(const double* ax, std::uint32_t n,
                                double x) {
  if (n == 1 || x <= ax[0]) return {0, 0.0};
  if (x >= ax[n - 1]) return {n - 2, 1.0};
  std::size_t hi = 1;
  while (ax[hi] <= x) ++hi;
  const std::size_t lo = hi - 1;
  const double span = ax[hi] - ax[lo];
  return {lo, span > 0 ? (x - ax[lo]) / span : 0.0};
}
}  // namespace

double TimingReport::group_wns(std::string_view g) const {
  for (const GroupSlack& gs : groups) {
    if (gs.group == g) return gs.wns_ps;
  }
  return std::numeric_limits<double>::infinity();
}

StaEngine::StaEngine(const FlatNetlist& nl, const cell::Library& lib)
    : nl_(nl), lib_(lib), bind_(cell::bind(nl, lib, "StaEngine")) {
  const std::size_t ngates = bind_.cells.size();
  const std::size_t nnets = nl.net_count();
  // Per-net pin loads, and the structural half of the group interfaces: a
  // net leaves its driver's group if any other group consumes it or it is
  // a primary output.
  std::vector<std::uint32_t> dgroup(nnets, kNoNet);
  for (std::uint32_t n = 0; n < nnets; ++n) {
    if (bind_.driver[n] >= 0) {
      dgroup[n] = nl.gates()[static_cast<std::size_t>(bind_.driver[n])].group;
    }
  }
  std::vector<std::uint8_t> crosses(nnets, 0);
  for (const auto& io : nl.primary_outputs()) crosses[io.net] = 1;
  pin_cap_sum_.assign(nnets, 0.0);
  fanout_.assign(nnets, 0);
  for (std::uint32_t g = 0; g < ngates; ++g) {
    const cell::Cell& c = *bind_.cells[g];
    const auto nets = bind_.nets(g);
    for (std::size_t pi = 0; pi < nets.size(); ++pi) {
      if (!c.pins[pi].is_input) continue;
      pin_cap_sum_[nets[pi]] += c.pins[pi].cap_ff;
      ++fanout_[nets[pi]];
      if (dgroup[nets[pi]] != nl.gates()[g].group) crosses[nets[pi]] = 1;
    }
  }

  // The shared levelizer: one scheme and one comb-loop check for STA and
  // both simulators.
  gate_order_ = cell::levelize(bind_, "StaEngine");

  net_const_.assign(nnets, 0);
  for (std::uint32_t n = 0; n < nnets; ++n) {
    net_const_[n] = nl.net_const(n) != NetConst::kNone ? 1 : 0;
    // Constants, primary inputs and dangling nets: no gate drives them
    // (bind refuses a gate driving a constant).
    if (bind_.driver[n] < 0) undriven_.push_back(n);
  }

  // Flatten the timing arcs into a CSR in the exact (level, gate, arc)
  // order the scalar arm visits them, so both kernels accumulate their
  // max() reductions in the same order and stay bit-identical.
  level_arc_begin_.push_back(0);
  level_net_begin_.push_back(0);
  std::vector<std::uint8_t> seen(nnets, 0);  // one driver => one level
  // Dedup slew axes into one flat table (the library shares a handful of
  // characterization grids, so this stays L1-resident in the kernel).
  std::map<std::vector<double>, std::uint16_t> axis_ids;
  const auto axis_id = [&](const std::vector<double>& axis) {
    const auto it = axis_ids.find(axis);
    if (it != axis_ids.end()) return it->second;
    const auto id = static_cast<std::uint16_t>(ax_off_.size());
    ax_off_.push_back(static_cast<std::uint32_t>(ax_vals_.size()));
    ax_len_.push_back(static_cast<std::uint32_t>(axis.size()));
    ax_vals_.insert(ax_vals_.end(), axis.begin(), axis.end());
    axis_ids.emplace(axis, id);
    return id;
  };
  for (const auto& level : gate_order_) {
    for (const std::uint32_t g : level) {
      const auto nets = bind_.nets(g);
      for (const auto& arc : bind_.cells[g]->arcs) {
        const std::uint32_t in_net =
            nets[static_cast<std::size_t>(arc.from_pin)];
        const std::uint32_t out_net =
            nets[static_cast<std::size_t>(arc.to_pin)];
        if (in_net == kNoNet || out_net == kNoNet) continue;
        // Arcs from constant nets can never fire (the scalar arm skips
        // them on every visit); dropping them here removes the per-arc
        // net_const_ test from the kernel. Their out_nets still join
        // level_out_nets_ below so case-analysis marking is unchanged.
        if (!net_const_[in_net]) {
          arc_in_.push_back(in_net);
          arc_out_.push_back(out_net);
          arc_gate_.push_back(g);
          arc_delay_.push_back(&arc.delay_ps);
          arc_oslew_.push_back(&arc.out_slew_ps);
          arc_axis_shared_.push_back(
              arc.delay_ps.slew_axis() == arc.out_slew_ps.slew_axis() ? 1
                                                                      : 0);
          arc_dax_.push_back(axis_id(arc.delay_ps.slew_axis()));
          arc_sax_.push_back(axis_id(arc.out_slew_ps.slew_axis()));
        }
        if (!seen[out_net]) {
          seen[out_net] = 1;
          level_out_nets_.push_back(out_net);
        }
      }
    }
    level_arc_begin_.push_back(static_cast<std::uint32_t>(arc_in_.size()));
    level_net_begin_.push_back(
        static_cast<std::uint32_t>(level_out_nets_.size()));
  }

  // Launch points and setup endpoints, resolved once so per-analysis work
  // never touches pin names or roles.
  for (std::uint32_t g = 0; g < ngates; ++g) {
    const cell::Cell& c = *bind_.cells[g];
    const cell::TimingRole role = c.timing_role();
    if (role == cell::TimingRole::kCombinational) continue;
    const bool storage = role == cell::TimingRole::kStorage;
    const auto nets = bind_.nets(g);
    for (std::size_t pi = 0; pi < nets.size(); ++pi) {
      const cell::Pin& p = c.pins[pi];
      const std::uint32_t net = nets[pi];
      if (net == kNoNet) continue;
      if (!p.is_input) {
        launches_.push_back({g, net, static_cast<std::uint16_t>(pi), storage});
      } else if (!p.is_clock && !net_const_[net]) {
        setup_eps_.push_back({net, g, nl.gates()[g].group,
                              static_cast<std::uint16_t>(pi), storage,
                              c.setup_ps});
      }
    }
  }

  // Group-interface membership (first-use dedup over the crossing nets
  // found above); the per-analysis pass only annotates at/slew.
  const std::size_t ngroups = nl.group_names().size();
  iface_in_.resize(ngroups);
  iface_out_.resize(ngroups);
  // First-use dedup: a net is listed once per group per direction.
  std::vector<std::uint32_t> in_stamp(nnets, kNoNet);
  std::vector<std::uint32_t> out_stamp(nnets, kNoNet);
  for (std::uint32_t g = 0; g < ngates; ++g) {
    const cell::Cell& c = *bind_.cells[g];
    const std::uint32_t group = nl.gates()[g].group;
    const auto nets = bind_.nets(g);
    for (std::size_t pi = 0; pi < nets.size(); ++pi) {
      const std::uint32_t n = nets[pi];
      if (n == kNoNet || net_const_[n]) continue;
      if (c.pins[pi].is_input) {
        if (dgroup[n] == group || in_stamp[n] == group) continue;
        in_stamp[n] = group;
        iface_in_[group].push_back(n);
      } else {
        if (!crosses[n] || out_stamp[n] == group) continue;
        out_stamp[n] = group;
        iface_out_[group].push_back(n);
      }
    }
  }
}

double StaEngine::net_load_ff(std::uint32_t net, const WireModel& wire) const {
  return pin_cap_sum_[net] + wire.net_cap(net, fanout_[net]);
}

std::shared_ptr<const StaEngine::LoadPlan> StaEngine::load_plan(
    const WireModel& wire) const {
  {
    std::lock_guard<std::mutex> lk(plan_mu_);
    if (plan_ && plan_->wire.cap_per_fanout_ff == wire.cap_per_fanout_ff &&
        plan_->wire.per_net_cap_ff == wire.per_net_cap_ff) {
      return plan_;
    }
  }
  OBS_SPAN("sta.load_plan");
  auto p = std::make_shared<LoadPlan>();
  p->wire = wire;
  const std::size_t nnets = nl_.net_count();
  p->net_load.resize(nnets);
  for (std::uint32_t n = 0; n < nnets; ++n) {
    p->net_load[n] = net_load_ff(n, wire);
  }
  // Collapse each (LUT, load) pair once: the library has a few dozen
  // distinct LUTs and the load values quantize heavily, so the shared
  // rows fit in cache where one private row pair per arc would not.
  std::map<std::pair<const cell::Lut2d*, double>, std::uint32_t> row_ids;
  const auto row_id = [&](const cell::Lut2d* lut, double load) {
    const auto key = std::make_pair(lut, load);
    const auto it = row_ids.find(key);
    if (it != row_ids.end()) return it->second;
    const auto off = static_cast<std::uint32_t>(p->rows.size());
    p->rows.resize(p->rows.size() + row_stride(*lut));
    double* r = &p->rows[off];
    lut->collapse_load(load, r);
    if (lut->slew_axis().size() == 1) r[1] = r[0];
    row_ids.emplace(key, off);
    return off;
  };
  p->arc_drow.resize(arc_in_.size());
  p->arc_srow.resize(arc_in_.size());
  for (std::size_t a = 0; a < arc_in_.size(); ++a) {
    const double load = p->net_load[arc_out_[a]];
    p->arc_drow[a] = row_id(arc_delay_[a], load);
    p->arc_srow[a] = row_id(arc_oslew_[a], load);
  }
  p->launch_delay.resize(launches_.size());
  p->launch_slew.resize(launches_.size());
  for (std::size_t i = 0; i < launches_.size(); ++i) {
    const LaunchPoint& lp = launches_[i];
    if (lp.storage) {
      p->launch_delay[i] = 0.0;
      p->launch_slew[i] = kStorageQSlewPs;
      continue;
    }
    const double load = p->net_load[lp.qnet];
    double d = 0.0, s = kClockSlewPs;
    for (const auto& arc : bind_.cells[lp.gate]->arcs) {
      if (arc.to_pin != lp.pin) continue;
      d = std::max(d, arc.delay_ps.eval(kClockSlewPs, load));
      s = std::max(s, arc.out_slew_ps.eval(kClockSlewPs, load));
    }
    p->launch_delay[i] = d;
    p->launch_slew[i] = s;
  }
  if (obs::enabled()) obs::metrics().counter("sta.plan.builds").inc();
  std::lock_guard<std::mutex> lk(plan_mu_);
  plan_ = p;
  return p;
}

double VariationReport::yield_at(double freq_mhz) const {
  if (fmax_samples_mhz.empty()) return 0.0;
  std::size_t ok = 0;
  for (const double f : fmax_samples_mhz) ok += f >= freq_mhz ? 1 : 0;
  return static_cast<double>(ok) / fmax_samples_mhz.size();
}

TimingReport StaEngine::analyze(const StaOptions& opt) const {
  if (opt.diag) {
    // Constraint sanity: a static_inputs name matching no primary input
    // is almost always a typo, and the path it was meant to exclude
    // silently stays in the timing graph.
    for (const std::string& name : opt.static_inputs) {
      bool found = false;
      for (const auto& io : nl_.primary_inputs()) {
        if (io.name == name) {
          found = true;
          break;
        }
      }
      if (!found) {
        opt.diag->warning("STA-UNKNOWN-INPUT",
                          "static_inputs name matches no primary input",
                          name, "sta");
      }
    }
  }
  return analyze_impl(opt, nullptr);
}

VariationReport StaEngine::analyze_variation(const StaOptions& opt,
                                             double delay_sigma,
                                             double global_sigma,
                                             int samples,
                                             unsigned seed) const {
  if (samples < 1 || delay_sigma < 0 || global_sigma < 0) {
    throw std::invalid_argument("analyze_variation: bad parameters");
  }
  std::mt19937 rng(seed);
  std::normal_distribution<double> n01;
  VariationReport rep;
  rep.fmax_samples_mhz.reserve(static_cast<std::size_t>(samples));
  std::vector<float> derate(bind_.cells.size());
  for (int s = 0; s < samples; ++s) {
    // Global corner shift shared by the die, plus independent local
    // variation per gate (lognormal keeps derates positive).
    const double global = std::exp(global_sigma * n01(rng));
    for (float& d : derate) {
      d = static_cast<float>(global * std::exp(delay_sigma * n01(rng)));
    }
    rep.fmax_samples_mhz.push_back(
        analyze_impl(opt, derate.data()).fmax_mhz);
  }
  double sum = 0, sq = 0;
  for (const double f : rep.fmax_samples_mhz) {
    sum += f;
    sq += f * f;
  }
  rep.mean_fmax_mhz = sum / samples;
  rep.sigma_fmax_mhz = std::sqrt(
      std::max(0.0, sq / samples - rep.mean_fmax_mhz * rep.mean_fmax_mhz));
  return rep;
}

void StaEngine::propagate_scalar(const StaOptions& opt,
                                 const float* gate_derate,
                                 PropState& ps) const {
  for (const auto& level : gate_order_) {
    for (const std::uint32_t g : level) {
      const cell::Cell& c = *bind_.cells[g];
      const auto nets = bind_.nets(g);
      for (const auto& arc : c.arcs) {
        const std::uint32_t in_net =
            nets[static_cast<std::size_t>(arc.from_pin)];
        const std::uint32_t out_net =
            nets[static_cast<std::size_t>(arc.to_pin)];
        if (in_net == kNoNet || out_net == kNoNet) continue;
        if (net_const_[in_net] || ps.untimed[in_net]) continue;
        const double load = net_load_ff(out_net, opt.wire);
        double d = arc.delay_ps.eval(ps.ts[in_net].slew, load);
        if (gate_derate) d *= gate_derate[g];
        const double cand = ps.ts[in_net].at + d;
        if (cand > ps.ts[out_net].at) {
          ps.ts[out_net].at = cand;
          ps.tr[out_net] = {in_net, static_cast<std::int32_t>(g)};
        }
        // Worst slew over all live arcs, independent of which arc wins
        // the arrival race: the slowest transition reaches the next stage
        // even when a faster path launches the winning edge.
        const double s =
            std::min(arc.out_slew_ps.eval(ps.ts[in_net].slew, load),
                     opt.max_slew_ps);
        if (!ps.slew_set[out_net]) {
          ps.ts[out_net].slew = s;
          ps.slew_set[out_net] = 1;
        } else if (s > ps.ts[out_net].slew) {
          ps.ts[out_net].slew = s;
        }
      }
      // Case analysis: an output none of whose arcs fired is untimed.
      for (const auto& arc : c.arcs) {
        const std::uint32_t in_net =
            nets[static_cast<std::size_t>(arc.from_pin)];
        const std::uint32_t out_net =
            nets[static_cast<std::size_t>(arc.to_pin)];
        if (in_net == kNoNet || out_net == kNoNet) continue;
        if (!ps.slew_set[out_net]) ps.untimed[out_net] = 1;
      }
    }
  }
}

void StaEngine::propagate_soa(const LoadPlan& plan, const StaOptions& opt,
                              const float* gate_derate, PropState& ps) const {
  const double* rows = plan.rows.data();
  const std::uint32_t* arc_drow = plan.arc_drow.data();
  const std::uint32_t* arc_srow = plan.arc_srow.data();
  const double* ax_vals = ax_vals_.data();
  const std::uint32_t* ax_off = ax_off_.data();
  const std::uint32_t* ax_len = ax_len_.data();
  const std::uint32_t* arc_in = arc_in_.data();
  const std::uint32_t* arc_out = arc_out_.data();
  const std::uint32_t* arc_gate = arc_gate_.data();
  const std::uint16_t* arc_dax = arc_dax_.data();
  const std::uint16_t* arc_sax = arc_sax_.data();
  const std::uint8_t* arc_axis_shared = arc_axis_shared_.data();
  // Raw pointers in locals: the byte stores into slew_set may alias any
  // object, so vector accesses would reload their data pointers per arc.
  PropState::NetTime* ts = ps.ts.data();
  PropState::Trace* tr = ps.tr.data();
  std::uint8_t* untimed = ps.untimed.data();
  std::uint8_t* slew_set = ps.slew_set.data();
  const double max_slew = opt.max_slew_ps;
  const std::size_t nlevels = level_arc_begin_.size() - 1;
  // The derate test is hoisted out of the arc loop; the winner/worst-slew
  // updates are written as selects so the unpredictable comparisons
  // compile to cmovs instead of mispredicting branches. Both forms keep
  // the exact comparison semantics (strict > first-winner) of the scalar
  // arm, so results stay bit-identical.
  const auto level_arcs = [&](std::uint32_t abeg, std::uint32_t aend,
                              auto derated, auto one_axis) {
    for (std::uint32_t a = abeg; a < aend; ++a) {
      const std::uint32_t in_net = arc_in[a];
      // Const-input arcs were filtered out of the CSR at construction, so
      // case analysis is the only remaining dynamic skip.
      if (untimed[in_net]) continue;
      const std::uint32_t out_net = arc_out[a];
      const PropState::NetTime in_ts = ts[in_net];
      cell::LutSeg sd, ss;
      if constexpr (decltype(one_axis)::value) {
        // Whole-library shared slew grid: one hoisted axis, one locate
        // covering both the delay and slew rows of every arc.
        sd = locate_axis(ax_vals, ax_len[0], in_ts.slew);
        ss = sd;
      } else {
        const std::uint16_t dax = arc_dax[a];
        sd = locate_axis(ax_vals + ax_off[dax], ax_len[dax], in_ts.slew);
        ss = sd;
        if (!arc_axis_shared[a]) {
          const std::uint16_t sax = arc_sax[a];
          ss = locate_axis(ax_vals + ax_off[sax], ax_len[sax], in_ts.slew);
        }
      }
      const double* dr = rows + arc_drow[a];
      double d = cell::lut_lerp(dr[sd.i], dr[sd.i + 1], sd.t);
      if constexpr (decltype(derated)::value) d *= gate_derate[arc_gate[a]];
      const double cand = in_ts.at + d;
      PropState::NetTime& ot = ts[out_net];
      PropState::Trace& otr = tr[out_net];
      const bool win = cand > ot.at;
      ot.at = win ? cand : ot.at;
      otr.prev_net = win ? in_net : otr.prev_net;
      otr.via_gate =
          win ? static_cast<std::int32_t>(arc_gate[a]) : otr.via_gate;
      const double* sr = rows + arc_srow[a];
      const double s =
          std::min(cell::lut_lerp(sr[ss.i], sr[ss.i + 1], ss.t), max_slew);
      const bool keep = slew_set[out_net] && s <= ot.slew;
      ot.slew = keep ? ot.slew : s;
      slew_set[out_net] = 1;
    }
  };
  const bool one_axis = ax_off_.size() == 1;
  for (std::size_t lvl = 0; lvl < nlevels; ++lvl) {
    const std::uint32_t abeg = level_arc_begin_[lvl];
    const std::uint32_t aend = level_arc_begin_[lvl + 1];
    if (gate_derate) {
      if (one_axis) {
        level_arcs(abeg, aend, std::true_type{}, std::true_type{});
      } else {
        level_arcs(abeg, aend, std::true_type{}, std::false_type{});
      }
    } else if (one_axis) {
      level_arcs(abeg, aend, std::false_type{}, std::true_type{});
    } else {
      level_arcs(abeg, aend, std::false_type{}, std::false_type{});
    }
    // Consumers of this level's outputs sit in strictly later levels, so
    // marking untimed nets once per level matches the scalar per-gate
    // marking exactly.
    const std::uint32_t nbeg = level_net_begin_[lvl];
    const std::uint32_t nend = level_net_begin_[lvl + 1];
    for (std::uint32_t i = nbeg; i < nend; ++i) {
      const std::uint32_t n = level_out_nets_[i];
      if (!slew_set[n]) untimed[n] = 1;
    }
  }
}

TimingReport StaEngine::analyze_impl(const StaOptions& opt,
                                     const float* gate_derate) const {
  OBS_SPAN("sta.analyze");
  const tech::TechNode& node = lib_.node();
  if (!node.vdd_in_range(opt.vdd)) {
    throw std::invalid_argument("StaEngine::analyze: vdd out of range");
  }
  // Voltage/temperature scaling: propagate in the nominal domain (delays
  // AND slews scale together, so relative waveforms are invariant) and
  // scale the reported times at the end. Equivalently, clock periods
  // shrink by 1/ds during analysis.
  const double ds = node.delay_scale(opt.vdd, opt.temp_c);

  const std::shared_ptr<const LoadPlan> plan = load_plan(opt.wire);

  const std::size_t nnets = nl_.net_count();
  PropState ps;
  ps.ts.assign(nnets, {-std::numeric_limits<double>::infinity(),
                       opt.input_slew_ps});
  // Traceback: previous net and gate on the worst path into each net.
  ps.tr.assign(nnets, {kNoNet, -1});
  ps.untimed.assign(nnets, 0);
  ps.slew_set.assign(nnets, 0);

  for (const std::uint32_t n : undriven_) ps.ts[n].at = 0.0;
  for (const auto& io : nl_.primary_inputs()) {
    ps.ts[io.net] = {opt.input_delay_ps, opt.input_slew_ps};
  }
  // Case analysis: static configuration inputs do not launch transitions.
  for (const std::string& name : opt.static_inputs) {
    for (const auto& io : nl_.primary_inputs()) {
      if (io.name == name) ps.untimed[io.net] = 1;
    }
  }

  // Launch points: register CK->Q (precomputed at the fixed clock slew in
  // the plan) and storage Q at t=0.
  for (std::size_t i = 0; i < launches_.size(); ++i) {
    const LaunchPoint& lp = launches_[i];
    if (lp.storage) {
      ps.ts[lp.qnet] = {0.0, kStorageQSlewPs};
      continue;
    }
    double d = plan->launch_delay[i];
    if (gate_derate) d *= gate_derate[lp.gate];
    ps.ts[lp.qnet] = {d, plan->launch_slew[i]};
    ps.tr[lp.qnet].via_gate = static_cast<std::int32_t>(lp.gate);
  }

  // Propagate through levels.
  if (opt.kernel == StaKernel::kScalar) {
    propagate_scalar(opt, gate_derate, ps);
  } else {
    propagate_soa(*plan, opt, gate_derate, ps);
  }

  // Collect endpoints (streaming: no per-endpoint strings; the worst
  // endpoint's description is formatted once at the end).
  TimingReport rep;
  double min_period = 0.0, min_write_period = 0.0;
  rep.wns_ps = std::numeric_limits<double>::infinity();
  const SetupEndpoint* worst_sep = nullptr;
  const FlatNetlist::PrimaryIo* worst_po = nullptr;
  double worst_arrival = 0.0, worst_required = 0.0;
  std::uint32_t worst_net = kNoNet;
  std::size_t timed_eps = 0;
  std::vector<GroupSlack> groups(nl_.group_names().size());
  for (std::size_t i = 0; i < groups.size(); ++i) {
    groups[i].group = nl_.group_names()[i];
  }

  for (const SetupEndpoint& e : setup_eps_) {
    if (ps.untimed[e.net]) continue;  // case analysis: not a real path
    ++timed_eps;
    const double arrival = ps.ts[e.net].at;
    const double need = arrival + e.setup_ps;
    (e.write_domain ? min_write_period : min_period) =
        std::max(e.write_domain ? min_write_period : min_period, need);
    const double period =
        (e.write_domain ? opt.write_period_ps : opt.clock_period_ps) / ds;
    const double required = period - e.setup_ps;
    const double slack = (required - arrival) * ds;
    if (slack < rep.wns_ps) {
      rep.wns_ps = slack;
      worst_sep = &e;
      worst_po = nullptr;
      worst_arrival = arrival;
      worst_required = required;
      worst_net = e.net;
    }
    if (slack < 0) rep.tns_ps += slack;
    // Group slacks classify MAC-domain endpoints only; the write domain is
    // summarized by min_write_period_ps.
    if (e.write_domain) continue;
    GroupSlack& gs = groups[e.group];
    if (slack < gs.wns_ps) {
      gs.wns_ps = slack;
      gs.worst_arrival_ps = arrival * ds;
    }
  }
  for (const auto& io : nl_.primary_outputs()) {
    if (ps.untimed[io.net]) continue;
    ++timed_eps;
    const double arrival = ps.ts[io.net].at;
    min_period = std::max(min_period, arrival + opt.output_margin_ps);
    const double required =
        opt.clock_period_ps / ds - opt.output_margin_ps;
    const double slack = (required - arrival) * ds;
    if (slack < rep.wns_ps) {
      rep.wns_ps = slack;
      worst_sep = nullptr;
      worst_po = &io;
      worst_arrival = arrival;
      worst_required = required;
      worst_net = io.net;
    }
    if (slack < 0) rep.tns_ps += slack;
    GroupSlack& gs = groups[0];
    if (slack < gs.wns_ps) {
      gs.wns_ps = slack;
      gs.worst_arrival_ps = arrival * ds;
    }
  }

  rep.min_period_ps = min_period * ds;
  rep.min_write_period_ps = min_write_period * ds;
  rep.fmax_mhz = min_period > 0 ? 1.0e6 / rep.min_period_ps : 0.0;
  for (GroupSlack& gs : groups) {
    if (std::isfinite(gs.wns_ps)) rep.groups.push_back(std::move(gs));
  }

  if (opt.collect_group_interfaces) {
    const auto& gnames = nl_.group_names();
    rep.interfaces.resize(gnames.size());
    for (std::size_t i = 0; i < gnames.size(); ++i) {
      GroupInterface& gif = rep.interfaces[i];
      gif.group = gnames[i];
      gif.inputs.reserve(iface_in_[i].size());
      for (const std::uint32_t n : iface_in_[i]) {
        gif.inputs.push_back(
            {nl_.net_name(n), ps.ts[n].at * ds, ps.ts[n].slew * ds});
      }
      gif.outputs.reserve(iface_out_[i].size());
      for (const std::uint32_t n : iface_out_[i]) {
        gif.outputs.push_back(
            {nl_.net_name(n), ps.ts[n].at * ds, ps.ts[n].slew * ds});
      }
    }
  }

  if (obs::enabled()) {
    // One timed path per (non-untimed) endpoint in this analysis pass.
    obs::metrics().counter("sta.paths.timed").inc(timed_eps);
    obs::metrics().counter("sta.analyze.runs").inc();
  }

  if (worst_sep != nullptr || worst_po != nullptr) {
    rep.critical.arrival_ps = worst_arrival * ds;
    rep.critical.required_ps = worst_required * ds;
    if (worst_sep != nullptr) {
      const cell::Cell& c = *bind_.cells[worst_sep->gate];
      rep.critical.endpoint = c.name + "/" + c.pins[worst_sep->pin].name;
    } else {
      rep.critical.endpoint = "<out>/" + worst_po->name;
    }
    // Trace back the worst path.
    std::uint32_t n = worst_net;
    int guard = 0;
    while (n != kNoNet && guard++ < 4096) {
      PathStage st;
      st.arrival_ps = ps.ts[n].at * ds;
      if (ps.tr[n].via_gate >= 0) {
        const auto g = static_cast<std::size_t>(ps.tr[n].via_gate);
        st.master = bind_.cells[g]->name;
        st.group = nl_.group_names()[nl_.gates()[g].group];
      } else {
        st.master = "<source>";
        st.group = "";
      }
      rep.critical.stages.push_back(std::move(st));
      n = ps.tr[n].prev_net;
    }
    std::reverse(rep.critical.stages.begin(), rep.critical.stages.end());
  }
  return rep;
}

}  // namespace syndcim::sta
