#include "power/power.hpp"

#include <stdexcept>

#include "cell/bind.hpp"
#include "obs/obs.hpp"
#include "tech/units.hpp"

namespace syndcim::power {

using netlist::FlatNetlist;

double PowerReport::group_uw(std::string_view g) const {
  for (const GroupPower& gp : by_group) {
    if (gp.group == g) return gp.dynamic_uw + gp.leakage_uw;
  }
  return 0.0;
}

double AreaReport::group_um2(std::string_view g) const {
  for (const GroupArea& ga : by_group) {
    if (ga.group == g) return ga.area_um2;
  }
  return 0.0;
}

PowerReport analyze_power(const FlatNetlist& nl, const cell::Library& lib,
                          const ActivityModel& activity,
                          const PowerOptions& opt) {
  OBS_SPAN("power.analyze");
  if (activity.toggle_rate.size() != nl.net_count()) {
    throw std::invalid_argument("analyze_power: activity/netlist mismatch");
  }
  const tech::TechNode& node = lib.node();
  if (!node.vdd_in_range(opt.vdd)) {
    throw std::invalid_argument("analyze_power: vdd out of range");
  }
  const double e_scale = node.energy_scale(opt.vdd);
  const double l_scale = node.leakage_scale(opt.vdd, opt.temp_c);
  const double v2 = opt.vdd * opt.vdd;

  // Accumulate per-net cap, driver group, and per-gate contributions,
  // walking each gate's connections in netlist order.
  const cell::Binding b = cell::bind(nl, lib, "analyze_power");

  std::vector<double> net_cap(nl.net_count(), 0.0);
  std::vector<int> net_fanout(nl.net_count(), 0);
  std::vector<std::uint32_t> net_group(nl.net_count(), 0);

  PowerReport rep;
  rep.by_group.resize(nl.group_names().size());
  for (std::size_t i = 0; i < rep.by_group.size(); ++i) {
    rep.by_group[i].group = nl.group_names()[i];
  }

  for (std::uint32_t g = 0; g < nl.gates().size(); ++g) {
    const auto& fg = nl.gates()[g];
    for (const auto& pc : fg.pins) {
      const cell::Pin& p = b.cells[g]->pins[static_cast<std::size_t>(
          b.table.pin(fg.master, pc.pin_name))];
      if (p.is_input) {
        net_cap[pc.net] += p.cap_ff;
        ++net_fanout[pc.net];
      } else {
        net_group[pc.net] = fg.group;
      }
    }
  }

  // Per-net switching energy (fJ/cycle): toggles * 0.5 * C * V^2.
  std::vector<double> group_fj(rep.by_group.size(), 0.0);
  double switching_fj = 0.0;
  for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
    const double c_total =
        net_cap[n] + opt.wire.net_cap(n, net_fanout[n]);
    const double e = activity.toggle_rate[n] * 0.5 * c_total * v2;
    switching_fj += e;
    group_fj[net_group[n]] += e;
  }

  // Cell internal + clock energy, leakage.
  double internal_fj = 0.0, clock_fj = 0.0, leak_nw = 0.0;
  std::vector<double> group_leak_nw(rep.by_group.size(), 0.0);
  for (std::uint32_t g = 0; g < nl.gates().size(); ++g) {
    const auto& fg = nl.gates()[g];
    const cell::Cell* c = b.cells[g];
    double out_toggles = 0.0;
    for (const auto& pc : fg.pins) {
      const int pi = b.table.pin(fg.master, pc.pin_name);
      if (!c->pins[static_cast<std::size_t>(pi)].is_input) {
        out_toggles += activity.toggle_rate[pc.net];
      }
    }
    const double e_int = out_toggles * c->internal_energy_fj * e_scale;
    internal_fj += e_int;
    clock_fj += c->clock_energy_fj * e_scale;
    group_fj[fg.group] += e_int + c->clock_energy_fj * e_scale;
    const double l = c->leakage_nw * l_scale;
    leak_nw += l;
    group_leak_nw[fg.group] += l;
  }

  rep.switching_uw = units::uw_from_fj_mhz(switching_fj, opt.freq_mhz);
  rep.internal_uw = units::uw_from_fj_mhz(internal_fj, opt.freq_mhz);
  rep.clock_uw = units::uw_from_fj_mhz(clock_fj, opt.freq_mhz);
  rep.leakage_uw = leak_nw * 1.0e-3;
  for (std::size_t g = 0; g < rep.by_group.size(); ++g) {
    rep.by_group[g].dynamic_uw =
        units::uw_from_fj_mhz(group_fj[g], opt.freq_mhz);
    rep.by_group[g].leakage_uw = group_leak_nw[g] * 1.0e-3;
  }
  return rep;
}

AreaReport analyze_area(const FlatNetlist& nl, const cell::Library& lib) {
  const cell::Binding b = cell::bind(nl, lib, "analyze_area");
  AreaReport rep;
  rep.by_group.resize(nl.group_names().size());
  for (std::size_t i = 0; i < rep.by_group.size(); ++i) {
    rep.by_group[i].group = nl.group_names()[i];
  }
  for (std::uint32_t g = 0; g < nl.gates().size(); ++g) {
    const cell::Cell* c = b.cells[g];
    rep.total_um2 += c->area_um2;
    (c->is_bitcell() ? rep.bitcell_um2 : rep.logic_um2) += c->area_um2;
    rep.by_group[nl.gates()[g].group].area_um2 += c->area_um2;
  }
  return rep;
}

}  // namespace syndcim::power
