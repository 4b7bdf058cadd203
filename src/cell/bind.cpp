#include "cell/bind.hpp"

#include <stdexcept>
#include <string>

namespace syndcim::cell {

using netlist::FlatNetlist;
using netlist::gate_label;
using netlist::net_label;
using netlist::NetConst;

namespace {
constexpr std::int16_t kUnresolved = -2;
}  // namespace

PinTable pin_table(const FlatNetlist& nl, const Library& lib) {
  PinTable t;
  t.masters.reserve(nl.master_names().size());
  for (const std::string& m : nl.master_names()) {
    t.masters.push_back(lib.find(m));
  }
  t.n_pin_names = nl.pin_names().size();
  t.pins.assign(t.masters.size() * t.n_pin_names, kUnresolved);
  for (const auto& fg : nl.gates()) {
    const Cell* c = t.masters[fg.master];
    for (const auto& pc : fg.pins) {
      std::int16_t& slot = t.pins[fg.master * t.n_pin_names + pc.pin_name];
      if (slot != kUnresolved) continue;
      slot = c ? static_cast<std::int16_t>(
                     c->pin_index(nl.pin_names()[pc.pin_name]))
               : -1;
    }
  }
  for (std::int16_t& slot : t.pins) {
    if (slot == kUnresolved) slot = -1;
  }
  return t;
}

Binding bind(const FlatNetlist& nl, const Library& lib,
             std::string_view who) {
  const auto fail = [&](std::uint32_t g, const std::string& what) {
    throw std::invalid_argument(std::string(who) + ": gate " +
                                gate_label(nl, g) + ": " + what);
  };
  Binding b;
  b.table = pin_table(nl, lib);
  const auto& gates = nl.gates();
  b.cells.reserve(gates.size());
  b.pin_begin.reserve(gates.size() + 1);
  b.pin_begin.push_back(0);
  b.driver.assign(nl.net_count(), -1);
  for (std::uint32_t g = 0; g < gates.size(); ++g) {
    const auto& fg = gates[g];
    const Cell* c = b.table.masters[fg.master];
    if (!c) {
      fail(g, "no cell " + nl.master_names()[fg.master] + " in the library");
    }
    b.cells.push_back(c);
    const std::size_t base = b.pin_nets.size();
    b.pin_nets.resize(base + c->pins.size(), kNoNet);
    for (const auto& pc : fg.pins) {
      const int pi = b.table.pin(fg.master, pc.pin_name);
      if (pi < 0) {
        fail(g, "cell " + c->name + " has no pin " +
                    nl.pin_names()[pc.pin_name]);
      }
      b.pin_nets[base + static_cast<std::size_t>(pi)] = pc.net;
    }
    for (std::size_t pi = 0; pi < c->pins.size(); ++pi) {
      const Pin& p = c->pins[pi];
      const std::uint32_t net = b.pin_nets[base + pi];
      if (net == kNoNet) {
        if (p.is_input) fail(g, "input pin " + p.name + " is unconnected");
        continue;
      }
      if (p.is_input) continue;
      if (b.driver[net] >= 0) {
        const auto other = static_cast<std::uint32_t>(b.driver[net]);
        fail(g, "pin " + p.name + " drives net " + net_label(nl, net) +
                    ", already driven by gate " + gate_label(nl, other));
      }
      if (nl.net_const(net) != NetConst::kNone) {
        fail(g, "pin " + p.name + " drives constant net " +
                    net_label(nl, net));
      }
      b.driver[net] = static_cast<std::int32_t>(g);
    }
    b.pin_begin.push_back(static_cast<std::uint32_t>(b.pin_nets.size()));
  }
  for (const auto& io : nl.primary_inputs()) {
    if (b.driver[io.net] >= 0) {
      fail(static_cast<std::uint32_t>(b.driver[io.net]),
           "drives primary input " + io.name);
    }
  }
  return b;
}

std::vector<std::vector<std::uint32_t>> levelize(const Binding& b,
                                                 std::string_view who) {
  const std::size_t ngates = b.cells.size();
  const std::size_t nnets = b.driver.size();
  const auto combinational = [&](std::uint32_t g) {
    return b.cells[g]->timing_role() == TimingRole::kCombinational;
  };

  // A net is initially "resolved" if nothing combinational drives it: a
  // primary input, a constant, a dangling net, or a register/storage Q.
  std::vector<std::uint8_t> resolved(nnets, 1);
  for (std::uint32_t n = 0; n < nnets; ++n) {
    if (b.driver[n] >= 0 &&
        combinational(static_cast<std::uint32_t>(b.driver[n]))) {
      resolved[n] = 0;
    }
  }

  std::vector<std::uint32_t> pending(ngates, 0);
  std::vector<std::vector<std::uint32_t>> loads(nnets);
  std::size_t comb_total = 0;
  for (std::uint32_t g = 0; g < ngates; ++g) {
    if (!combinational(g)) continue;
    ++comb_total;
    const auto nets = b.nets(g);
    for (std::size_t p = 0; p < nets.size(); ++p) {
      if (!b.cells[g]->pins[p].is_input || resolved[nets[p]]) continue;
      ++pending[g];
      loads[nets[p]].push_back(g);
    }
  }

  std::vector<std::vector<std::uint32_t>> levels;
  std::vector<std::uint32_t> frontier;
  for (std::uint32_t g = 0; g < ngates; ++g) {
    if (combinational(g) && pending[g] == 0) frontier.push_back(g);
  }
  std::size_t scheduled = 0;
  while (!frontier.empty()) {
    levels.push_back(frontier);
    scheduled += frontier.size();
    std::vector<std::uint32_t> next;
    for (const std::uint32_t g : levels.back()) {
      const auto nets = b.nets(g);
      for (std::size_t p = 0; p < nets.size(); ++p) {
        const std::uint32_t net = nets[p];
        if (b.cells[g]->pins[p].is_input || net == kNoNet || resolved[net]) {
          continue;
        }
        resolved[net] = 1;
        for (const std::uint32_t lg : loads[net]) {
          if (--pending[lg] == 0) next.push_back(lg);
        }
      }
    }
    frontier = std::move(next);
  }
  if (scheduled != comb_total) {
    throw std::invalid_argument(
        std::string(who) + ": combinational loop detected (" +
        std::to_string(comb_total - scheduled) + " gates unschedulable)");
  }
  return levels;
}

}  // namespace syndcim::cell
