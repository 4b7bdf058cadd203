#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <exception>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cell/bind.hpp"
#include "obs/obs.hpp"

namespace syndcim::lint {

namespace {

using netlist::FlatNetlist;
using netlist::gate_label;
using netlist::net_label;

/// Emits through the engine with a per-rule cap; suppressed findings are
/// still counted in the summary and surfaced as one trailing note per
/// rule, so truncation is never silent.
class Reporter {
 public:
  explicit Reporter(core::DiagEngine& diag) : diag_(diag) {}

  void emit(core::Severity sev, std::string rule, std::string msg,
            std::string object = "", std::string source = "") {
    switch (sev) {
      case core::Severity::kError:
        ++sum_.errors;
        break;
      case core::Severity::kWarning:
        ++sum_.warnings;
        break;
      case core::Severity::kInfo:
        ++sum_.notes;
        break;
    }
    std::size_t& n = emitted_[rule];
    if (n >= kMaxPerRule) {
      ++suppressed_[rule];
      return;
    }
    ++n;
    diag_.report({sev, std::move(rule), std::move(msg), std::move(object),
                  std::move(source), -1});
  }

  LintSummary finish() {
    for (const auto& [rule, n] : suppressed_) {
      diag_.info("LINT-TRUNCATED",
                 std::to_string(n) + " further " + rule +
                     " findings suppressed (cap " +
                     std::to_string(kMaxPerRule) + " per rule)");
      ++sum_.notes;
    }
    return sum_;
  }

 private:
  core::DiagEngine& diag_;
  LintSummary sum_;
  std::map<std::string, std::size_t> emitted_;
  std::map<std::string, std::size_t> suppressed_;
};

const std::string& gate_group(const FlatNetlist& nl, std::uint32_t g) {
  return nl.group_names()[nl.gates()[g].group];
}

/// Splits "foo[3]" into ("foo", 3); returns false for scalar names.
bool split_bus_bit(const std::string& name, std::string& base, int& index) {
  if (name.empty() || name.back() != ']') return false;
  const std::size_t open = name.rfind('[');
  if (open == std::string::npos || open + 2 > name.size() - 1) return false;
  int v = 0;
  for (std::size_t i = open + 1; i + 1 < name.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(name[i]))) return false;
    v = v * 10 + (name[i] - '0');
  }
  base = name.substr(0, open);
  index = v;
  return true;
}

}  // namespace

LintSummary lint_netlist(const FlatNetlist& nl, const cell::Library& lib,
                         core::DiagEngine& diag,
                         const std::string& write_clock) {
  Reporter rep(diag);
  const std::size_t n_gates = nl.gates().size();
  const std::size_t n_nets = nl.net_count();

  // The engines' pin table: nullptr for an unknown master, -1 for an
  // unknown pin, each reported here instead of thrown.
  const cell::PinTable table = cell::pin_table(nl, lib);
  const auto& masters = table.masters;
  // The cell pin a connection lands on; nullptr when it resolves to none.
  const auto pin_of = [&](const FlatNetlist::Gate& gate,
                          const FlatNetlist::PinConn& pc) -> const cell::Pin* {
    const int pi = table.pin(gate.master, pc.pin_name);
    return pi < 0 ? nullptr : &masters[gate.master]->pins[pi];
  };
  for (std::size_t m = 0; m < masters.size(); ++m) {
    if (masters[m]) continue;
    std::size_t uses = 0;
    for (const auto& g : nl.gates()) uses += g.master == m ? 1 : 0;
    rep.emit(core::Severity::kError, "LINT-UNKNOWN-CELL",
             "cell master not in the library (" + std::to_string(uses) +
                 " instances)",
             nl.master_names()[m]);
  }

  // Per-net driver/load accounting; per-gate pin coverage.
  struct NetInfo {
    std::uint32_t drivers = 0;     // gate output pins + const ties + PIs
    std::uint32_t loads = 0;       // gate input pins + POs
    bool gate_driven = false;
    /// CDC domain masks: `domains` holds clocks whose register outputs
    /// drive this net directly; `comb_domains` holds clocks whose launch
    /// reached it through at least one combinational gate. The register
    /// endpoint check only uses the latter — a direct reg->reg crossing
    /// is the synchronizer pattern itself and must not be flagged.
    std::uint64_t domains = 0;
    std::uint64_t comb_domains = 0;
  };
  std::vector<NetInfo> nets(n_nets);
  for (std::uint32_t n = 0; n < n_nets; ++n) {
    if (nl.net_const(n) != netlist::NetConst::kNone) ++nets[n].drivers;
  }
  for (const auto& io : nl.primary_inputs()) ++nets[io.net].drivers;
  for (const auto& io : nl.primary_outputs()) ++nets[io.net].loads;

  for (std::uint32_t g = 0; g < n_gates; ++g) {
    const auto& gate = nl.gates()[g];
    const cell::Cell* cell = masters[gate.master];
    if (!cell) {
      // Unknown master: count conservative connectivity so its nets are
      // not reported floating/dangling on top of the unknown-cell error.
      for (const auto& pc : gate.pins) {
        ++nets[pc.net].drivers;
        ++nets[pc.net].loads;
      }
      continue;
    }
    std::vector<bool> connected(cell->pins.size(), false);
    for (const auto& pc : gate.pins) {
      const int pi = table.pin(gate.master, pc.pin_name);
      if (pi < 0) {
        rep.emit(core::Severity::kError, "LINT-UNKNOWN-PIN",
                 "connection to pin '" + nl.pin_names()[pc.pin_name] +
                     "' which master '" + cell->name + "' does not have",
                 gate_label(nl, g), gate_group(nl, g));
        continue;
      }
      connected[pi] = true;
      if (cell->pins[pi].is_input) {
        ++nets[pc.net].loads;
      } else {
        ++nets[pc.net].drivers;
        nets[pc.net].gate_driven = true;
      }
    }
    for (std::size_t pi = 0; pi < cell->pins.size(); ++pi) {
      if (connected[pi]) continue;
      const bool input = cell->pins[pi].is_input;
      rep.emit(input ? core::Severity::kError : core::Severity::kWarning,
               "LINT-UNCONNECTED",
               std::string(input ? "input" : "output") + " pin '" +
                   cell->pins[pi].name + "' of master '" + cell->name +
                   "' is unconnected",
               gate_label(nl, g), gate_group(nl, g));
    }
  }

  for (std::uint32_t n = 0; n < n_nets; ++n) {
    if (nets[n].drivers > 1) {
      rep.emit(core::Severity::kError, "LINT-MULTIDRIVE",
               "net has " + std::to_string(nets[n].drivers) +
                   " drivers (output pins / constant ties / ports)",
               net_label(nl, n));
    } else if (nets[n].loads > 0 && nets[n].drivers == 0) {
      rep.emit(core::Severity::kError, "LINT-FLOATING",
               "net has " + std::to_string(nets[n].loads) +
                   " loads but no driver",
               net_label(nl, n));
    }
  }
  for (std::uint32_t n = 0; n < n_nets; ++n) {
    if (nets[n].gate_driven && nets[n].loads == 0) {
      rep.emit(core::Severity::kInfo, "LINT-DANGLING",
               "gate-driven net has no loads (unused output)",
               net_label(nl, n));
    }
  }

  // --- Combinational gate graph (registers and storage break paths). ---
  std::vector<std::int32_t> node_of(n_gates, -1);  // gate -> comb node id
  std::vector<std::uint32_t> comb;                 // node id -> gate
  for (std::uint32_t g = 0; g < n_gates; ++g) {
    const cell::Cell* cell = masters[nl.gates()[g].master];
    if (cell && cell->timing_role() == cell::TimingRole::kCombinational) {
      node_of[g] = static_cast<std::int32_t>(comb.size());
      comb.push_back(g);
    }
  }
  // Net -> combinational loads, then driver -> load edges.
  std::vector<std::vector<std::int32_t>> net_loads(n_nets);
  for (const std::uint32_t g : comb) {
    for (const auto& pc : nl.gates()[g].pins) {
      const cell::Pin* p = pin_of(nl.gates()[g], pc);
      if (p && p->is_input) net_loads[pc.net].push_back(node_of[g]);
    }
  }
  std::vector<std::vector<std::int32_t>> adj(comb.size());  // node -> nodes
  for (const std::uint32_t g : comb) {
    for (const auto& pc : nl.gates()[g].pins) {
      const cell::Pin* p = pin_of(nl.gates()[g], pc);
      if (p && !p->is_input) {
        for (const std::int32_t w : net_loads[pc.net]) {
          adj[node_of[g]].push_back(w);
        }
      }
    }
  }

  if (!comb.empty()) {
    // Iterative Tarjan SCC; any component with >1 member (or a self-edge)
    // is a combinational loop.
    const std::int32_t n = static_cast<std::int32_t>(comb.size());
    std::vector<std::int32_t> index(n, -1), low(n, 0);
    std::vector<bool> on_stack(n, false);
    std::vector<std::int32_t> stack;
    struct Frame {
      std::int32_t v;
      std::size_t child;
    };
    std::vector<Frame> frames;
    std::int32_t next_index = 0;
    auto report_scc = [&](const std::vector<std::int32_t>& members) {
      std::string list;
      for (std::size_t i = 0; i < members.size() && i < 8; ++i) {
        if (i) list += " -> ";
        list += gate_label(nl, comb[members[i]]);
      }
      if (members.size() > 8) list += " -> ...";
      rep.emit(core::Severity::kError, "LINT-COMB-LOOP",
               "combinational loop through " +
                   std::to_string(members.size()) + " gates: " + list,
               gate_label(nl, comb[members.front()]),
               gate_group(nl, comb[members.front()]));
    };
    for (std::int32_t root = 0; root < n; ++root) {
      if (index[root] != -1) continue;
      frames.push_back({root, 0});
      index[root] = low[root] = next_index++;
      stack.push_back(root);
      on_stack[root] = true;
      while (!frames.empty()) {
        Frame& f = frames.back();
        if (f.child < adj[f.v].size()) {
          const std::int32_t w = adj[f.v][f.child++];
          if (index[w] == -1) {
            index[w] = low[w] = next_index++;
            stack.push_back(w);
            on_stack[w] = true;
            frames.push_back({w, 0});
          } else if (on_stack[w]) {
            low[f.v] = std::min(low[f.v], index[w]);
          }
        } else {
          const std::int32_t v = f.v;
          if (low[v] == index[v]) {
            std::vector<std::int32_t> members;
            while (true) {
              const std::int32_t w = stack.back();
              stack.pop_back();
              on_stack[w] = false;
              members.push_back(w);
              if (w == v) break;
            }
            const bool self_loop =
                members.size() == 1 &&
                std::find(adj[v].begin(), adj[v].end(), v) != adj[v].end();
            if (members.size() > 1 || self_loop) {
              std::reverse(members.begin(), members.end());
              report_scc(members);
            }
          }
          frames.pop_back();
          if (!frames.empty()) {
            low[frames.back().v] = std::min(low[frames.back().v], low[v]);
          }
        }
      }
    }
  }

  // Clock nets are the nets feeding any is_clock pin; each gets a domain
  // bit (capped at 64 distinct clocks).
  std::map<std::uint32_t, int> clock_bit;  // clock net -> bit
  auto clock_net_of = [&](std::uint32_t g) -> std::int64_t {
    for (const auto& pc : nl.gates()[g].pins) {
      const cell::Pin* p = pin_of(nl.gates()[g], pc);
      if (p && p->is_clock) return pc.net;
    }
    return -1;
  };
  std::vector<std::int64_t> gate_clock(n_gates, -1);
  for (std::uint32_t g = 0; g < n_gates; ++g) {
    const cell::Cell* cell = masters[nl.gates()[g].master];
    if (!cell || cell->timing_role() != cell::TimingRole::kRegister) {
      continue;
    }
    const std::int64_t cn = clock_net_of(g);
    gate_clock[g] = cn;
    if (cn >= 0 && !clock_bit.contains(static_cast<std::uint32_t>(cn)) &&
        clock_bit.size() < 64) {
      const int bit = static_cast<int>(clock_bit.size());
      clock_bit.emplace(static_cast<std::uint32_t>(cn), bit);
    }
  }
  auto bit_of = [&](std::int64_t cn) -> std::uint64_t {
    if (cn < 0) return 0;
    const auto it = clock_bit.find(static_cast<std::uint32_t>(cn));
    return it == clock_bit.end() ? 0 : (1ull << it->second);
  };
  auto clock_name = [&](int bit) -> std::string {
    for (const auto& [net, b] : clock_bit) {
      if (b == bit) return net_label(nl, net);
    }
    return "?";
  };

  // Seed: every register output net launches in its own clock domain.
  for (std::uint32_t g = 0; g < n_gates; ++g) {
    if (gate_clock[g] < 0) continue;
    for (const auto& pc : nl.gates()[g].pins) {
      const cell::Pin* p = pin_of(nl.gates()[g], pc);
      if (p && !p->is_input) nets[pc.net].domains |= bit_of(gate_clock[g]);
    }
  }
  // Propagate through the combinational gates in topological order
  // (Kahn); gates inside loops were reported above and are skipped.
  std::vector<std::int32_t> indeg(comb.size(), 0);
  for (const auto& out_edges : adj) {
    for (const std::int32_t w : out_edges) ++indeg[w];
  }
  std::vector<std::int32_t> queue;
  for (std::size_t v = 0; v < comb.size(); ++v) {
    if (indeg[v] == 0) queue.push_back(static_cast<std::int32_t>(v));
  }
  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    const std::int32_t v = queue[qi];
    const auto& gate = nl.gates()[comb[v]];
    std::uint64_t in_domains = 0;
    for (const auto& pc : gate.pins) {
      const cell::Pin* p = pin_of(gate, pc);
      if (p && p->is_input) {
        in_domains |= nets[pc.net].domains | nets[pc.net].comb_domains;
      }
    }
    for (const auto& pc : gate.pins) {
      const cell::Pin* p = pin_of(gate, pc);
      if (p && !p->is_input) nets[pc.net].comb_domains |= in_domains;
    }
    for (const std::int32_t w : adj[v]) {
      if (--indeg[w] == 0) queue.push_back(w);
    }
  }

  auto report_crossing = [&](std::uint32_t g, const std::string& pin,
                             std::uint32_t net, std::uint64_t offending) {
    for (int b = 0; b < 64 && offending; ++b) {
      if (!(offending & (1ull << b))) continue;
      offending &= ~(1ull << b);
      rep.emit(core::Severity::kWarning, "LINT-CDC",
               "pin '" + pin + "' receives a combinational launch from "
               "clock '" + clock_name(b) +
                   "' in another domain without a synchronizing "
                   "register (net " + net_label(nl, net) + ")",
               gate_label(nl, g), gate_group(nl, g));
    }
  };

  // Endpoint checks: register data inputs vs. their own clock; SRAM
  // write pins (D/WL) vs. the designated weight-update clock.
  std::uint64_t write_mask = 0;
  bool have_write_clock = false;
  if (!write_clock.empty()) {
    for (const auto& io : nl.primary_inputs()) {
      if (io.name == write_clock) {
        write_mask = bit_of(io.net);
        have_write_clock = true;
      }
    }
  }
  for (std::uint32_t g = 0; g < n_gates; ++g) {
    const auto& gate = nl.gates()[g];
    const cell::Cell* cell = masters[gate.master];
    if (!cell) continue;
    const cell::TimingRole role = cell->timing_role();
    if (role == cell::TimingRole::kRegister) {
      const std::uint64_t own = bit_of(gate_clock[g]);
      for (const auto& pc : gate.pins) {
        const cell::Pin* p = pin_of(gate, pc);
        if (!p || !p->is_input || p->is_clock) continue;
        const std::uint64_t offending = nets[pc.net].comb_domains & ~own;
        if (offending) report_crossing(g, p->name, pc.net, offending);
      }
    } else if (role == cell::TimingRole::kStorage && have_write_clock) {
      // Storage cells never synchronize: even a direct foreign-domain
      // register output on a write pin is a violation.
      for (const auto& pc : gate.pins) {
        const cell::Pin* p = pin_of(gate, pc);
        if (!p || !p->is_input) continue;
        const std::uint64_t offending =
            (nets[pc.net].domains | nets[pc.net].comb_domains) &
            ~write_mask;
        if (offending) report_crossing(g, p->name, pc.net, offending);
      }
    }
  }

  return rep.finish();
}

LintSummary lint_design(const netlist::Design& d, const std::string& top,
                        core::DiagEngine& diag) {
  Reporter rep(diag);
  if (!d.has_module(top)) {
    rep.emit(core::Severity::kError, "LINT-STRUCT",
             "top module '" + top + "' not found in design");
    return rep.finish();
  }
  core::DiagEngine structure;
  netlist::validate(d, top, structure);
  for (const core::Diagnostic& dg : structure.diags()) {
    rep.emit(dg.severity, dg.rule, dg.message, dg.object, dg.source);
  }

  for (const std::string& mod_name : d.module_names()) {
    const netlist::Module& m = d.module(mod_name);
    for (const auto& inst : m.instances()) {
      if (inst.is_cell || !d.has_module(inst.master)) continue;
      const netlist::Module& sub = d.module(inst.master);

      // Unconnected submodule input ports (flatten refuses these).
      std::set<std::string> connected;
      for (const auto& c : inst.conns) connected.insert(c.pin);
      for (const auto& p : sub.ports()) {
        if (p.dir == netlist::PortDir::kIn && !connected.contains(p.name)) {
          rep.emit(core::Severity::kError, "LINT-UNCONNECTED",
                   "input port '" + p.name + "' of module '" + sub.name() +
                       "' is unconnected",
                   inst.name, mod_name);
        }
      }

      // Module-boundary bus widths: compare connected bit indices per bus
      // base against the master's declared bits.
      std::map<std::string, std::set<int>> master_bus, conn_bus;
      for (const auto& p : sub.ports()) {
        std::string base;
        int idx = 0;
        if (split_bus_bit(p.name, base, idx)) master_bus[base].insert(idx);
      }
      for (const auto& c : inst.conns) {
        std::string base;
        int idx = 0;
        if (split_bus_bit(c.pin, base, idx)) conn_bus[base].insert(idx);
      }
      for (const auto& [base, bits] : conn_bus) {
        const auto it = master_bus.find(base);
        if (it == master_bus.end()) continue;  // unknown port: LINT-STRUCT
        if (bits.size() != it->second.size()) {
          rep.emit(core::Severity::kError, "LINT-WIDTH",
                   "bus '" + base + "' of module '" + sub.name() +
                       "' is " + std::to_string(it->second.size()) +
                       " bits wide but the instance connects " +
                       std::to_string(bits.size()) + " bits",
                   inst.name, mod_name);
        }
      }
    }
  }
  return rep.finish();
}

void lint_top(const netlist::Design& d, const std::string& top,
              const cell::Library& lib, core::DiagEngine& diag,
              const std::string& write_clock) {
  {
    OBS_SPAN("lint.design");
    (void)lint_design(d, top, diag);
  }
  if (!d.has_module(top)) return;  // lint_design reported it
  // Flattening a structurally broken hierarchy can throw; the
  // hierarchy-level findings above already explain why.
  try {
    const FlatNetlist flat = [&] {
      OBS_SPAN("lint.flatten");
      return netlist::flatten(d, top);
    }();
    OBS_SPAN("lint.netlist");
    (void)lint_netlist(flat, lib, diag, write_clock);
  } catch (const std::exception& e) {
    diag.error("LINT-STRUCT",
               std::string("cannot flatten for netlist-level checks: ") +
                   e.what(),
               top, "lint");
  }
}

}  // namespace syndcim::lint
