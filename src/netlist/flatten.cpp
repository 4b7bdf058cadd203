#include "netlist/flatten.hpp"

#include <stdexcept>
#include <unordered_map>

namespace syndcim::netlist {

namespace {

constexpr std::uint32_t kUnset = UINT32_MAX;

struct Interner {
  std::unordered_map<std::string, std::uint32_t> map;
};

std::uint32_t intern(Interner& in, const std::string& name,
                     auto&& make) {
  const auto it = in.map.find(name);
  if (it != in.map.end()) return it->second;
  const std::uint32_t id = make(name);
  in.map.emplace(name, id);
  return id;
}

/// What every expansion of one module looks up by name, resolved on its
/// first expansion: a macro instances the same column, tree and OFU
/// modules many times, and later expansions index these instead of
/// hashing and scanning names again. In instance order: the interned
/// master of each cell; per connection of any instance, the interned pin
/// (cell) or the local net of the submodule port it names (submodule);
/// the module of each submodule instance.
struct ModuleIds {
  bool resolved = false;
  std::vector<std::uint32_t> masters;
  std::vector<std::uint32_t> conns;
  std::vector<const Module*> subs;
};

struct FlattenCtx {
  const Design& design;
  FlatNetlist& out;
  Interner masters;
  Interner pins;
  Interner groups;
  std::unordered_map<const Module*, ModuleIds> ids;
  std::uint32_t shared_const0 = kUnset;
  std::uint32_t shared_const1 = kUnset;
};

/// Recursively expands `m`. `local2flat` holds the flat net the parent
/// chose for each of m's port nets and kUnset elsewhere; other local nets
/// get fresh flat nets named `prefix` + local name. Gates land in
/// `group`, except at the top (`top`), where each submodule instance
/// opens its own depth-1 group.
void expand(FlattenCtx& ctx, const Module& m,
            std::vector<std::uint32_t> local2flat, std::uint32_t group,
            const std::string& prefix, bool top) {
  auto flat_net = [&](NetId local) -> std::uint32_t {
    std::uint32_t& slot = local2flat[local.v];
    if (slot != kUnset) return slot;
    const NetConst tie = m.net(local).tie;
    // Share one flat net per constant value design-wide.
    if (tie == NetConst::kZero) {
      if (ctx.shared_const0 == kUnset) {
        ctx.shared_const0 = ctx.out.new_net(tie, "const0");
      }
      slot = ctx.shared_const0;
    } else if (tie == NetConst::kOne) {
      if (ctx.shared_const1 == kUnset) {
        ctx.shared_const1 = ctx.out.new_net(tie, "const1");
      }
      slot = ctx.shared_const1;
    } else {
      slot = ctx.out.new_net(tie, prefix + m.net(local).name);
    }
    return slot;
  };

  ModuleIds& ids = ctx.ids[&m];
  const bool resolve = !ids.resolved;
  std::size_t next_master = 0, next_conn = 0, next_sub = 0;
  for (const Instance& inst : m.instances()) {
    if (inst.is_cell) {
      if (resolve) {
        ids.masters.push_back(
            intern(ctx.masters, inst.master, [&](const std::string& n) {
              return ctx.out.intern_master(n);
            }));
      }
      FlatNetlist::Gate g;
      g.master = ids.masters[next_master++];
      g.group = group;
      g.pins.reserve(inst.conns.size());
      for (const Conn& c : inst.conns) {
        if (resolve) {
          ids.conns.push_back(
              intern(ctx.pins, c.pin, [&](const std::string& n) {
                return ctx.out.intern_pin(n);
              }));
        }
        g.pins.push_back({ids.conns[next_conn++], flat_net(c.net)});
      }
      ctx.out.add_gate(std::move(g));
      continue;
    }
    if (resolve) ids.subs.push_back(&ctx.design.module(inst.master));
    const Module& sub = *ids.subs[next_sub++];
    std::vector<std::uint32_t> sub2flat(sub.nets().size(), kUnset);
    for (const Conn& c : inst.conns) {
      if (resolve) ids.conns.push_back(sub.port(c.pin).net.v);
      const std::uint32_t port_net = ids.conns[next_conn++];
      const std::uint32_t flat = flat_net(c.net);
      // Two connections to ports sharing one net: the first one wins.
      if (sub2flat[port_net] == kUnset) sub2flat[port_net] = flat;
    }
    for (const Port& p : sub.ports()) {
      if (sub2flat[p.net.v] != kUnset) continue;
      if (p.dir == PortDir::kIn) {
        throw std::invalid_argument("flatten: unconnected input port " +
                                    p.name + " on instance " + inst.name +
                                    " of " + sub.name());
      }
      sub2flat[p.net.v] = ctx.out.new_net(
          NetConst::kNone, inst.name + "." + p.name + ".nc");
    }
    if (top) {
      const std::uint32_t sub_group = intern(
          ctx.groups, inst.name,
          [&](const std::string& n) { return ctx.out.intern_group(n); });
      expand(ctx, sub, std::move(sub2flat), sub_group, inst.name + ".",
             false);
    } else {
      expand(ctx, sub, std::move(sub2flat), group, prefix, false);
    }
  }
  ids.resolved = true;
}

}  // namespace

std::uint32_t FlatNetlist::intern_master(const std::string& name) {
  master_names_.push_back(name);
  return static_cast<std::uint32_t>(master_names_.size() - 1);
}
std::uint32_t FlatNetlist::intern_pin(const std::string& name) {
  pin_names_.push_back(name);
  return static_cast<std::uint32_t>(pin_names_.size() - 1);
}
std::uint32_t FlatNetlist::intern_group(const std::string& name) {
  group_names_.push_back(name);
  return static_cast<std::uint32_t>(group_names_.size() - 1);
}
std::uint32_t FlatNetlist::new_net(NetConst tie, std::string name) {
  net_consts_.push_back(tie);
  net_names_.push_back(std::move(name));
  return static_cast<std::uint32_t>(net_consts_.size() - 1);
}

std::uint32_t FlatNetlist::input_net(std::string_view name) const {
  for (const PrimaryIo& io : primary_inputs_) {
    if (io.name == name) return io.net;
  }
  throw std::out_of_range("FlatNetlist::input_net: no input " +
                          std::string(name));
}

std::uint32_t FlatNetlist::output_net(std::string_view name) const {
  for (const PrimaryIo& io : primary_outputs_) {
    if (io.name == name) return io.net;
  }
  throw std::out_of_range("FlatNetlist::output_net: no output " +
                          std::string(name));
}

std::string gate_label(const FlatNetlist& nl, std::uint32_t g) {
  const auto& gate = nl.gates()[g];
  return nl.group_names()[gate.group] + "/" +
         nl.master_names()[gate.master] + "#" + std::to_string(g);
}

std::string net_label(const FlatNetlist& nl, std::uint32_t net) {
  const std::string& name = nl.net_name(net);
  return name.empty() ? "net#" + std::to_string(net) : name;
}

FlatNetlist flatten(const Design& d, const std::string& top) {
  const std::vector<std::string> problems = validate(d, top);
  if (!problems.empty()) {
    throw std::invalid_argument("flatten: design invalid: " + problems[0] +
                                (problems.size() > 1 ? " (+more)" : ""));
  }
  FlatNetlist out;
  FlattenCtx ctx{d, out, {}, {}, {}, {}};
  const Module& t = d.module(top);

  std::vector<std::uint32_t> local2flat(t.nets().size(), kUnset);
  for (const Port& p : t.ports()) {
    const std::uint32_t net = out.new_net(t.net(p.net).tie, p.name);
    if (local2flat[p.net.v] == kUnset) local2flat[p.net.v] = net;
    if (p.dir == PortDir::kIn) {
      out.add_primary_input(p.name, net);
    } else {
      out.add_primary_output(p.name, net);
    }
  }

  // Group 0 = gates directly in the top module; depth-1 submodule instances
  // each get their own group for path-group classification and placement.
  ctx.groups.map.emplace(top, out.intern_group(top));
  expand(ctx, t, std::move(local2flat), 0, "", true);
  return out;
}

}  // namespace syndcim::netlist
