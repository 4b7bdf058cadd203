#include "netlist/stitch.hpp"

#include <map>
#include <stdexcept>
#include <unordered_map>

namespace syndcim::netlist {

namespace {

constexpr std::uint32_t kUnset = UINT32_MAX;

// ---------------------------------------------------------------------------
// Content hashing

void hash_module(const Design& d, const std::string& name,
                 std::map<std::string, std::string>& memo,
                 core::ArtifactHasher& h);

const std::string& memoized_hash(const Design& d, const std::string& name,
                                 std::map<std::string, std::string>& memo) {
  const auto it = memo.find(name);
  if (it != memo.end()) return it->second;
  core::ArtifactHasher h;
  hash_module(d, name, memo, h);
  return memo.emplace(name, h.hex()).first->second;
}

void hash_module(const Design& d, const std::string& name,
                 std::map<std::string, std::string>& memo,
                 core::ArtifactHasher& h) {
  const Module& m = d.module(name);
  h.str("blkfmt1");
  h.u64(m.nets().size());
  for (const Net& n : m.nets()) {
    h.str(n.name);
    h.u32(static_cast<std::uint32_t>(n.tie));
  }
  h.u64(m.ports().size());
  for (const Port& p : m.ports()) {
    h.str(p.name);
    h.u32(static_cast<std::uint32_t>(p.dir));
    h.u32(p.net.v);
  }
  h.u64(m.instances().size());
  for (const Instance& inst : m.instances()) {
    h.b(inst.is_cell);
    h.str(inst.name);
    if (inst.is_cell) {
      h.str(inst.master);
    } else {
      h.str(memoized_hash(d, inst.master, memo));
    }
    h.u64(inst.conns.size());
    for (const Conn& c : inst.conns) {
      h.str(c.pin);
      h.u32(c.net.v);
    }
  }
}

// ---------------------------------------------------------------------------
// Block building: a faithful replay of flatten()'s expand(), recording
// relative references instead of emitting into a concrete FlatNetlist.

struct BlockInterner {
  std::unordered_map<std::string, std::uint32_t> map;
  std::vector<std::string>* names;
  std::uint32_t intern(const std::string& n) {
    const auto it = map.find(n);
    if (it != map.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(names->size());
    names->push_back(n);
    map.emplace(n, id);
    return id;
  }
};

struct BlockBuildCtx {
  const Design& design;
  FlatBlock& out;
  BlockInterner masters;
  BlockInterner pins;
  bool const0_seen = false;
  bool const1_seen = false;
};

using RefMap = std::unordered_map<std::uint32_t, FlatBlock::NetRef>;

void expand_into_block(BlockBuildCtx& ctx, const Module& m,
                       const RefMap& port_nets) {
  std::vector<FlatBlock::NetRef> local2ref(m.nets().size());
  std::vector<bool> assigned(m.nets().size(), false);
  for (const auto& [local, ref] : port_nets) {
    local2ref[local] = ref;
    assigned[local] = true;
  }

  auto local_ref = [&](NetId local) -> FlatBlock::NetRef {
    if (assigned[local.v]) return local2ref[local.v];
    const NetConst tie = m.net(local).tie;
    FlatBlock::NetRef ref;
    if (tie == NetConst::kZero) {
      if (!ctx.const0_seen) {
        ctx.const0_seen = true;
        ctx.out.alloc_seq.push_back({FlatBlock::RefKind::kConst0, 0});
      }
      ref = {FlatBlock::RefKind::kConst0, 0};
    } else if (tie == NetConst::kOne) {
      if (!ctx.const1_seen) {
        ctx.const1_seen = true;
        ctx.out.alloc_seq.push_back({FlatBlock::RefKind::kConst1, 0});
      }
      ref = {FlatBlock::RefKind::kConst1, 0};
    } else {
      const auto idx = static_cast<std::uint32_t>(ctx.out.internals.size());
      ctx.out.internals.push_back({m.net(local).name, /*prefixed=*/true});
      ctx.out.alloc_seq.push_back({FlatBlock::RefKind::kInternal, idx});
      ref = {FlatBlock::RefKind::kInternal, idx};
    }
    local2ref[local.v] = ref;
    assigned[local.v] = true;
    return ref;
  };

  for (const Instance& inst : m.instances()) {
    if (inst.is_cell) {
      FlatBlock::Gate g;
      g.master = ctx.masters.intern(inst.master);
      g.pins.reserve(inst.conns.size());
      for (const Conn& c : inst.conns) {
        g.pins.push_back({ctx.pins.intern(c.pin), local_ref(c.net)});
      }
      ctx.out.gates.push_back(std::move(g));
      continue;
    }
    const Module& sub = ctx.design.module(inst.master);
    RefMap sub_ports;
    for (const Conn& c : inst.conns) {
      const Port& p = sub.port(c.pin);
      sub_ports.emplace(p.net.v, local_ref(c.net));
    }
    for (const Port& p : sub.ports()) {
      if (sub_ports.contains(p.net.v)) continue;
      if (p.dir == PortDir::kIn) {
        throw std::invalid_argument("flatten: unconnected input port " +
                                    p.name + " on instance " + inst.name +
                                    " of " + sub.name());
      }
      // flatten() allocates a fresh dangling net named without the group
      // prefix at this depth; record it verbatim.
      const auto idx = static_cast<std::uint32_t>(ctx.out.internals.size());
      ctx.out.internals.push_back(
          {inst.name + "." + p.name + ".nc", /*prefixed=*/false});
      ctx.out.alloc_seq.push_back({FlatBlock::RefKind::kInternal, idx});
      sub_ports.emplace(p.net.v, FlatBlock::NetRef{
                                     FlatBlock::RefKind::kInternal, idx});
    }
    expand_into_block(ctx, sub, sub_ports);
  }
}

// ---------------------------------------------------------------------------
// Stitching

struct Interner {
  std::unordered_map<std::string, std::uint32_t> map;
};

std::uint32_t intern(Interner& in, const std::string& name, auto&& make) {
  const auto it = in.map.find(name);
  if (it != in.map.end()) return it->second;
  const std::uint32_t id = make(name);
  in.map.emplace(name, id);
  return id;
}

struct StitchCtx {
  FlatNetlist& out;
  Interner masters;
  Interner pins;
  Interner groups;
  std::uint32_t shared_const0 = kUnset;
  std::uint32_t shared_const1 = kUnset;
};

/// Splices one prebuilt block into the flat netlist under `group`.
/// `sub_ports` maps the block module's local port nets to flat nets chosen
/// by the caller — exactly the map flatten() hands to expand().
void splice_block(StitchCtx& ctx, const FlatBlock& blk, std::uint32_t group,
                  const std::unordered_map<std::uint32_t, std::uint32_t>&
                      sub_ports) {
  const std::string& group_name = ctx.out.group_names()[group];

  std::vector<std::uint32_t> slot_flat(blk.slot_nets.size());
  for (std::size_t i = 0; i < blk.slot_nets.size(); ++i) {
    slot_flat[i] = sub_ports.at(blk.slot_nets[i]);
  }

  // Replay net allocations in the order expand() would perform them so
  // global net indices (and the shared-const lazy allocation) line up.
  std::vector<std::uint32_t> internal_flat(blk.internals.size(), kUnset);
  for (const FlatBlock::AllocEvent& ev : blk.alloc_seq) {
    switch (ev.kind) {
      case FlatBlock::RefKind::kInternal: {
        const FlatBlock::InternalNet& in = blk.internals[ev.internal];
        internal_flat[ev.internal] = ctx.out.new_net(
            NetConst::kNone,
            in.prefixed ? group_name + "." + in.suffix : in.suffix);
        break;
      }
      case FlatBlock::RefKind::kConst0:
        if (ctx.shared_const0 == kUnset) {
          ctx.shared_const0 = ctx.out.new_net(NetConst::kZero, "const0");
        }
        break;
      case FlatBlock::RefKind::kConst1:
        if (ctx.shared_const1 == kUnset) {
          ctx.shared_const1 = ctx.out.new_net(NetConst::kOne, "const1");
        }
        break;
      case FlatBlock::RefKind::kPort:
        break;  // ports are never allocation events
    }
  }

  // Remap block-local master/pin ids to the design-wide interned tables in
  // gate emission order (the order flatten() would intern them in).
  std::vector<std::uint32_t> master_map(blk.master_names.size(), kUnset);
  std::vector<std::uint32_t> pin_map(blk.pin_names.size(), kUnset);
  auto resolve = [&](const FlatBlock::NetRef& ref) -> std::uint32_t {
    switch (ref.kind) {
      case FlatBlock::RefKind::kPort:
        return slot_flat[ref.index];
      case FlatBlock::RefKind::kInternal:
        return internal_flat[ref.index];
      case FlatBlock::RefKind::kConst0:
        return ctx.shared_const0;
      case FlatBlock::RefKind::kConst1:
        return ctx.shared_const1;
    }
    return kUnset;
  };
  for (const FlatBlock::Gate& bg : blk.gates) {
    FlatNetlist::Gate g;
    std::uint32_t& mm = master_map[bg.master];
    if (mm == kUnset) {
      mm = intern(ctx.masters, blk.master_names[bg.master],
                  [&](const std::string& n) {
                    return ctx.out.intern_master(n);
                  });
    }
    g.master = mm;
    g.group = group;
    g.pins.reserve(bg.pins.size());
    for (const FlatBlock::PinConn& bp : bg.pins) {
      std::uint32_t& pm = pin_map[bp.pin];
      if (pm == kUnset) {
        pm = intern(ctx.pins, blk.pin_names[bp.pin],
                    [&](const std::string& n) {
                      return ctx.out.intern_pin(n);
                    });
      }
      g.pins.push_back({pm, resolve(bp.net)});
    }
    ctx.out.add_gate(std::move(g));
  }
}

}  // namespace

FlatBlock flatten_block(const Design& d, const std::string& module_name) {
  const Module& m = d.module(module_name);
  FlatBlock blk;
  BlockBuildCtx ctx{d, blk, {{}, &blk.master_names}, {{}, &blk.pin_names}};

  // Port slots: one per distinct port-backing net, in port order.
  RefMap port_refs;
  for (const Port& p : m.ports()) {
    const auto it = port_refs.find(p.net.v);
    std::uint32_t slot;
    if (it != port_refs.end()) {
      slot = it->second.index;
    } else {
      slot = static_cast<std::uint32_t>(blk.slot_nets.size());
      blk.slot_nets.push_back(p.net.v);
      port_refs.emplace(p.net.v,
                        FlatBlock::NetRef{FlatBlock::RefKind::kPort, slot});
    }
    blk.ports.push_back({p.name, p.dir, slot});
  }

  expand_into_block(ctx, m, port_refs);
  return blk;
}

StitchResult stitch_flatten(const Design& d, const std::string& top,
                            FlatBlockCache* cache) {
  const std::vector<std::string> problems = validate(d, top);
  if (!problems.empty()) {
    throw std::invalid_argument("flatten: design invalid: " + problems[0] +
                                (problems.size() > 1 ? " (+more)" : ""));
  }

  StitchResult res;
  FlatNetlist& out = res.nl;
  StitchCtx ctx{out};
  const Module& m = d.module(top);

  std::map<std::string, std::string> hash_memo;
  // Blocks already obtained this call, by module name (identical bodies
  // expand once even with no external cache).
  std::unordered_map<std::string, std::shared_ptr<const FlatBlock>> local;

  std::unordered_map<std::uint32_t, std::uint32_t> top_ports;
  for (const Port& p : m.ports()) {
    const std::uint32_t net = out.new_net(m.net(p.net).tie, p.name);
    top_ports.emplace(p.net.v, net);
    if (p.dir == PortDir::kIn) {
      out.add_primary_input(p.name, net);
    } else {
      out.add_primary_output(p.name, net);
    }
  }

  const std::uint32_t top_group = out.intern_group(top);
  ctx.groups.map.emplace(top, top_group);

  std::vector<std::uint32_t> local2flat(m.nets().size(), kUnset);
  for (const auto& [local_net, flat] : top_ports) local2flat[local_net] = flat;
  auto flat_net = [&](NetId local_id) -> std::uint32_t {
    std::uint32_t& slot = local2flat[local_id.v];
    if (slot != kUnset) return slot;
    const NetConst tie = m.net(local_id).tie;
    if (tie == NetConst::kZero) {
      if (ctx.shared_const0 == kUnset) {
        ctx.shared_const0 = out.new_net(tie, "const0");
      }
      slot = ctx.shared_const0;
    } else if (tie == NetConst::kOne) {
      if (ctx.shared_const1 == kUnset) {
        ctx.shared_const1 = out.new_net(tie, "const1");
      }
      slot = ctx.shared_const1;
    } else {
      slot = out.new_net(tie, m.net(local_id).name);
    }
    return slot;
  };

  for (const Instance& inst : m.instances()) {
    if (inst.is_cell) {
      FlatNetlist::Gate g;
      g.master = intern(ctx.masters, inst.master, [&](const std::string& n) {
        return out.intern_master(n);
      });
      g.group = top_group;
      for (const Conn& c : inst.conns) {
        const std::uint32_t pin =
            intern(ctx.pins, c.pin,
                   [&](const std::string& n) { return out.intern_pin(n); });
        g.pins.push_back({pin, flat_net(c.net)});
      }
      out.add_gate(std::move(g));
      continue;
    }
    const std::uint32_t group = intern(
        ctx.groups, inst.name,
        [&](const std::string& n) { return out.intern_group(n); });
    const Module& sub = d.module(inst.master);
    std::unordered_map<std::uint32_t, std::uint32_t> sub_ports;
    for (const Conn& c : inst.conns) {
      const Port& p = sub.port(c.pin);
      sub_ports.emplace(p.net.v, flat_net(c.net));
    }
    for (const Port& p : sub.ports()) {
      if (sub_ports.contains(p.net.v)) continue;
      if (p.dir == PortDir::kIn) {
        throw std::invalid_argument("flatten: unconnected input port " +
                                    p.name + " on instance " + inst.name);
      }
      sub_ports.emplace(p.net.v,
                        out.new_net(NetConst::kNone,
                                    inst.name + "." + p.name + ".nc"));
    }

    // Obtain the block: per-call memo, then the shared tier, then build.
    std::shared_ptr<const FlatBlock> blk;
    const auto lit = local.find(inst.master);
    if (lit != local.end()) {
      blk = lit->second;
      ++res.stats.blocks_reused;
    } else {
      bool built = false;
      const auto build = [&] {
        built = true;
        return flatten_block(d, inst.master);
      };
      blk = cache ? cache->get_or_compute(
                        memoized_hash(d, inst.master, hash_memo), build)
                  : std::make_shared<const FlatBlock>(build());
      ++(built ? res.stats.blocks_built : res.stats.blocks_reused);
      local.emplace(inst.master, blk);
    }
    res.stats.gates_spliced += blk->gate_count();
    ++res.stats.blocks_spliced;
    splice_block(ctx, *blk, group, sub_ports);
  }
  return res;
}

bool flat_netlist_equal(const FlatNetlist& a, const FlatNetlist& b) {
  if (a.net_count() != b.net_count()) return false;
  for (std::uint32_t n = 0; n < a.net_count(); ++n) {
    if (a.net_const(n) != b.net_const(n)) return false;
    if (a.net_name(n) != b.net_name(n)) return false;
  }
  if (a.master_names() != b.master_names()) return false;
  if (a.pin_names() != b.pin_names()) return false;
  if (a.group_names() != b.group_names()) return false;
  const auto io_equal = [](const std::vector<FlatNetlist::PrimaryIo>& x,
                           const std::vector<FlatNetlist::PrimaryIo>& y) {
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i].name != y[i].name || x[i].net != y[i].net) return false;
    }
    return true;
  };
  if (!io_equal(a.primary_inputs(), b.primary_inputs())) return false;
  if (!io_equal(a.primary_outputs(), b.primary_outputs())) return false;
  if (a.gates().size() != b.gates().size()) return false;
  for (std::size_t i = 0; i < a.gates().size(); ++i) {
    const FlatNetlist::Gate& ga = a.gates()[i];
    const FlatNetlist::Gate& gb = b.gates()[i];
    if (ga.master != gb.master || ga.group != gb.group) return false;
    if (ga.pins.size() != gb.pins.size()) return false;
    for (std::size_t p = 0; p < ga.pins.size(); ++p) {
      if (ga.pins[p].pin_name != gb.pins[p].pin_name ||
          ga.pins[p].net != gb.pins[p].net) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace syndcim::netlist
