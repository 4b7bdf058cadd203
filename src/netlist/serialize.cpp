#include "netlist/serialize.hpp"

#include "core/binio.hpp"

namespace syndcim::netlist {

using core::BinDecodeError;
using core::BinReader;
using core::BinWriter;
using core::deep_str_bytes;
using core::deep_vec_bytes;

namespace {

constexpr std::uint8_t kModuleVersion = 1;
constexpr std::uint8_t kBlockVersion = 2;
constexpr std::uint8_t kFlatVersion = 1;

void check_version(BinReader& r, std::uint8_t expect, const char* what) {
  if (r.u8() != expect) {
    throw BinDecodeError(std::string("unsupported codec version for ") + what);
  }
}

std::uint8_t enc_dir(PortDir d) { return d == PortDir::kOut ? 1 : 0; }
PortDir dec_dir(std::uint8_t v) {
  if (v > 1) throw BinDecodeError("bad PortDir");
  return v == 1 ? PortDir::kOut : PortDir::kIn;
}

std::uint8_t enc_tie(NetConst c) { return static_cast<std::uint8_t>(c); }
NetConst dec_tie(std::uint8_t v) {
  if (v > static_cast<std::uint8_t>(NetConst::kOne)) {
    throw BinDecodeError("bad NetConst");
  }
  return static_cast<NetConst>(v);
}

std::uint8_t enc_ref(FlatBlock::RefKind k) {
  return static_cast<std::uint8_t>(k);
}
FlatBlock::RefKind dec_ref(std::uint8_t v) {
  if (v > static_cast<std::uint8_t>(FlatBlock::RefKind::kConst1)) {
    throw BinDecodeError("bad RefKind");
  }
  return static_cast<FlatBlock::RefKind>(v);
}

}  // namespace

// --- Module ----------------------------------------------------------------

std::string encode_module(const Module& m) {
  BinWriter w;
  w.u8(kModuleVersion);
  w.str(m.name());
  w.u32(static_cast<std::uint32_t>(m.nets().size()));
  for (const Net& n : m.nets()) {
    w.str(n.name);
    w.u8(enc_tie(n.tie));
  }
  w.u32(static_cast<std::uint32_t>(m.ports().size()));
  for (const Port& p : m.ports()) {
    w.str(p.name);
    w.u8(enc_dir(p.dir));
    w.u32(p.net.v);
  }
  w.u32(static_cast<std::uint32_t>(m.instances().size()));
  for (const Instance& inst : m.instances()) {
    w.str(inst.name);
    w.str(inst.master);
    w.b(inst.is_cell);
    w.u32(static_cast<std::uint32_t>(inst.conns.size()));
    for (const Conn& c : inst.conns) {
      w.str(c.pin);
      w.u32(c.net.v);
    }
  }
  w.u32(m.const0_id().v);
  w.u32(m.const1_id().v);
  return w.take();
}

Module decode_module(std::string_view payload) {
  BinReader r(payload);
  check_version(r, kModuleVersion, "module");
  Module m(r.str());
  const std::uint32_t n_nets = r.len(5);
  for (std::uint32_t i = 0; i < n_nets; ++i) {
    const NetId id = m.add_net(r.str());
    m.restore_net_tie(id, dec_tie(r.u8()));
  }
  const std::uint32_t n_ports = r.len(9);
  for (std::uint32_t i = 0; i < n_ports; ++i) {
    std::string name = r.str();
    const PortDir dir = dec_dir(r.u8());
    const NetId net{r.u32()};
    if (!net.valid() || net.v >= n_nets) throw BinDecodeError("bad port net");
    m.restore_port(std::move(name), dir, net);
  }
  const std::uint32_t n_insts = r.len(13);
  for (std::uint32_t i = 0; i < n_insts; ++i) {
    std::string name = r.str();
    std::string master = r.str();
    const bool is_cell = r.b();
    const std::uint32_t n_conns = r.len(8);
    std::vector<Conn> conns;
    conns.reserve(n_conns);
    for (std::uint32_t c = 0; c < n_conns; ++c) {
      std::string pin = r.str();
      const NetId net{r.u32()};
      if (!net.valid() || net.v >= n_nets) throw BinDecodeError("bad conn net");
      conns.push_back(Conn{std::move(pin), net});
    }
    if (is_cell) {
      m.add_cell(std::move(name), std::move(master), std::move(conns));
    } else {
      m.add_submodule(std::move(name), std::move(master), std::move(conns));
    }
  }
  const NetId c0{r.u32()};
  const NetId c1{r.u32()};
  if ((c0.valid() && c0.v >= n_nets) || (c1.valid() && c1.v >= n_nets)) {
    throw BinDecodeError("bad const net id");
  }
  m.restore_consts(c0, c1);
  r.expect_end();
  return m;
}

std::size_t deep_bytes(const Module& m) {
  std::size_t n = deep_str_bytes(m.name());
  n += m.nets().size() * sizeof(Net);
  for (const Net& net : m.nets()) n += deep_str_bytes(net.name);
  n += m.ports().size() * sizeof(Port);
  for (const Port& p : m.ports()) n += deep_str_bytes(p.name);
  n += m.instances().size() * sizeof(Instance);
  for (const Instance& inst : m.instances()) {
    n += deep_str_bytes(inst.name) + deep_str_bytes(inst.master);
    n += inst.conns.size() * sizeof(Conn);
    for (const Conn& c : inst.conns) n += deep_str_bytes(c.pin);
  }
  return n;
}

// --- FlatBlock -------------------------------------------------------------

std::string encode_flat_block(const FlatBlock& b) {
  BinWriter w;
  w.u8(kBlockVersion);
  w.u32(static_cast<std::uint32_t>(b.ports.size()));
  for (const FlatBlock::PortInfo& p : b.ports) {
    w.str(p.name);
    w.u8(enc_dir(p.dir));
    w.u32(p.slot);
  }
  w.u32(static_cast<std::uint32_t>(b.slot_nets.size()));
  for (const std::uint32_t n : b.slot_nets) w.u32(n);
  w.u32(static_cast<std::uint32_t>(b.internals.size()));
  for (const FlatBlock::InternalNet& in : b.internals) {
    w.str(in.suffix);
    w.b(in.prefixed);
  }
  w.u32(static_cast<std::uint32_t>(b.alloc_seq.size()));
  for (const FlatBlock::AllocEvent& ev : b.alloc_seq) {
    w.u8(enc_ref(ev.kind));
    w.u32(ev.internal);
  }
  w.u32(static_cast<std::uint32_t>(b.master_names.size()));
  for (const std::string& s : b.master_names) w.str(s);
  w.u32(static_cast<std::uint32_t>(b.pin_names.size()));
  for (const std::string& s : b.pin_names) w.str(s);
  w.u32(static_cast<std::uint32_t>(b.gates.size()));
  for (const FlatBlock::Gate& g : b.gates) {
    w.u32(g.master);
    w.u32(static_cast<std::uint32_t>(g.pins.size()));
    for (const FlatBlock::PinConn& pc : g.pins) {
      w.u32(pc.pin);
      w.u8(enc_ref(pc.net.kind));
      w.u32(pc.net.index);
    }
  }
  return w.take();
}

FlatBlock decode_flat_block(std::string_view payload) {
  BinReader r(payload);
  check_version(r, kBlockVersion, "flat block");
  FlatBlock b;
  const std::uint32_t n_ports = r.len(9);
  b.ports.reserve(n_ports);
  for (std::uint32_t i = 0; i < n_ports; ++i) {
    FlatBlock::PortInfo p;
    p.name = r.str();
    p.dir = dec_dir(r.u8());
    p.slot = r.u32();
    b.ports.push_back(std::move(p));
  }
  const std::uint32_t n_slots = r.len(4);
  b.slot_nets.reserve(n_slots);
  for (std::uint32_t i = 0; i < n_slots; ++i) b.slot_nets.push_back(r.u32());
  const std::uint32_t n_internal = r.len(5);
  b.internals.reserve(n_internal);
  for (std::uint32_t i = 0; i < n_internal; ++i) {
    FlatBlock::InternalNet in;
    in.suffix = r.str();
    in.prefixed = r.b();
    b.internals.push_back(std::move(in));
  }
  const std::uint32_t n_alloc = r.len(5);
  b.alloc_seq.reserve(n_alloc);
  for (std::uint32_t i = 0; i < n_alloc; ++i) {
    FlatBlock::AllocEvent ev;
    ev.kind = dec_ref(r.u8());
    ev.internal = r.u32();
    b.alloc_seq.push_back(ev);
  }
  const std::uint32_t n_masters = r.len(4);
  b.master_names.reserve(n_masters);
  for (std::uint32_t i = 0; i < n_masters; ++i) {
    b.master_names.push_back(r.str());
  }
  const std::uint32_t n_pins = r.len(4);
  b.pin_names.reserve(n_pins);
  for (std::uint32_t i = 0; i < n_pins; ++i) b.pin_names.push_back(r.str());
  const std::uint32_t n_gates = r.len(8);
  b.gates.reserve(n_gates);
  for (std::uint32_t i = 0; i < n_gates; ++i) {
    FlatBlock::Gate g;
    g.master = r.u32();
    const std::uint32_t n_pc = r.len(9);
    g.pins.reserve(n_pc);
    for (std::uint32_t c = 0; c < n_pc; ++c) {
      FlatBlock::PinConn pc;
      pc.pin = r.u32();
      pc.net.kind = dec_ref(r.u8());
      pc.net.index = r.u32();
      g.pins.push_back(pc);
    }
    b.gates.push_back(std::move(g));
  }
  r.expect_end();
  return b;
}

std::size_t deep_bytes(const FlatBlock& b) {
  std::size_t n = deep_vec_bytes(b.ports) + deep_vec_bytes(b.slot_nets) +
                  deep_vec_bytes(b.internals) + deep_vec_bytes(b.alloc_seq) +
                  deep_vec_bytes(b.master_names) + deep_vec_bytes(b.pin_names) +
                  deep_vec_bytes(b.gates);
  for (const FlatBlock::PortInfo& p : b.ports) n += deep_str_bytes(p.name);
  for (const FlatBlock::InternalNet& in : b.internals) {
    n += deep_str_bytes(in.suffix);
  }
  for (const std::string& s : b.master_names) n += deep_str_bytes(s);
  for (const std::string& s : b.pin_names) n += deep_str_bytes(s);
  for (const FlatBlock::Gate& g : b.gates) n += deep_vec_bytes(g.pins);
  return n;
}

// --- FlatNetlist -----------------------------------------------------------

std::string encode_flat_netlist(const FlatNetlist& nl) {
  BinWriter w;
  w.u8(kFlatVersion);
  w.u32(static_cast<std::uint32_t>(nl.master_names().size()));
  for (const std::string& s : nl.master_names()) w.str(s);
  w.u32(static_cast<std::uint32_t>(nl.pin_names().size()));
  for (const std::string& s : nl.pin_names()) w.str(s);
  w.u32(static_cast<std::uint32_t>(nl.group_names().size()));
  for (const std::string& s : nl.group_names()) w.str(s);
  w.u32(static_cast<std::uint32_t>(nl.net_count()));
  for (std::uint32_t i = 0; i < nl.net_count(); ++i) {
    w.u8(enc_tie(nl.net_const(i)));
    w.str(nl.net_name(i));
  }
  w.u32(static_cast<std::uint32_t>(nl.gates().size()));
  for (const FlatNetlist::Gate& g : nl.gates()) {
    w.u32(g.master);
    w.u32(g.group);
    w.u32(static_cast<std::uint32_t>(g.pins.size()));
    for (const FlatNetlist::PinConn& pc : g.pins) {
      w.u32(pc.pin_name);
      w.u32(pc.net);
    }
  }
  w.u32(static_cast<std::uint32_t>(nl.primary_inputs().size()));
  for (const FlatNetlist::PrimaryIo& io : nl.primary_inputs()) {
    w.str(io.name);
    w.u32(io.net);
  }
  w.u32(static_cast<std::uint32_t>(nl.primary_outputs().size()));
  for (const FlatNetlist::PrimaryIo& io : nl.primary_outputs()) {
    w.str(io.name);
    w.u32(io.net);
  }
  return w.take();
}

FlatNetlist decode_flat_netlist(std::string_view payload) {
  BinReader r(payload);
  check_version(r, kFlatVersion, "flat netlist");
  FlatNetlist nl;
  const std::uint32_t n_masters = r.len(4);
  for (std::uint32_t i = 0; i < n_masters; ++i) {
    (void)nl.intern_master(r.str());
  }
  const std::uint32_t n_pins = r.len(4);
  for (std::uint32_t i = 0; i < n_pins; ++i) (void)nl.intern_pin(r.str());
  const std::uint32_t n_groups = r.len(4);
  for (std::uint32_t i = 0; i < n_groups; ++i) (void)nl.intern_group(r.str());
  const std::uint32_t n_nets = r.len(5);
  for (std::uint32_t i = 0; i < n_nets; ++i) {
    const NetConst tie = dec_tie(r.u8());
    (void)nl.new_net(tie, r.str());
  }
  const std::uint32_t n_gates = r.len(12);
  for (std::uint32_t i = 0; i < n_gates; ++i) {
    FlatNetlist::Gate g;
    g.master = r.u32();
    g.group = r.u32();
    if (g.master >= n_masters || g.group >= n_groups) {
      throw BinDecodeError("bad gate master/group index");
    }
    const std::uint32_t n_pc = r.len(8);
    g.pins.reserve(n_pc);
    for (std::uint32_t c = 0; c < n_pc; ++c) {
      FlatNetlist::PinConn pc;
      pc.pin_name = r.u32();
      pc.net = r.u32();
      if (pc.pin_name >= n_pins || pc.net >= n_nets) {
        throw BinDecodeError("bad gate pin/net index");
      }
      g.pins.push_back(pc);
    }
    nl.add_gate(std::move(g));
  }
  const std::uint32_t n_pi = r.len(8);
  for (std::uint32_t i = 0; i < n_pi; ++i) {
    std::string name = r.str();
    const std::uint32_t net = r.u32();
    if (net >= n_nets) throw BinDecodeError("bad primary input net");
    nl.add_primary_input(std::move(name), net);
  }
  const std::uint32_t n_po = r.len(8);
  for (std::uint32_t i = 0; i < n_po; ++i) {
    std::string name = r.str();
    const std::uint32_t net = r.u32();
    if (net >= n_nets) throw BinDecodeError("bad primary output net");
    nl.add_primary_output(std::move(name), net);
  }
  r.expect_end();
  return nl;
}

std::size_t deep_bytes(const FlatNetlist& nl) {
  std::size_t n = deep_vec_bytes(nl.gates()) +
                  deep_vec_bytes(nl.master_names()) +
                  deep_vec_bytes(nl.pin_names()) +
                  deep_vec_bytes(nl.group_names()) +
                  nl.net_count() * (sizeof(NetConst) + sizeof(std::string)) +
                  deep_vec_bytes(nl.primary_inputs()) +
                  deep_vec_bytes(nl.primary_outputs());
  for (const FlatNetlist::Gate& g : nl.gates()) n += deep_vec_bytes(g.pins);
  for (const std::string& s : nl.master_names()) n += deep_str_bytes(s);
  for (const std::string& s : nl.pin_names()) n += deep_str_bytes(s);
  for (const std::string& s : nl.group_names()) n += deep_str_bytes(s);
  for (std::uint32_t i = 0; i < nl.net_count(); ++i) {
    n += deep_str_bytes(nl.net_name(i));
  }
  for (const FlatNetlist::PrimaryIo& io : nl.primary_inputs()) {
    n += deep_str_bytes(io.name);
  }
  for (const FlatNetlist::PrimaryIo& io : nl.primary_outputs()) {
    n += deep_str_bytes(io.name);
  }
  return n;
}

}  // namespace syndcim::netlist
