#include "sim/scalar_ref.hpp"

#include <stdexcept>

#include "cell/bind.hpp"

namespace syndcim::sim {

using cell::Kind;
using cell::kNoNet;
using netlist::FlatNetlist;
using netlist::NetConst;

ScalarGateSim::ScalarGateSim(const FlatNetlist& nl, const cell::Library& lib)
    : nl_(nl) {
  const cell::Binding b = cell::bind(nl, lib, "ScalarGateSim");
  const std::size_t ngates = b.cells.size();
  cells_ = b.cells;
  kinds_.reserve(ngates);
  gate_pin_start_.reserve(ngates + 1);
  gate_pin_start_.push_back(0);
  gate_n_in_.reserve(ngates);
  for (std::uint32_t g = 0; g < ngates; ++g) {
    const cell::Cell& c = *cells_[g];
    kinds_.push_back(c.kind);
    const auto nets = b.nets(g);
    int n_in = 0;
    for (std::size_t pi = 0; pi < nets.size(); ++pi) {
      if (!c.pins[pi].is_input) continue;
      ++n_in;
      pin_pool_.push_back(nets[pi]);
    }
    for (std::size_t pi = 0; pi < nets.size(); ++pi) {
      if (!c.pins[pi].is_input) pin_pool_.push_back(nets[pi]);
    }
    gate_n_in_.push_back(static_cast<std::uint8_t>(n_in));
    gate_pin_start_.push_back(static_cast<std::uint32_t>(pin_pool_.size()));
    if (c.timing_role() != cell::TimingRole::kCombinational) {
      seq_gates_.push_back(g);
      if (c.is_bitcell()) bitcells_.push_back(g);
    }
  }

  levels_ = cell::levelize(b, "ScalarGateSim");

  values_.assign(nl.net_count(), 0);
  for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
    if (nl.net_const(n) == NetConst::kOne) values_[n] = 1;
  }
  state_.assign(ngates, 0);
  toggles_.assign(nl.net_count(), 0);
}

void ScalarGateSim::set_input(std::string_view port, int value) {
  const std::uint32_t net = nl_.input_net(port);
  const std::int8_t v = value ? 1 : 0;
  if (values_[net] != v) {
    values_[net] = v;
    ++toggles_[net];
  }
}

void ScalarGateSim::set_input_bus(std::string_view base, std::uint64_t value,
                                  int width) {
  for (int i = 0; i < width; ++i) {
    set_input(netlist::bus_name(base, i),
              static_cast<int>((value >> i) & 1u));
  }
}

void ScalarGateSim::eval_gate(std::uint32_t g) {
  const std::uint32_t in0 = gate_pin_start_[g];
  const std::uint32_t n_in = gate_n_in_[g];
  const std::uint32_t out0 = in0 + n_in;
  const std::uint32_t out_end = gate_pin_start_[g + 1];
  auto v = [&](std::uint32_t idx) {
    return static_cast<int>(values_[pin_pool_[idx]]);
  };
  int o0 = 0, o1 = 0, o2 = 0;  // up to 3 outputs (CMP42)
  switch (kinds_[g]) {
    case Kind::kInv:
      o0 = v(in0) ^ 1;
      break;
    case Kind::kBuf:
      o0 = v(in0);
      break;
    case Kind::kNand2:
      o0 = (v(in0) & v(in0 + 1)) ^ 1;
      break;
    case Kind::kNor2:
      o0 = (v(in0) | v(in0 + 1)) ^ 1;
      break;
    case Kind::kAnd2:
      o0 = v(in0) & v(in0 + 1);
      break;
    case Kind::kOr2:
      o0 = v(in0) | v(in0 + 1);
      break;
    case Kind::kXor2:
      o0 = v(in0) ^ v(in0 + 1);
      break;
    case Kind::kXnor2:
      o0 = (v(in0) ^ v(in0 + 1)) ^ 1;
      break;
    case Kind::kAoi21:
      o0 = ((v(in0) & v(in0 + 1)) | v(in0 + 2)) ^ 1;
      break;
    case Kind::kOai21:
      o0 = ((v(in0) | v(in0 + 1)) & v(in0 + 2)) ^ 1;
      break;
    case Kind::kOai22:
      o0 = ((v(in0) | v(in0 + 1)) & (v(in0 + 2) | v(in0 + 3))) ^ 1;
      break;
    case Kind::kMux2:
    case Kind::kPassGate1T:
    case Kind::kTGate2T:
      o0 = v(in0 + 2) ? v(in0 + 1) : v(in0);
      break;
    case Kind::kHalfAdder:
      o0 = v(in0) ^ v(in0 + 1);
      o1 = v(in0) & v(in0 + 1);
      break;
    case Kind::kFullAdder: {
      const int a = v(in0), b = v(in0 + 1), ci = v(in0 + 2);
      o0 = a ^ b ^ ci;
      o1 = (a & b) | (b & ci) | (a & ci);
      break;
    }
    case Kind::kCompressor42: {
      const int a = v(in0), b = v(in0 + 1), c = v(in0 + 2);
      const int d = v(in0 + 3), cin = v(in0 + 4);
      const int s1 = a ^ b ^ c;
      o2 = (a & b) | (b & c) | (a & c);  // COUT
      o0 = s1 ^ d ^ cin;                 // S
      o1 = (s1 & d) | (d & cin) | (s1 & cin);  // C
      break;
    }
    default:
      return;  // sequential handled by step()
  }
  const int outs[3] = {o0, o1, o2};
  int k = 0;
  for (std::uint32_t i = out0; i < out_end; ++i, ++k) {
    const std::uint32_t net = pin_pool_[i];
    if (net == kNoNet) continue;
    const std::int8_t nv = static_cast<std::int8_t>(outs[k]);
    if (values_[net] != nv) {
      values_[net] = nv;
      ++toggles_[net];
    }
  }
}

void ScalarGateSim::eval() {
  // Push sequential state onto Q nets first.
  for (const std::uint32_t g : seq_gates_) {
    const std::uint32_t qi = gate_pin_start_[g] + gate_n_in_[g];
    const std::uint32_t net = pin_pool_[qi];
    if (net == kNoNet) continue;
    if (values_[net] != state_[g]) {
      values_[net] = state_[g];
      ++toggles_[net];
    }
  }
  for (const auto& level : levels_) {
    for (const std::uint32_t g : level) eval_gate(g);
  }
}

void ScalarGateSim::step() {
  eval();
  for (const std::uint32_t g : seq_gates_) {
    const std::uint32_t in0 = gate_pin_start_[g];
    auto v = [&](std::uint32_t idx) {
      return static_cast<std::int8_t>(values_[pin_pool_[idx]]);
    };
    switch (kinds_[g]) {
      case Kind::kDff:  // D,CK
        state_[g] = v(in0);
        break;
      case Kind::kDffEn:  // D,E,CK
        state_[g] = v(in0 + 1) ? v(in0) : state_[g];
        break;
      case Kind::kLatch:  // D,G
        state_[g] = v(in0 + 1) ? v(in0) : state_[g];
        break;
      case Kind::kSram6T:
      case Kind::kSram8T:
      case Kind::kSram12T:  // WL,D
        state_[g] = v(in0) ? v(in0 + 1) : state_[g];
        break;
      default:
        break;
    }
  }
  ++cycles_;
}

int ScalarGateSim::output(std::string_view port) const {
  return values_[nl_.output_net(port)];
}

std::uint64_t ScalarGateSim::output_bus(std::string_view base,
                                        int width) const {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<std::uint64_t>(output(netlist::bus_name(base, i)))
         << i;
  }
  return v;
}

void ScalarGateSim::set_state(std::uint32_t gate_index, int value) {
  if (gate_index >= state_.size() ||
      cells_[gate_index]->timing_role() == cell::TimingRole::kCombinational) {
    throw std::invalid_argument(
        "ScalarGateSim::set_state: not a sequential gate");
  }
  state_[gate_index] = value ? 1 : 0;
}

int ScalarGateSim::state(std::uint32_t gate_index) const {
  return state_.at(gate_index);
}

void ScalarGateSim::reset_activity() {
  toggles_.assign(toggles_.size(), 0);
  cycles_ = 0;
}

}  // namespace syndcim::sim
