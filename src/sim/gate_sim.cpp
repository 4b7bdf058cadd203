#include "sim/gate_sim.hpp"

#include <bit>
#include <stdexcept>

#include "cell/bind.hpp"

namespace syndcim::sim {

using cell::Kind;
using netlist::FlatNetlist;
using netlist::NetConst;

namespace {
using cell::kNoNet;
constexpr std::uint32_t kNoLevel = UINT32_MAX;

/// Splits "base[idx]" into (base, idx); idx < 0 when `name` is not a bus
/// bit.
std::pair<std::string_view, int> split_bus_bit(std::string_view name) {
  if (name.empty() || name.back() != ']') return {name, -1};
  const std::size_t open = name.rfind('[');
  if (open == std::string_view::npos || open + 2 > name.size() - 1) {
    return {name, -1};
  }
  int idx = 0;
  for (std::size_t i = open + 1; i + 1 < name.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return {name, -1};
    idx = idx * 10 + (c - '0');
  }
  return {name.substr(0, open), idx};
}

void index_ports(const std::vector<FlatNetlist::PrimaryIo>& ios,
                 std::unordered_map<std::string, std::uint32_t>& by_name,
                 std::unordered_map<std::string, std::vector<std::uint32_t>>&
                     by_bus) {
  for (const auto& io : ios) {
    by_name.emplace(io.name, io.net);
    const auto [base, idx] = split_bus_bit(io.name);
    if (idx < 0) continue;
    auto& bits = by_bus[std::string(base)];
    if (bits.size() <= static_cast<std::size_t>(idx)) {
      bits.resize(static_cast<std::size_t>(idx) + 1, kNoNet);
    }
    bits[static_cast<std::size_t>(idx)] = io.net;
  }
}
}  // namespace

GateSim::GateSim(const FlatNetlist& nl, const cell::Library& lib, int lanes)
    : nl_(nl), lanes_(lanes) {
  if (lanes < 1 || lanes > 64) {
    throw std::invalid_argument("GateSim: lanes must be in [1, 64]");
  }
  mask_ = lanes == 64 ? ~0ull : (1ull << lanes) - 1;

  const cell::Binding b = cell::bind(nl, lib, "GateSim");
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

  const auto levels = cell::levelize(b, "GateSim");
  for (const auto& level : levels) comb_total_ += level.size();

  // Event-driven bookkeeping: per-gate level and per-net comb-load CSR.
  gate_level_.assign(ngates, kNoLevel);
  for (std::uint32_t l = 0; l < levels.size(); ++l) {
    for (const std::uint32_t g : levels[l]) gate_level_[g] = l;
  }
  std::vector<std::uint32_t> load_count(nl.net_count() + 1, 0);
  for (std::uint32_t g = 0; g < ngates; ++g) {
    if (gate_level_[g] == kNoLevel) continue;
    for (std::uint32_t i = gate_pin_start_[g];
         i < gate_pin_start_[g] + gate_n_in_[g]; ++i) {
      ++load_count[pin_pool_[i]];
    }
  }
  load_start_.assign(nl.net_count() + 1, 0);
  for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
    load_start_[n + 1] = load_start_[n] + load_count[n];
  }
  load_pool_.assign(load_start_[nl.net_count()], 0);
  std::vector<std::uint32_t> fill(nl.net_count(), 0);
  for (std::uint32_t g = 0; g < ngates; ++g) {
    if (gate_level_[g] == kNoLevel) continue;
    for (std::uint32_t i = gate_pin_start_[g];
         i < gate_pin_start_[g] + gate_n_in_[g]; ++i) {
      const std::uint32_t net = pin_pool_[i];
      load_pool_[load_start_[net] + fill[net]++] = g;
    }
  }
  dirty_.resize(levels.size());
  in_dirty_.assign(ngates, 0);
  // Everything starts unsettled: the first eval() performs one full sweep.
  for (std::uint32_t l = 0; l < levels.size(); ++l) {
    dirty_[l] = levels[l];
    for (const std::uint32_t g : levels[l]) in_dirty_[g] = 1;
  }

  values_.assign(nl.net_count(), 0);
  for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
    if (nl.net_const(n) == NetConst::kOne) values_[n] = mask_;
  }
  state_.assign(ngates, 0);
  toggles_.assign(nl.net_count(), 0);

  index_ports(nl.primary_inputs(), in_net_, in_bus_);
  index_ports(nl.primary_outputs(), out_net_, out_bus_);
}

std::uint32_t GateSim::input_net(std::string_view port) const {
  const auto it = in_net_.find(std::string(port));
  if (it == in_net_.end()) {
    throw std::out_of_range("GateSim: no input " + std::string(port));
  }
  return it->second;
}

const std::vector<std::uint32_t>& GateSim::input_bus_nets(
    std::string_view base) const {
  const auto it = in_bus_.find(std::string(base));
  if (it == in_bus_.end()) {
    throw std::out_of_range("GateSim: no input bus " + std::string(base));
  }
  for (const std::uint32_t net : it->second) {
    if (net == kNoNet) {
      throw std::out_of_range("GateSim: input bus " + std::string(base) +
                              " has missing bits");
    }
  }
  return it->second;
}

const std::vector<std::uint32_t>& GateSim::output_bus_nets(
    std::string_view base) const {
  const auto it = out_bus_.find(std::string(base));
  if (it == out_bus_.end()) {
    throw std::out_of_range("GateSim: no output bus " + std::string(base));
  }
  for (const std::uint32_t net : it->second) {
    if (net == kNoNet) {
      throw std::out_of_range("GateSim: output bus " + std::string(base) +
                              " has missing bits");
    }
  }
  return it->second;
}

void GateSim::mark_loads_dirty(std::uint32_t net) {
  for (std::uint32_t i = load_start_[net]; i < load_start_[net + 1]; ++i) {
    const std::uint32_t g = load_pool_[i];
    if (!in_dirty_[g]) {
      in_dirty_[g] = 1;
      dirty_[gate_level_[g]].push_back(g);
    }
  }
}

void GateSim::write_net(std::uint32_t net, std::uint64_t word) {
  const std::uint64_t prev = values_[net];
  if (prev == word) return;
  values_[net] = word;
  toggles_[net] += static_cast<std::uint64_t>(std::popcount(prev ^ word));
  mark_loads_dirty(net);
}

void GateSim::set_input(std::string_view port, int value) {
  write_net(input_net(port), value ? mask_ : 0);
}

void GateSim::set_input_word(std::string_view port, std::uint64_t word) {
  write_net(input_net(port), word & mask_);
}

void GateSim::set_input_bus(std::string_view base, std::uint64_t value,
                            int width) {
  const auto& bits = input_bus_nets(base);
  if (static_cast<std::size_t>(width) > bits.size()) {
    throw std::out_of_range("GateSim: bus " + std::string(base) +
                            " narrower than requested width");
  }
  for (int i = 0; i < width; ++i) {
    write_net(bits[static_cast<std::size_t>(i)],
              ((value >> i) & 1u) ? mask_ : 0);
  }
}

void GateSim::set_input_bus_lanes(std::string_view base,
                                  const std::vector<std::uint64_t>& values,
                                  int width) {
  if (values.size() != static_cast<std::size_t>(lanes_)) {
    throw std::invalid_argument(
        "GateSim::set_input_bus_lanes: one value per lane required");
  }
  const auto& bits = input_bus_nets(base);
  if (static_cast<std::size_t>(width) > bits.size()) {
    throw std::out_of_range("GateSim: bus " + std::string(base) +
                            " narrower than requested width");
  }
  // Transpose lane-major integers into one lane word per bus bit.
  for (int i = 0; i < width; ++i) {
    std::uint64_t word = 0;
    for (int l = 0; l < lanes_; ++l) {
      word |= ((values[static_cast<std::size_t>(l)] >> i) & 1u)
              << static_cast<unsigned>(l);
    }
    write_net(bits[static_cast<std::size_t>(i)], word);
  }
}

void GateSim::eval_gate(std::uint32_t g) {
  const std::uint32_t in0 = gate_pin_start_[g];
  const std::uint32_t n_in = gate_n_in_[g];
  const std::uint32_t out0 = in0 + n_in;
  const std::uint32_t out_end = gate_pin_start_[g + 1];
  const std::uint64_t m = mask_;
  auto v = [&](std::uint32_t idx) { return values_[pin_pool_[idx]]; };
  std::uint64_t o0 = 0, o1 = 0, o2 = 0;  // up to 3 outputs (CMP42)
  switch (kinds_[g]) {
    case Kind::kInv:
      o0 = ~v(in0) & m;
      break;
    case Kind::kBuf:
      o0 = v(in0);
      break;
    case Kind::kNand2:
      o0 = ~(v(in0) & v(in0 + 1)) & m;
      break;
    case Kind::kNor2:
      o0 = ~(v(in0) | v(in0 + 1)) & m;
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
      o0 = ~(v(in0) ^ v(in0 + 1)) & m;
      break;
    case Kind::kAoi21:
      o0 = ~((v(in0) & v(in0 + 1)) | v(in0 + 2)) & m;
      break;
    case Kind::kOai21:
      o0 = ~((v(in0) | v(in0 + 1)) & v(in0 + 2)) & m;
      break;
    case Kind::kOai22:
      o0 = ~((v(in0) | v(in0 + 1)) & (v(in0 + 2) | v(in0 + 3))) & m;
      break;
    case Kind::kMux2:
    case Kind::kPassGate1T:
    case Kind::kTGate2T: {
      const std::uint64_t s = v(in0 + 2);
      o0 = (s & v(in0 + 1)) | (~s & v(in0));
      break;
    }
    case Kind::kHalfAdder:
      o0 = v(in0) ^ v(in0 + 1);
      o1 = v(in0) & v(in0 + 1);
      break;
    case Kind::kFullAdder: {
      const std::uint64_t a = v(in0), b = v(in0 + 1), ci = v(in0 + 2);
      o0 = a ^ b ^ ci;
      o1 = (a & b) | (b & ci) | (a & ci);
      break;
    }
    case Kind::kCompressor42: {
      const std::uint64_t a = v(in0), b = v(in0 + 1), c = v(in0 + 2);
      const std::uint64_t d = v(in0 + 3), cin = v(in0 + 4);
      const std::uint64_t s1 = a ^ b ^ c;
      o2 = (a & b) | (b & c) | (a & c);        // COUT
      o0 = s1 ^ d ^ cin;                       // S
      o1 = (s1 & d) | (d & cin) | (s1 & cin);  // C
      break;
    }
    default:
      return;  // sequential handled by step()
  }
  const std::uint64_t outs[3] = {o0, o1, o2};
  int k = 0;
  for (std::uint32_t i = out0; i < out_end; ++i, ++k) {
    const std::uint32_t net = pin_pool_[i];
    if (net == kNoNet) continue;
    write_net(net, outs[k]);
  }
}

void GateSim::eval() {
  // Push sequential state onto Q nets first.
  for (const std::uint32_t g : seq_gates_) {
    const std::uint32_t qi = gate_pin_start_[g] + gate_n_in_[g];
    const std::uint32_t net = pin_pool_[qi];
    if (net == kNoNet) continue;
    write_net(net, state_[g]);
  }
  std::uint64_t evaluated = 0;
  for (auto& level : dirty_) {
    // A gate's fan-in is driven strictly below its level, so nothing
    // re-dirties this bucket while we drain it.
    for (const std::uint32_t g : level) {
      in_dirty_[g] = 0;
      eval_gate(g);
    }
    evaluated += level.size();
    level.clear();
  }
  gate_evals_ += evaluated;
  events_skipped_ += comb_total_ - evaluated;
}

void GateSim::step() {
  eval();
  for (const std::uint32_t g : seq_gates_) {
    const std::uint32_t in0 = gate_pin_start_[g];
    auto v = [&](std::uint32_t idx) { return values_[pin_pool_[idx]]; };
    switch (kinds_[g]) {
      case Kind::kDff:  // D,CK
        state_[g] = v(in0);
        break;
      case Kind::kDffEn: {  // D,E,CK
        const std::uint64_t e = v(in0 + 1);
        state_[g] = (e & v(in0)) | (~e & state_[g]);
        break;
      }
      case Kind::kLatch: {  // D,G
        const std::uint64_t en = v(in0 + 1);
        state_[g] = (en & v(in0)) | (~en & state_[g]);
        break;
      }
      case Kind::kSram6T:
      case Kind::kSram8T:
      case Kind::kSram12T: {  // WL,D
        const std::uint64_t wl = v(in0);
        state_[g] = (wl & v(in0 + 1)) | (~wl & state_[g]);
        break;
      }
      default:
        break;
    }
  }
  ++cycles_;
}

int GateSim::output(std::string_view port) const {
  return static_cast<int>(output_word(port) & 1u);
}

std::uint64_t GateSim::output_word(std::string_view port) const {
  const auto it = out_net_.find(std::string(port));
  if (it == out_net_.end()) {
    throw std::out_of_range("GateSim: no output " + std::string(port));
  }
  return values_[it->second];
}

std::uint64_t GateSim::output_bus(std::string_view base, int width) const {
  return output_bus_lane(base, width, 0);
}

std::uint64_t GateSim::output_bus_lane(std::string_view base, int width,
                                       int lane) const {
  if (lane < 0 || lane >= lanes_) {
    throw std::out_of_range("GateSim::output_bus_lane: bad lane");
  }
  const auto& bits = output_bus_nets(base);
  if (static_cast<std::size_t>(width) > bits.size()) {
    throw std::out_of_range("GateSim: bus " + std::string(base) +
                            " narrower than requested width");
  }
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= ((values_[bits[static_cast<std::size_t>(i)]] >>
           static_cast<unsigned>(lane)) &
          1u)
         << i;
  }
  return v;
}

void GateSim::set_state(std::uint32_t gate_index, int value) {
  if (gate_index >= state_.size() ||
      cells_[gate_index]->timing_role() == cell::TimingRole::kCombinational) {
    throw std::invalid_argument("GateSim::set_state: not a sequential gate");
  }
  state_[gate_index] = value ? mask_ : 0;
}

int GateSim::state(std::uint32_t gate_index) const {
  return static_cast<int>(state_.at(gate_index) & 1u);
}

void GateSim::reset_activity() {
  toggles_.assign(toggles_.size(), 0);
  cycles_ = 0;
}

}  // namespace syndcim::sim
