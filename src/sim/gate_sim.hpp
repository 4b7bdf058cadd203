#pragma once
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cell/library.hpp"
#include "netlist/flatten.hpp"

namespace syndcim::sim {

/// Two-valued levelized gate-level simulator with per-net toggle counting,
/// rebuilt as a 64-lane bit-parallel, event-driven engine.
///
/// Lane packing: every net holds one `uint64_t` word whose bits are up to
/// 64 independent stimulus streams ("lanes", PPSFP-style packing). Gates
/// evaluate all lanes at once with bitwise ops and toggles accumulate via
/// `popcount(prev ^ next)`, so one simulated cycle prices `lanes`
/// independent workload cycles. With `lanes == 1` the engine is
/// bit-identical to the retained scalar reference (`ScalarGateSim`):
/// every value, toggle count and cycle count matches exactly.
///
/// Event-driven scheduling: a per-level dirty-gate worklist makes `eval()`
/// visit only gates whose fan-in word actually changed since their last
/// evaluation, instead of sweeping every level. Because an unchanged
/// fan-in word can only reproduce the unchanged output word (gates are
/// pure), skipping a clean gate never changes a value or a toggle count.
///
/// Sequential semantics: DFF/DFFE/LATCH and SRAM bitcells hold one state
/// word per gate (64 independent lane states); `step()` evaluates
/// combinational logic with the current state, then captures the next
/// state on the (implicit, ideal) clock edge. Latches are simulated
/// edge-triggered like DFFs (the generators never emit transparent
/// latches on data paths). SRAM bitcells capture D when WL=1.
///
/// Port lookup: primary-port and bus-bit net ids are resolved once at
/// construction into hash maps (`"din3[2]"` → net), so the per-cycle
/// stimulus path does no string formatting and no linear netlist scans.
class GateSim {
 public:
  /// `lanes` in [1, 64].
  GateSim(const netlist::FlatNetlist& nl, const cell::Library& lib,
          int lanes = 1);

  // --- stimulus ---
  /// Broadcasts a scalar bit to every lane of the port's net.
  void set_input(std::string_view port, int value);
  /// Sets bus bits base[0..width) from the low bits of `value`, broadcast
  /// to every lane.
  void set_input_bus(std::string_view base, std::uint64_t value, int width);
  /// Per-lane stimulus: bit `l` of `word` drives lane `l`.
  void set_input_word(std::string_view port, std::uint64_t word);
  /// Per-lane bus stimulus: `values[l]` is lane `l`'s integer; bus bit
  /// base[i] gets bit `i` of it. `values.size()` must equal `lanes()`.
  void set_input_bus_lanes(std::string_view base,
                           const std::vector<std::uint64_t>& values,
                           int width);

  /// Settles combinational logic only (no state capture).
  void eval();
  /// eval() + capture registers/bitcells, counts one cycle.
  void step();

  // --- observation ---
  [[nodiscard]] int output(std::string_view port) const;  ///< lane 0
  [[nodiscard]] std::uint64_t output_word(std::string_view port) const;
  /// Lane-0 bus value (bit i = bus bit base[i]).
  [[nodiscard]] std::uint64_t output_bus(std::string_view base,
                                         int width) const;
  /// One lane's bus value.
  [[nodiscard]] std::uint64_t output_bus_lane(std::string_view base,
                                              int width, int lane) const;
  [[nodiscard]] int net_value(std::uint32_t net) const {
    return static_cast<int>(values_[net] & 1u);
  }
  [[nodiscard]] std::uint64_t net_word(std::uint32_t net) const {
    return values_[net];
  }

  /// Directly loads the state of a sequential/storage element by gate
  /// index, broadcast to every lane (used to preload SRAM weights without
  /// driving write cycles).
  void set_state(std::uint32_t gate_index, int value);
  [[nodiscard]] int state(std::uint32_t gate_index) const;  ///< lane 0
  [[nodiscard]] std::uint64_t state_word(std::uint32_t gate_index) const {
    return state_.at(gate_index);
  }
  /// Gate indices of all bitcells, in netlist order.
  [[nodiscard]] const std::vector<std::uint32_t>& bitcell_gates() const {
    return bitcells_;
  }

  // --- activity extraction for the power engine ---
  void reset_activity();
  /// Per-net lane-transition counts: popcount-summed over all lanes, so
  /// the per-workload-cycle rate is toggles / (cycles() * lanes()).
  [[nodiscard]] const std::vector<std::uint64_t>& net_toggles() const {
    return toggles_;
  }
  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }
  [[nodiscard]] int lanes() const { return lanes_; }

  // --- scheduler statistics (obs: sim.gate_evals / sim.events_skipped) ---
  /// Combinational gate evaluations actually performed.
  [[nodiscard]] std::uint64_t gate_evals() const { return gate_evals_; }
  /// Evaluations a full level sweep would have performed but the dirty
  /// worklist skipped.
  [[nodiscard]] std::uint64_t events_skipped() const {
    return events_skipped_;
  }

  [[nodiscard]] std::size_t gate_count() const { return kinds_.size(); }
  [[nodiscard]] const cell::Cell& gate_cell(std::uint32_t g) const {
    return *cells_[g];
  }

 private:
  void eval_gate(std::uint32_t g);
  /// Writes a net word, counts lane toggles, and marks the net's
  /// combinational loads dirty.
  void write_net(std::uint32_t net, std::uint64_t word);
  void mark_loads_dirty(std::uint32_t net);
  [[nodiscard]] std::uint32_t input_net(std::string_view port) const;
  [[nodiscard]] const std::vector<std::uint32_t>& input_bus_nets(
      std::string_view base) const;
  [[nodiscard]] const std::vector<std::uint32_t>& output_bus_nets(
      std::string_view base) const;

  const netlist::FlatNetlist& nl_;
  int lanes_ = 1;
  std::uint64_t mask_ = 1;                // low `lanes_` bits set
  std::vector<const cell::Cell*> cells_;  // per gate
  std::vector<cell::Kind> kinds_;         // per gate
  // Pooled pin nets: inputs in canonical order, then outputs.
  std::vector<std::uint32_t> pin_pool_;
  std::vector<std::uint32_t> gate_pin_start_;  // size gates+1
  std::vector<std::uint8_t> gate_n_in_;

  std::vector<std::uint32_t> seq_gates_;  // registers + bitcells
  std::vector<std::uint32_t> bitcells_;

  // Event-driven worklist: per-net combinational loads (CSR), each comb
  // gate's level, per-level dirty lists and an in-worklist flag.
  std::vector<std::uint32_t> load_start_;  // size nets+1
  std::vector<std::uint32_t> load_pool_;
  std::vector<std::uint32_t> gate_level_;  // per gate; UINT32_MAX if seq
  std::vector<std::vector<std::uint32_t>> dirty_;  // per level
  std::vector<std::uint8_t> in_dirty_;             // per gate
  std::size_t comb_total_ = 0;

  // Port name -> net resolution, done once at construction.
  std::unordered_map<std::string, std::uint32_t> in_net_, out_net_;
  std::unordered_map<std::string, std::vector<std::uint32_t>> in_bus_,
      out_bus_;

  std::vector<std::uint64_t> values_;   // per net, one bit per lane
  std::vector<std::uint64_t> state_;    // per gate (sequential only)
  std::vector<std::uint64_t> toggles_;  // per net, summed over lanes
  std::uint64_t cycles_ = 0;
  std::uint64_t gate_evals_ = 0;
  std::uint64_t events_skipped_ = 0;
};

}  // namespace syndcim::sim
