#pragma once
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "cell/library.hpp"
#include "netlist/flatten.hpp"

namespace syndcim::cell {

/// Net of a cell pin left unconnected.
inline constexpr std::uint32_t kNoNet = UINT32_MAX;

/// The library cell of each interned master of a flat netlist and the
/// cell pin of each (master, pin name) pair its connections use, each
/// resolved by name once. A table reports what does not resolve instead
/// of refusing it: lint reads it directly.
struct PinTable {
  std::vector<const Cell*> masters;  ///< per master id; nullptr if unknown
  /// Cell pin index per (master, pin name id); -1 where the cell lacks
  /// the pin, the master is unknown or no connection uses the pair.
  std::vector<std::int16_t> pins;
  std::size_t n_pin_names = 0;

  [[nodiscard]] int pin(std::uint32_t master, std::uint32_t pin_name) const {
    return pins[master * n_pin_names + pin_name];
  }
};

[[nodiscard]] PinTable pin_table(const netlist::FlatNetlist& nl,
                                 const Library& lib);

/// A flat netlist bound to a cell library: the one place every analysis
/// engine (STA, both gate simulators, activity, power, layout) resolves
/// cells and pins. Net ids are the netlist's; gate ids its gate order.
struct Binding {
  PinTable table;
  std::vector<const Cell*> cells;  ///< per gate
  /// Net on each cell pin, a CSR indexed by cell pin: gate g's pin p is
  /// pin_nets[pin_begin[g] + p]; kNoNet when unconnected (outputs only).
  std::vector<std::uint32_t> pin_begin;  ///< per gate + 1
  std::vector<std::uint32_t> pin_nets;
  std::vector<std::int32_t> driver;  ///< per net: driving gate, -1 if none

  [[nodiscard]] std::span<const std::uint32_t> nets(std::uint32_t g) const {
    return {pin_nets.data() + pin_begin[g], pin_begin[g + 1] - pin_begin[g]};
  }
};

/// Binds `nl` to `lib`. Throws std::invalid_argument, with `who` as the
/// message prefix and the offending gate and pin or net named, on an
/// unknown master or pin, an unconnected input pin, a net driven by two
/// gate outputs, and a gate driving a constant net or a primary input.
[[nodiscard]] Binding bind(const netlist::FlatNetlist& nl, const Library& lib,
                           std::string_view who);

/// Topologically levelizes the combinational gates of a bound netlist:
/// returns rank buckets such that every gate's fan-in is driven only by
/// primary inputs, constants, sequential outputs, or gates in strictly
/// earlier buckets. This is the single levelization scheme shared by
/// StaEngine and the gate simulators (scalar and bit-parallel), including
/// its one combinational-loop check: if any combinational gate cannot be
/// scheduled, throws std::invalid_argument with `who` as the message
/// prefix and the number of unschedulable gates.
[[nodiscard]] std::vector<std::vector<std::uint32_t>> levelize(
    const Binding& b, std::string_view who);

}  // namespace syndcim::cell
