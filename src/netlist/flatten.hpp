#pragma once
#include <cstdint>
#include <string>
#include <vector>

#include "netlist/design.hpp"

namespace syndcim::netlist {

/// Flattened gate-level view of a hierarchical design. All hierarchy is
/// expanded; nets are globally indexed; cell masters and pin names are
/// interned, and every downstream engine (STA, simulation, activity,
/// power, layout) resolves them once against the cell library through
/// cell::bind, which looks each master and each (master, pin name) pair
/// up once.
class FlatNetlist {
 public:
  struct PinConn {
    std::uint32_t pin_name;  ///< index into pin_names()
    std::uint32_t net;       ///< flat net index
  };
  struct Gate {
    std::uint32_t master;    ///< index into master_names()
    std::uint32_t group;     ///< index into group_names(); top-level inst
    std::vector<PinConn> pins;
  };
  struct PrimaryIo {
    std::string name;
    std::uint32_t net;
  };

  [[nodiscard]] const std::vector<Gate>& gates() const { return gates_; }
  [[nodiscard]] std::size_t net_count() const { return net_consts_.size(); }
  [[nodiscard]] const std::vector<std::string>& master_names() const {
    return master_names_;
  }
  [[nodiscard]] const std::vector<std::string>& pin_names() const {
    return pin_names_;
  }
  /// Depth-1 instance names ("adder_tree", "ofu", ...); group 0 is the top
  /// module itself (gates placed directly in the top).
  [[nodiscard]] const std::vector<std::string>& group_names() const {
    return group_names_;
  }
  [[nodiscard]] const std::vector<PrimaryIo>& primary_inputs() const {
    return primary_inputs_;
  }
  [[nodiscard]] const std::vector<PrimaryIo>& primary_outputs() const {
    return primary_outputs_;
  }
  [[nodiscard]] NetConst net_const(std::uint32_t net) const {
    return net_consts_[net];
  }
  /// Best-effort hierarchical net name for reports and lint diagnostics
  /// ("<group>.<local name>"); may be empty for synthesized nets.
  [[nodiscard]] const std::string& net_name(std::uint32_t net) const {
    return net_names_[net];
  }

  /// Primary input/output net by port name; throws if absent.
  [[nodiscard]] std::uint32_t input_net(std::string_view name) const;
  [[nodiscard]] std::uint32_t output_net(std::string_view name) const;

  // --- construction (used by flatten()) ---
  std::uint32_t intern_master(const std::string& name);
  std::uint32_t intern_pin(const std::string& name);
  std::uint32_t intern_group(const std::string& name);
  std::uint32_t new_net(NetConst tie, std::string name = {});
  void add_gate(Gate g) { gates_.push_back(std::move(g)); }
  void add_primary_input(std::string name, std::uint32_t net) {
    primary_inputs_.push_back({std::move(name), net});
  }
  void add_primary_output(std::string name, std::uint32_t net) {
    primary_outputs_.push_back({std::move(name), net});
  }

 private:
  std::vector<Gate> gates_;
  std::vector<std::string> master_names_;
  std::vector<std::string> pin_names_;
  std::vector<std::string> group_names_;
  std::vector<NetConst> net_consts_;
  std::vector<std::string> net_names_;
  std::vector<PrimaryIo> primary_inputs_;
  std::vector<PrimaryIo> primary_outputs_;
};

/// "<group>/<master>#<gate>": how diagnostics and errors name a gate.
[[nodiscard]] std::string gate_label(const FlatNetlist& nl, std::uint32_t g);
/// The net's name, or "net#<id>" for a net without one.
[[nodiscard]] std::string net_label(const FlatNetlist& nl, std::uint32_t net);

/// Expands `top` and everything below it into a FlatNetlist.
/// Unconnected submodule input ports are an error; unconnected outputs get
/// fresh dangling nets.
[[nodiscard]] FlatNetlist flatten(const Design& d, const std::string& top);

}  // namespace syndcim::netlist
