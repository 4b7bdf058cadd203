#pragma once
#include <cstdint>
#include <memory>
#include <vector>

#include "cell/library.hpp"
#include "netlist/flatten.hpp"
#include "rtlgen/macro.hpp"
#include "sim/gate_sim.hpp"
#include "sim/macro_model.hpp"

namespace syndcim::sim {

/// Gate-level testbench for a generated macro: holds the flattened netlist
/// and a GateSim, and drives the cycle protocol documented on MacroDesign.
/// Used for functional verification against DcimMacroModel and for
/// activity extraction feeding the power engine.
///
/// With `lanes > 1` the testbench drives the bit-parallel engine: control
/// signals broadcast to every lane, while `run_mac_int_lanes` carries one
/// independent input vector per lane through a single pass of the cycle
/// protocol, so one protocol run prices `lanes` MAC workloads.
class MacroTestbench {
 public:
  /// Flattens `md` itself.
  MacroTestbench(const rtlgen::MacroDesign& md, const cell::Library& lib,
                 int lanes = 1);
  /// Simulates `flat`, which must be `md` flattened (the compiler passes
  /// its `map` stage's netlist, so the toggle counts it reads back index
  /// that same netlist).
  MacroTestbench(const rtlgen::MacroDesign& md,
                 std::shared_ptr<const netlist::FlatNetlist> flat,
                 const cell::Library& lib, int lanes = 1);

  [[nodiscard]] const netlist::FlatNetlist& netlist() const { return *flat_; }
  [[nodiscard]] GateSim& sim() { return *sim_; }

  /// Copies the model's weight storage straight into the bitcell states
  /// (complemented for the OAI22 mux style, mirroring the write port's
  /// inverting bitline driver).
  void preload_weights(const DcimMacroModel& model);

  /// Writes one row of one bank through the real write port (2 cycles).
  void write_row_via_port(int row, int bank, const std::vector<int>& bits);

  /// Full MAC through the gate-level pipeline; returns cols/wp outputs.
  /// (Drives lane 0; with lanes > 1 the other lanes see broadcast data.)
  [[nodiscard]] std::vector<std::int64_t> run_mac_int(
      const std::vector<std::int64_t>& inputs, int ib, int wp, int bank,
      bool signed_inputs = true);

  /// One protocol pass carrying an independent MAC per lane:
  /// `lane_inputs[l][r]` is lane l's row-r input (`lane_inputs.size()`
  /// must equal `lanes()`). Returns per-lane outputs, `[lane][col]`.
  [[nodiscard]] std::vector<std::vector<std::int64_t>> run_mac_int_lanes(
      const std::vector<std::vector<std::int64_t>>& lane_inputs, int ib,
      int wp, int bank, bool signed_inputs = true);

  /// FP MAC: drives the alignment unit with raw encodings; returns the
  /// integer mantissa results (compare with DcimMacroModel::mac_fp().raw).
  [[nodiscard]] std::vector<std::int64_t> run_mac_fp(
      const std::vector<std::uint32_t>& inputs, num::FpFormat fmt, int bank);

  /// Total cycles consumed so far (activity normalization).
  [[nodiscard]] std::uint64_t cycles() const { return sim_->cycles(); }
  [[nodiscard]] int lanes() const { return sim_->lanes(); }

 private:
  void set_bank_select(int bank);
  void set_mode(int wp);
  void idle_controls();
  [[nodiscard]] std::vector<std::int64_t> read_outputs(int wp,
                                                       int lane = 0);

  const rtlgen::MacroDesign& md_;
  std::shared_ptr<const netlist::FlatNetlist> flat_;
  std::unique_ptr<GateSim> sim_;
};

}  // namespace syndcim::sim
