#pragma once
#include <string>

#include "core/artifact_cache.hpp"
#include "netlist/design.hpp"
#include "rtlgen/arch.hpp"

namespace syndcim::rtlgen {

/// Shared subcircuit-module tier of the artifact cache: generated modules
/// keyed by their content key, reused across configurations that share a
/// subcircuit (elaborate-stage skip).
using ModuleCache = core::ArtifactCache<netlist::Module>;

/// A fully elaborated DCIM macro: hierarchical design plus the interface
/// contract (port names, cycle-level protocol, storage layout) shared by
/// the gate-level testbenches and the behavioral model.
///
/// Protocol (all cycles counted from the `load` cycle = cycle 0):
///   cycle 0          : load=1, parallel inputs applied (din / fp fields);
///                      clr/neg/cap low
///   cycles 1..IB     : compute; clr=1 and neg=1 on cycle 1 only
///                      (MSB-first two's complement serial input)
///   acc readable     : during cycle sa_done_cycles(IB) + 1
///   cap asserted     : during cycle sa_done_cycles(IB) + 1 (captures at
///                      its end; OFU registered outputs valid one cycle
///                      later, +1 more per tt5 pipeline register crossed)
///
/// Weight storage layout: bitcell for (col, row, bank) is the
/// (col*rows*mcr + row*mcr + bank)-th bitcell gate in flattening order.
/// A weight of precision p for (output o, row r) occupies columns
/// o*p + k (k=0..p-1, bit k in column o*p+k; MSB column two's complement
/// negative). The OAI22 mux style stores complemented bits (the write
/// port inverts the bitline, so external data is uncomplemented).
struct MacroDesign {
  netlist::Design design;
  std::string top = "dcim_macro";
  MacroConfig cfg;

  /// Cycles after `load` until the S&A accumulator has the full result.
  [[nodiscard]] int sa_done_cycles(int input_bits) const {
    return input_bits + (cfg.pipe.reg_after_tree ? 1 : 0);
  }
  /// Cycle (from load) during which OFU stage-`s` outputs are valid.
  [[nodiscard]] int ofu_valid_cycle(int input_bits, int stage) const;

  /// Flat bitcell index for (col, row, bank) in GateSim::bitcell_gates().
  [[nodiscard]] std::size_t bitcell_index(int col, int row, int bank) const {
    return static_cast<std::size_t>(col) * cfg.rows * cfg.mcr +
           static_cast<std::size_t>(row) * cfg.mcr +
           static_cast<std::size_t>(bank);
  }

  /// Output port base name for OFU group `g`, stage `s`, sub-result `j`.
  [[nodiscard]] static std::string out_bus(int g, int s, int j) {
    return "g" + std::to_string(g) + "_s" + std::to_string(s) + "_r" +
           std::to_string(j);
  }

  /// Quasi-static configuration ports (bank select, precision mode, FP
  /// select) for STA case analysis.
  [[nodiscard]] std::vector<std::string> static_control_ports() const;

  /// Cycles the alignment unit pipeline needs between applying FP fields
  /// and asserting `load` (0 for INT-only macros).
  [[nodiscard]] int align_latency() const;
};

/// Elaborates the complete macro (validates `cfg` first). With `modules`
/// set, each subcircuit and the top module come from that tier under
/// their content keys (see rtlgen/content_key.hpp), generated on a miss —
/// the output is identical either way (cached modules are exact copies).
[[nodiscard]] MacroDesign gen_macro(const MacroConfig& cfg);
[[nodiscard]] MacroDesign gen_macro(const MacroConfig& cfg,
                                    ModuleCache* modules);

}  // namespace syndcim::rtlgen
