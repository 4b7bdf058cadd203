#pragma once
#include <cstdint>
#include <string>
#include <vector>

#include "cell/library.hpp"
#include "core/diag.hpp"
#include "netlist/flatten.hpp"
#include "rtlgen/arch.hpp"
#include "sta/sta.hpp"
#include "tech/tech_node.hpp"

namespace syndcim::layout {

struct Rect {
  double x = 0, y = 0, w = 0, h = 0;
  [[nodiscard]] double x2() const { return x + w; }
  [[nodiscard]] double y2() const { return y + h; }
  [[nodiscard]] double area() const { return w * h; }
};

/// Placement result: one rectangle per gate of the flattened netlist.
struct Floorplan {
  Rect outline;
  std::vector<Rect> gate_rects;
  std::vector<std::uint8_t> placed;
  double utilization = 0.0;     ///< cell area / outline area
  double wirelength_um = 0.0;   ///< total HPWL over all nets

  struct Region {
    std::string name;
    Rect rect;
  };
  std::vector<Region> regions;

  [[nodiscard]] const Region* region(std::string_view name) const;
};

/// Structured-data-path placement (paper Sec. III-D): bitcells of each
/// compute column on a regular grid, that column's mux/tree/S&A logic in a
/// strip beside it, write port below, WL drivers left, alignment unit
/// above and OFU groups to the right — the regular layout the scalable
/// Innovus SDP script produces.
///
/// Column groups are recognized by the `col<N>` name shape; a group whose
/// name does not parse as a full non-negative integer after "col" is
/// skipped and reported through `diag` (rule FP-BADGROUP) instead of
/// aborting the placement.
[[nodiscard]] Floorplan sdp_place(const netlist::FlatNetlist& nl,
                                  const cell::Library& lib,
                                  const rtlgen::MacroConfig& cfg,
                                  core::DiagEngine* diag = nullptr);

/// Ablation baseline: same cells packed row-major in shuffled order with
/// no structure (what undirected APR placement degenerates to for a
/// datapath this regular).
[[nodiscard]] Floorplan scattered_place(const netlist::FlatNetlist& nl,
                                        const cell::Library& lib,
                                        unsigned seed);

/// Total half-perimeter wirelength over all nets (gate centers as pins).
[[nodiscard]] double total_hpwl_um(const netlist::FlatNetlist& nl,
                                   const Floorplan& fp);

/// Per-net wire capacitance back-annotation for STA/power, with the
/// wire constants of `lib`'s technology node. Nets whose pins are mostly
/// clock pins are left to clock-tree synthesis (no wire cap).
[[nodiscard]] sta::WireModel extract_wire_model(const netlist::FlatNetlist& nl,
                                                const cell::Library& lib,
                                                const Floorplan& fp);

struct DrcReport {
  std::vector<std::string> violations;
  [[nodiscard]] bool clean() const { return violations.empty(); }
};
/// Checks: every gate placed, inside the outline, no overlaps, bitcells
/// pitch-aligned to their grid.
[[nodiscard]] DrcReport run_drc(const netlist::FlatNetlist& nl,
                                const cell::Library& lib,
                                const Floorplan& fp);

struct LvsReport {
  std::vector<std::string> mismatches;
  [[nodiscard]] bool clean() const { return mismatches.empty(); }
};
/// Layout-vs-schematic consistency: the placement database must contain
/// exactly the netlist's instances with footprints matching their masters.
[[nodiscard]] LvsReport run_lvs(const netlist::FlatNetlist& nl,
                                const cell::Library& lib,
                                const Floorplan& fp);

}  // namespace syndcim::layout
