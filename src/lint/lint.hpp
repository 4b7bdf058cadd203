#pragma once
#include <cstddef>
#include <string>

#include "cell/library.hpp"
#include "core/diag.hpp"
#include "netlist/design.hpp"
#include "netlist/flatten.hpp"

namespace syndcim::lint {

/// Rule ids emitted by the netlist lint pass (stable, machine-readable):
///   LINT-MULTIDRIVE    error    net driven by >1 output pin / const tie
///   LINT-FLOATING      error    net with loads but no driver
///   LINT-UNKNOWN-CELL  error    instance of a master the library lacks
///   LINT-UNKNOWN-PIN   error    connection to a pin the master lacks
///   LINT-UNCONNECTED   error    master input pin left unconnected
///                      warning  master output pin left unconnected
///   LINT-COMB-LOOP     error    combinational cycle (per SCC, members
///                               listed up to a cap)
///   LINT-WIDTH         error    module-boundary bus width mismatch
///   LINT-STRUCT        error    missing top, or a hierarchy flatten
///                               refuses (its NET-* findings explain why)
///   NET-*              error    netlist::validate's hierarchy findings,
///                               passed on under their own rule ids
///   LINT-CDC           warning  clock-domain crossing that bypasses a
///                               synchronizing register: a foreign-domain
///                               launch reaching a register data pin
///                               through combinational logic (a direct
///                               reg->reg hop is the synchronizer pattern
///                               and is allowed), or any foreign-domain
///                               launch reaching an SRAM write endpoint
///                               when a write clock is designated
///   LINT-DANGLING      info     driven net with no loads (unused output)

/// Cap on findings reported per rule; a trailing LINT-TRUNCATED note
/// counts the suppressed remainder so truncation is never silent.
inline constexpr std::size_t kMaxPerRule = 64;

/// Totals of one lint pass (what was *added* to the engine by this call).
struct LintSummary {
  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::size_t notes = 0;
  [[nodiscard]] bool clean() const { return errors == 0; }
};

/// Static analysis over a flattened gate-level netlist: driver rules,
/// pin-connectivity rules against the cell library, combinational-loop
/// detection (Tarjan SCC over the combinational gate graph), and
/// clock-domain-crossing endpoints. Findings land in `diag`; `source` of
/// each finding is the depth-1 subcircuit group of the offending gate.
///
/// `write_clock` names the primary-input port carrying the weight-update
/// clock. When set (and present), SRAM write pins (D/WL) become endpoints
/// of that domain and combinational fan-in from any other clock domain is
/// a crossing. When empty the write-domain check is skipped (reg->reg CDC
/// still runs).
LintSummary lint_netlist(const netlist::FlatNetlist& nl,
                         const cell::Library& lib, core::DiagEngine& diag,
                         const std::string& write_clock = "");

/// Hierarchical checks that need pre-flatten structure: the NET-*
/// findings of `netlist::validate` (unknown submodule or port, duplicate
/// instance name, recursive instantiation), unconnected submodule input
/// ports, and module-boundary bus width mismatches (an instance
/// connecting fewer or more bits of a bus port than its master declares
/// -> LINT-WIDTH).
LintSummary lint_design(const netlist::Design& d, const std::string& top,
                        core::DiagEngine& diag);

/// Every check `syndcim lint` and the serve daemon's `lint` method run on
/// a parsed design: lint_design over the hierarchy (which reports a
/// missing `top`), then lint_netlist over the flattening of `top`. A
/// hierarchy that flatten refuses becomes one LINT-STRUCT error. Traced
/// as `lint.design`, `lint.flatten` and `lint.netlist` spans.
/// `write_clock` is passed on to lint_netlist.
void lint_top(const netlist::Design& d, const std::string& top,
              const cell::Library& lib, core::DiagEngine& diag,
              const std::string& write_clock = "");

}  // namespace syndcim::lint
