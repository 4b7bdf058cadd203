#pragma once
#include <istream>
#include <string>

#include "core/diag.hpp"
#include "netlist/design.hpp"

namespace syndcim::netlist {

/// Parses the structural-Verilog subset emitted by write_verilog():
/// scalar ports/wires, constant assigns, named-port instances. Port
/// directions come from body declarations or from an ANSI port list
/// (`module top(input a, b, output y);`). Instance
/// masters that match a parsed module become submodule instances;
/// everything else is a library-cell reference.
///
/// Without a DiagEngine, throws std::invalid_argument with a line number
/// on any syntax it does not understand (legacy behavior). With one,
/// malformed input never throws: syntax damage is recorded as a
/// VLOG-SYNTAX error (unsupported assigns as VLOG-BADASSIGN, duplicate
/// module names as VLOG-DUPMODULE) and the modules parsed so far are
/// returned for further linting.
///
/// Enables netlist round-trips: generate -> write -> parse -> flatten,
/// which the test suite checks for structural and functional equality.
[[nodiscard]] Design parse_verilog(std::istream& is,
                                   core::DiagEngine* diag = nullptr);

}  // namespace syndcim::netlist
