#pragma once
#include <string>
#include <vector>

#include "core/compiler.hpp"

namespace syndcim::core {

/// Writes the complete hand-off bundle of a compiled macro into `dir`
/// (created if needed) — everything a back-end integration consumes:
///
///   macro.v          structural Verilog of the generated design
///   constraints.sdc  clocks, case analysis, design rules (Algorithm 1's
///                    "circuit constraints" output)
///   sdp_place.tcl    the scalable structured-data-path placement script
///   macro.def        the placement in DEF interchange format
///   cells.lib        the characterized cell library (Liberty-style)
///   datasheet.md     integrator-facing macro datasheet (interface,
///                    precision modes, latency, PPA by subsystem)
///   report.txt       search trail, selected point, signoff summary
///
/// `result` comes from SynDcimCompiler::compile: the DEF and the TCL are
/// written from `result.impl.flat`, the netlist the floorplan placed; a
/// result without one throws std::invalid_argument before any file is
/// written. Returns the list of file paths written. Throws on I/O failure.
std::vector<std::string> write_artifacts(const CompileResult& result,
                                         const PerfSpec& spec,
                                         const cell::Library& lib,
                                         const std::string& dir);

}  // namespace syndcim::core
