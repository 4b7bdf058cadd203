#pragma once
#include <map>
#include <string>
#include <vector>

#include "core/diag.hpp"
#include "netlist/module.hpp"

namespace syndcim::netlist {

/// Owns a set of modules keyed by name; submodule instances refer to
/// modules of the same Design.
class Design {
 public:
  /// Moves `m` in; throws on duplicate module name.
  Module& add_module(Module m);

  [[nodiscard]] const Module& module(std::string_view name) const;
  [[nodiscard]] Module& module(std::string_view name);
  [[nodiscard]] bool has_module(std::string_view name) const;
  [[nodiscard]] std::vector<std::string> module_names() const;
  /// Modules never instantiated as a submodule, in name order: the
  /// candidates for the top module. One root means the top is unambiguous.
  [[nodiscard]] std::vector<std::string> root_modules() const;

 private:
  std::map<std::string, Module, std::less<>> modules_;
};

/// Structural validation: every submodule master exists, every submodule
/// connection names a real port with matching existence, instance names are
/// unique within a module, and no module instances itself through any
/// chain of submodules. Returns human-readable problem list (empty if
/// clean).
[[nodiscard]] std::vector<std::string> validate(const Design& d,
                                                const std::string& top);

/// Structured validation: the same checks reported as NET-* diagnostics
/// (NET-NOTOP, NET-DUPINST, NET-NOMODULE, NET-NOPORT, NET-RECURSIVE) so
/// hierarchy findings land in the same text/JSON reports as lint and the
/// parsers.
/// Returns true when the design is clean under `top`.
bool validate(const Design& d, const std::string& top,
              core::DiagEngine& diag);

}  // namespace syndcim::netlist
