#pragma once
#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace syndcim::core {

/// Severity policy: kError findings make the producing stage fail (the
/// compiler refuses to run STA/power on them, `syndcim lint` exits
/// non-zero); kWarning findings are suspicious but do not block the flow;
/// kInfo findings are observations (e.g. dangling driver-only nets on
/// unused subcircuit outputs).
enum class Severity { kInfo, kWarning, kError };

[[nodiscard]] const char* severity_name(Severity s);

/// One structured finding. `rule` is a stable machine-readable id
/// (e.g. "LINT-MULTIDRIVE", "LIB-BADNUM"); `object` names the net,
/// instance or pin the finding is about; `source` names where it came
/// from (a file path, or the subcircuit/group of a netlist finding);
/// `line` is the 1-based source line for file findings (-1 when n/a).
struct Diagnostic {
  Severity severity = Severity::kError;
  std::string rule;
  std::string message;
  std::string object;
  std::string source;
  int line = -1;
};

/// Collects diagnostics from every untrusted-input parse path and from the
/// netlist lint pass; one engine is threaded through a whole flow so the
/// final report covers all stages. Not thread-safe: share one engine per
/// thread (the parallel sweep lints frontier points sequentially).
class DiagEngine {
 public:
  void report(Diagnostic d);
  void error(std::string rule, std::string message, std::string object = "",
             std::string source = "", int line = -1);
  void warning(std::string rule, std::string message, std::string object = "",
               std::string source = "", int line = -1);
  void info(std::string rule, std::string message, std::string object = "",
            std::string source = "", int line = -1);

  [[nodiscard]] const std::vector<Diagnostic>& diags() const {
    return diags_;
  }
  [[nodiscard]] std::size_t count(Severity s) const;
  [[nodiscard]] std::size_t error_count() const {
    return count(Severity::kError);
  }
  [[nodiscard]] std::size_t warning_count() const {
    return count(Severity::kWarning);
  }
  [[nodiscard]] bool has_errors() const { return error_count() > 0; }

  /// Number of findings carrying `rule`.
  [[nodiscard]] std::size_t count_rule(std::string_view rule) const;
  /// First finding carrying `rule`, if any.
  [[nodiscard]] std::optional<Diagnostic> first_of(
      std::string_view rule) const;

  void clear() { diags_.clear(); }
  /// Appends every finding of `other`.
  void merge(const DiagEngine& other);

  /// "2 errors, 1 warning, 3 notes".
  [[nodiscard]] std::string summary() const;
  /// Human-readable listing, one finding per line:
  ///   error[LINT-MULTIDRIVE] net 'x' ... (source:line)
  void print(std::ostream& os) const;
  /// Machine-readable report:
  ///   {"format": "syndcim-diagnostics", "errors": N, "warnings": N,
  ///    "diagnostics": [{"severity", "rule", "message", "object",
  ///                     "source", "line"}, ...]}
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<Diagnostic> diags_;
};

}  // namespace syndcim::core
