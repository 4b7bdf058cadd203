#pragma once
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "num/fp_format.hpp"
#include "rtlgen/arch.hpp"

namespace syndcim::core {

/// User PPA preference weights (paper: "PPA preferences"); the searcher
/// ranks Pareto points by the weighted normalized objective.
struct PpaPreference {
  double power = 1.0;
  double area = 1.0;
  /// Extra reward for fmax headroom beyond the required frequency.
  double performance = 0.0;
};

/// Input specification of the SynDCIM compiler (paper Fig. 2): macro
/// architecture parameters plus performance constraints.
struct PerfSpec {
  // Architecture parameters.
  int rows = 64;
  int cols = 64;
  int mcr = 2;
  std::vector<int> input_bits = {4, 8};
  std::vector<int> weight_bits = {4, 8};
  std::vector<num::FpFormat> fp_formats = {};
  int fp_guard_bits = 2;

  // Performance constraints.
  double mac_freq_mhz = 800.0;
  double wupdate_freq_mhz = 800.0;
  double vdd = 0.9;
  /// Pre-layout guard band: the searcher closes timing at
  /// period * (1 - timing_margin) so the post-APR wire parasitics still
  /// meet the spec (standard synthesis-margin practice).
  double timing_margin = 0.10;
  PpaPreference pref;

  // Optional SPEC-defined subcircuit choices (Algorithm 1, step 1:
  // "if SPEC defined: set sc as SPEC-defined configuration").
  std::optional<rtlgen::BitcellKind> bitcell;
  std::optional<rtlgen::MuxStyle> mux;
  std::optional<rtlgen::AdderTreeStyle> tree_style;

  /// Base macro configuration with the paper's defaults applied.
  [[nodiscard]] rtlgen::MacroConfig base_config() const;
  /// Target MAC clock period in ps.
  [[nodiscard]] double period_ps() const;
  [[nodiscard]] double write_period_ps() const;
};

/// Canonical serialization of the PerfSpec fields that influence an
/// evaluation outcome: the timing knobs (frequencies, voltage, margin).
/// PPA *preference* weights are deliberately excluded — they only affect
/// final selection, so specs differing in preference alone share cache
/// entries. Doubles are rendered as hexfloat, so no two distinct values
/// collide by rounding. Stage artifact keys and the DSE evaluation key
/// both embed this string (dse::canonical_spec_knobs_key forwards here).
[[nodiscard]] std::string spec_knobs_key(const PerfSpec& s);

/// Canonical serialization of the *whole* spec: `spec_knobs_key` plus the
/// architecture parameters, precision lists, PPA preference weights and
/// SPEC-defined subcircuit choices. Two specs get the same string iff
/// every field that can influence a compile's outcome is identical — the
/// shard merge checks that every shard swept the same grid with this.
[[nodiscard]] std::string spec_full_key(const PerfSpec& s);

/// The one number parser of the spec vocabulary, the serve params and
/// the CLI's numeric flags: all of `value` must be the number. Anything
/// else — trailing characters, a value out of Int's range, an empty
/// string — throws std::invalid_argument naming `key` and `value`, so
/// `rows=32x` is not 32 and `rows=99999999999` is not a crash. Defined
/// for int and std::size_t.
template <typename Int = int>
[[nodiscard]] Int parse_int(const std::string& key, const std::string& value);

/// As parse_int, for a finite decimal number; `positive` also rejects
/// values <= 0 (the clocks and the supply voltage).
[[nodiscard]] double parse_number(const std::string& key,
                                  const std::string& value,
                                  bool positive = false);

/// A comma-separated list of parse_int values (`input_bits=4,8`).
[[nodiscard]] std::vector<int> parse_int_list(const std::string& key,
                                              const std::string& value);

/// Builds a PerfSpec from `key=value` string pairs — the shared parser
/// behind the CLI spec files / inline arguments and the serve protocol's
/// `"spec"` request object. Keys: rows, cols, mcr, input_bits (comma
/// list), weight_bits, fp (fp4|fp8|bf16|fp16 comma list), mac_mhz,
/// wupdate_mhz, vdd, pref_power, pref_area, pref_perf, bitcell
/// (6T|8T|12T), mux (pg|tg|oai22). Numbers go through parse_int and
/// parse_number; mac_mhz, wupdate_mhz and vdd must be > 0. Unknown keys
/// and malformed values throw std::invalid_argument.
[[nodiscard]] PerfSpec spec_from_kv(
    const std::map<std::string, std::string>& kv);

/// Named PPA preference presets (balanced|power|area|perf); throws
/// std::invalid_argument on anything else.
[[nodiscard]] PpaPreference named_pref(const std::string& name);

}  // namespace syndcim::core
