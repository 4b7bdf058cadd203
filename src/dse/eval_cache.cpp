#include "dse/eval_cache.hpp"

#include <cstdio>
#include <sstream>

#include "core/artifact_cache.hpp"

namespace syndcim::dse {

namespace {

/// Exact, locale-independent double rendering (round-trips via strtod).
std::string hexd(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

}  // namespace

std::string canonical_config_key(const rtlgen::MacroConfig& c) {
  std::ostringstream os;
  os << "cfg{r" << c.rows << ",c" << c.cols << ",m" << c.mcr << ",ib";
  for (const int b : c.input_bits) os << '.' << b;
  os << ",wb";
  for (const int b : c.weight_bits) os << '.' << b;
  os << ",fp";
  for (const auto& f : c.fp_formats) os << '.' << f.name();
  os << ",g" << c.fp_guard_bits << ",bc" << static_cast<int>(c.bitcell)
     << ",mx" << static_cast<int>(c.mux)
     << ",tr{" << c.tree.rows << ',' << static_cast<int>(c.tree.style)
     << ',' << hexd(c.tree.fa_fraction) << ',' << c.tree.carry_reorder
     << ',' << c.tree.external_cpa << "}"
     << ",pp{" << c.pipe.reg_after_tree << ',' << c.pipe.retime_tree_cpa
     << "}"
     << ",of{" << c.ofu.input_reg << ',' << c.ofu.pipeline_regs << ','
     << c.ofu.retime_stage1 << "}"
     << ",sp" << c.column_split << "}";
  return os.str();
}

std::string canonical_spec_knobs_key(const core::PerfSpec& s) {
  // Single source of truth: stage artifact keys embed the same string, so
  // the frontier merge and the artifact tiers can never disagree about
  // what a "spec knob" is.
  return core::spec_knobs_key(s);
}

std::uint64_t fnv1a64(const std::string& s) {
  // 1469598103934665603 is the standard FNV-1a 64-bit offset basis
  // (14695981039346656037) with its last digit missing. Frontier point
  // ids and committed digests depend on this exact output, so the basis
  // is kept as it is.
  return core::artifact_fnv1a64(s.data(), s.size(), 1469598103934665603ull);
}

std::uint64_t hash_config(const rtlgen::MacroConfig& cfg) {
  return fnv1a64(canonical_config_key(cfg));
}

std::uint64_t hash_spec_knobs(const core::PerfSpec& s) {
  return fnv1a64(canonical_spec_knobs_key(s));
}

}  // namespace syndcim::dse
