#include "core/spec.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "tech/units.hpp"

namespace syndcim::core {

namespace {
/// Exact, locale-independent double rendering (round-trips via strtod).
std::string hexd(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::vector<int> parse_int_list(const std::string& s) {
  std::vector<int> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::stoi(item));
  return out;
}
}  // namespace

std::string spec_knobs_key(const PerfSpec& s) {
  std::ostringstream os;
  os << "spec{f" << hexd(s.mac_freq_mhz) << ",w" << hexd(s.wupdate_freq_mhz)
     << ",v" << hexd(s.vdd) << ",tm" << hexd(s.timing_margin) << "}";
  return os.str();
}

rtlgen::MacroConfig PerfSpec::base_config() const {
  rtlgen::MacroConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.mcr = mcr;
  cfg.input_bits = input_bits;
  cfg.weight_bits = weight_bits;
  cfg.fp_formats = fp_formats;
  cfg.fp_guard_bits = fp_guard_bits;

  // Algorithm 1 step 1: SPEC-defined subcircuits, else defaults. Defaults
  // follow the paper: bit-wise CSA (compressor-leaning mixed design with
  // carry reorder), TG+NOR mux, 6T bitcell, fully registered pipeline.
  cfg.bitcell = bitcell.value_or(rtlgen::BitcellKind::k6T);
  cfg.mux = mux.value_or(rtlgen::MuxStyle::kTGateNor);
  cfg.tree.style = tree_style.value_or(rtlgen::AdderTreeStyle::kMixed);
  cfg.tree.fa_fraction = 0.0;
  cfg.tree.carry_reorder = true;
  cfg.pipe.reg_after_tree = true;
  cfg.ofu.input_reg = true;
  cfg.column_split = 1;
  return cfg;
}

double PerfSpec::period_ps() const {
  return units::period_ps_from_mhz(mac_freq_mhz);
}

double PerfSpec::write_period_ps() const {
  return units::period_ps_from_mhz(wupdate_freq_mhz);
}

std::string spec_full_key(const PerfSpec& s) {
  std::ostringstream os;
  os << spec_knobs_key(s) << "|arch{r" << s.rows << ",c" << s.cols << ",m"
     << s.mcr << ",ib";
  for (const int b : s.input_bits) os << "." << b;
  os << ",wb";
  for (const int b : s.weight_bits) os << "." << b;
  os << ",fp";
  for (const num::FpFormat& f : s.fp_formats) {
    os << "." << f.exp_bits << "e" << f.man_bits;
  }
  os << ",g" << s.fp_guard_bits << "}|pref{" << hexd(s.pref.power) << ","
     << hexd(s.pref.area) << "," << hexd(s.pref.performance) << "}|sc{";
  os << (s.bitcell ? static_cast<int>(*s.bitcell) : -1) << ","
     << (s.mux ? static_cast<int>(*s.mux) : -1) << ","
     << (s.tree_style ? static_cast<int>(*s.tree_style) : -1) << "}";
  return os.str();
}

PpaPreference named_pref(const std::string& name) {
  if (name == "balanced") return {1.0, 1.0, 0.0};
  if (name == "power") return {2.0, 0.5, 0.0};
  if (name == "area") return {0.5, 2.0, 0.0};
  if (name == "perf") return {1.0, 1.0, 1.0};
  throw std::invalid_argument("unknown preference preset: " + name +
                              " (want balanced|power|area|perf)");
}

PerfSpec spec_from_kv(const std::map<std::string, std::string>& kv) {
  PerfSpec spec;
  for (const auto& [k, v] : kv) {
    if (k == "rows") {
      spec.rows = std::stoi(v);
    } else if (k == "cols") {
      spec.cols = std::stoi(v);
    } else if (k == "mcr") {
      spec.mcr = std::stoi(v);
    } else if (k == "input_bits") {
      spec.input_bits = parse_int_list(v);
    } else if (k == "weight_bits") {
      spec.weight_bits = parse_int_list(v);
    } else if (k == "fp") {
      std::stringstream ss(v);
      std::string f;
      while (std::getline(ss, f, ',')) {
        if (f == "fp4") {
          spec.fp_formats.push_back(num::kFp4);
        } else if (f == "fp8") {
          spec.fp_formats.push_back(num::kFp8);
        } else if (f == "bf16") {
          spec.fp_formats.push_back(num::kBf16);
        } else if (f == "fp16") {
          spec.fp_formats.push_back(num::kFp16);
        } else {
          throw std::invalid_argument("unknown fp format: " + f);
        }
      }
    } else if (k == "mac_mhz") {
      spec.mac_freq_mhz = std::stod(v);
    } else if (k == "wupdate_mhz") {
      spec.wupdate_freq_mhz = std::stod(v);
    } else if (k == "vdd") {
      spec.vdd = std::stod(v);
    } else if (k == "pref_power") {
      spec.pref.power = std::stod(v);
    } else if (k == "pref_area") {
      spec.pref.area = std::stod(v);
    } else if (k == "pref_perf") {
      spec.pref.performance = std::stod(v);
    } else if (k == "bitcell") {
      spec.bitcell = v == "8T" ? rtlgen::BitcellKind::k8T
                     : v == "12T" ? rtlgen::BitcellKind::k12T
                                  : rtlgen::BitcellKind::k6T;
    } else if (k == "mux") {
      spec.mux = v == "pg"      ? rtlgen::MuxStyle::kPassGate1T
                 : v == "oai22" ? rtlgen::MuxStyle::kOai22Fused
                                : rtlgen::MuxStyle::kTGateNor;
    } else {
      throw std::invalid_argument("unknown spec key: " + k);
    }
  }
  return spec;
}

}  // namespace syndcim::core
