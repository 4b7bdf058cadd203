#include <algorithm>
#include <chrono>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "cell/characterize.hpp"
#include "dse/eval_cache.hpp"
#include "serve/json.hpp"
#include "tech/tech_node.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string join_rounded(const std::vector<double>& v) {
  std::string s;
  char buf[32];
  for (const double x : v) {
    std::snprintf(buf, sizeof buf, "%s%.1f", s.empty() ? "" : ",", x);
    s += buf;
  }
  return s;
}

double overhead_pct(const std::vector<double>& traced,
                    const std::vector<double>& untraced) {
  const double base = median(untraced);
  return base > 0 ? 100.0 * (median(traced) - base) / base : 0.0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string digest_hex(const std::string& bytes) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(syndcim::dse::fnv1a64(bytes)));
  return buf;
}

syndcim::cell::Library characterize_library(std::vector<double>& setup_s) {
  const double t0 = now_s();
  for (int i = 1; i < kSetupBatch; ++i) {
    (void)syndcim::cell::characterize_default_library(
        syndcim::tech::make_default_40nm());
  }
  syndcim::cell::Library lib = syndcim::cell::characterize_default_library(
      syndcim::tech::make_default_40nm());
  setup_s.push_back((now_s() - t0) / kSetupBatch);
  return lib;
}

std::map<std::string, std::string> read_string_map(const std::string& path) {
  syndcim::serve::JsonValue doc;
  std::string err;
  if (!syndcim::serve::json_parse(read_file(path), &doc, &err) ||
      !doc.is_object()) {
    throw std::runtime_error(path + ": not a JSON object (" + err + ")");
  }
  std::map<std::string, std::string> out;
  for (const auto& [key, value] : doc.members()) {
    if (!value.is_string()) {
      throw std::runtime_error(path + ": value of '" + key +
                               "' is not a string");
    }
    out[key] = value.as_string();
  }
  return out;
}

std::uint64_t counter_value(const char* name) {
  return syndcim::obs::metrics().counter(name).value();
}

}  // namespace perfbench
