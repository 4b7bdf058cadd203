#pragma once
// Shared plumbing of the perfbench program: run arguments, the result a
// workload hands back to main(), timing statistics and the traced-run
// reducer. Each workload lives in its own translation unit
// (compile_wl.cpp, sweep_wl.cpp, serve_wl.cpp).
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cell/library.hpp"
#include "obs/obs.hpp"

namespace perfbench {

// Every concurrency setting is pinned here rather than left to
// hardware-concurrency defaults, so a run means the same thing on any
// host. The total stays within a 4-core box.
inline constexpr int kSweepThreads = 4;       ///< run_sweep threads (sweep)
inline constexpr int kServeWorkers = 2;       ///< daemon request workers
inline constexpr int kServeSweepThreads = 2;  ///< threads per served sweep
inline constexpr int kServeQueue = 32;        ///< daemon admission queue
inline constexpr int kServeTenants = 4;       ///< closed-loop connections

struct Args {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root;      ///< checkout root: inputs and committed references
  std::string work_dir;  ///< scratch directory for emitted bundles
  std::string git_sha = "unknown";  ///< commit the checkout was built from
};

/// What one workload run reports back to main(). `metrics` holds the
/// end-to-end metrics (untraced run) or the per-layer ones (traced run);
/// `info` is stamped on the output beside them (sample counts, checks).
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> info;
};

RunResult run_compile_workload(const Args& args);
RunResult run_sweep_workload(const Args& args);
RunResult run_serve_workload(const Args& args);

// --- measurement helpers (common.cpp) -------------------------------------

/// Seconds on the steady clock.
[[nodiscard]] double now_s();
/// CPU seconds consumed by every thread of the process.
[[nodiscard]] double process_cpu_s();
/// Linear-interpolation quantile (q in [0, 1]) of `v`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
/// Comma-separated values rounded to 0.1, for the output stamp.
[[nodiscard]] std::string join_rounded(const std::vector<double>& v);
/// (traced - untraced) / untraced, in percent.
[[nodiscard]] double overhead_pct(const std::vector<double>& traced,
                                  const std::vector<double>& untraced);

[[nodiscard]] std::string read_file(const std::string& path);
/// 16 lowercase hex digits of 64-bit FNV-1a over `bytes`.
[[nodiscard]] std::string digest_hex(const std::string& bytes);
/// Characterises the default library — the set-up a compile or sweep
/// process pays before its first op. One characterisation takes well
/// under a millisecond, too short to time reliably, so this times
/// `kSetupBatch` of them back to back and appends the mean per call, in
/// seconds, to `setup_s`.
inline constexpr int kSetupBatch = 64;
[[nodiscard]] syndcim::cell::Library characterize_library(
    std::vector<double>& setup_s);
/// Reads a flat {"key": "value", ...} JSON object of strings.
[[nodiscard]] std::map<std::string, std::string> read_string_map(
    const std::string& path);
/// Value of a registry counter (registered on first use).
[[nodiscard]] std::uint64_t counter_value(const char* name);

// --- traced-run reducer (trace.cpp) ----------------------------------------

/// Per-layer self times and span counts of a set of recorded spans.
///
/// Spans of one thread nest (they are RAII scopes), so each span's
/// exclusive self time is its duration minus the durations of the spans
/// directly inside it, found by interval containment per thread. The
/// self time is then credited to the per-layer metric the span's name
/// maps to (see trace.cpp), or to the metric of an enclosing region span
/// (the artifact emit, the frontier lint) whose whole subtree counts as
/// that one layer. Self time of spans no metric lists (perfbench's own
/// remainder, request/sweep orchestration) lands in `trace.unlisted_ms`,
/// so on a single-threaded op the metrics sum to the op's duration.
struct LayerTimes {
  std::map<std::string, double> self_ms;          ///< metric -> ms
  std::map<std::string, std::uint64_t> calls;     ///< span name -> count
  double root_ms = 0;  ///< summed duration of spans named `root_name`
  /// Spans named `span` outside any region.
  [[nodiscard]] double count(const std::string& span) const {
    const auto it = calls.find(span);
    return it != calls.end() ? static_cast<double>(it->second) : 0.0;
  }
};
[[nodiscard]] LayerTimes reduce_spans(
    const std::vector<syndcim::obs::RecordedSpan>& spans,
    const std::string& root_name);

}  // namespace perfbench
