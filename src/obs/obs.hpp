#pragma once
// Pipeline-wide observability: scoped-span tracing exported as Chrome
// trace-event JSON (chrome://tracing / Perfetto), a metrics registry
// (counters, gauges, fixed-bucket histograms) dumped as versioned JSON,
// and compile-phase timelines with per-phase peak-RSS sampling.
//
// Cost model: everything is disabled by default at runtime
// (`set_enabled(true)` turns it on); a disabled `OBS_SPAN` or guarded
// histogram observation costs one relaxed atomic load and a branch.
//
// Threading: span events land in per-thread buffers that only the owning
// thread appends to — the append path takes no lock (chunked storage with
// a release-published count; a chunk spill takes a rarely-contended
// mutex). Counters/gauges/histograms are plain relaxed atomics and safe
// from any thread. Export may run concurrently with appends; it sees a
// consistent prefix of each thread's events.
//
// Naming convention for metrics and spans: `subsystem.noun.verb`
// (e.g. `dse.cache.hit`, `dse.pool.steal`, `sta.paths.timed`).
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace syndcim::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Runtime master switch (off by default). Hot paths gate on this.
[[nodiscard]] inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// Nanoseconds since the process-wide trace epoch (first call wins).
[[nodiscard]] std::uint64_t now_ns();

/// Peak resident-set size of the process in kB (0 where unavailable).
[[nodiscard]] long peak_rss_kb();

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// One completed span ("X" complete event in the Chrome trace format).
struct TraceEvent {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

/// A recorded span together with its thread attribution (test/export
/// view; `tid` is the tracer's own small sequential thread id).
struct RecordedSpan {
  int tid = 0;
  std::string thread_name;
  TraceEvent ev;
};

/// Process-global span recorder. Use the `OBS_SPAN` macro (or `SpanGuard`
/// for dynamic names) rather than calling `record` directly.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Append one completed span to the calling thread's buffer.
  void record(std::string name, std::uint64_t start_ns,
              std::uint64_t dur_ns);

  /// Names the calling thread in the exported trace (Chrome "M"
  /// thread_name metadata event). Idempotent; last call wins.
  void set_thread_name(std::string name);

  /// All recorded spans in deterministic (tid, start, name) order.
  [[nodiscard]] std::vector<RecordedSpan> snapshot() const;
  [[nodiscard]] std::size_t event_count() const;

  /// Chrome trace-event JSON (object form: {"traceEvents": [...]}).
  /// Loads directly in chrome://tracing and ui.perfetto.dev.
  [[nodiscard]] std::string to_json() const;
  /// Writes `to_json()` to `path`; false on IO failure.
  bool save(const std::string& path) const;

  /// Drops every recorded span and thread name. Must not race with
  /// active spans — call only from quiescent points (tests, between
  /// CLI runs).
  void clear();

 private:
  static constexpr std::size_t kChunkEvents = 1024;
  struct Chunk {
    TraceEvent ev[kChunkEvents];
    std::atomic<std::size_t> count{0};  ///< release-published by owner
  };
  struct ThreadBuf {
    int tid = 0;
    std::string thread_name;
    std::vector<std::unique_ptr<Chunk>> chunks;  ///< guarded by mu
    mutable std::mutex mu;  ///< chunk-list structure + thread_name
    Chunk* current = nullptr;  ///< owner-thread-only shortcut
  };

  ThreadBuf& local_buf();

  mutable std::mutex registry_mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;  ///< never shrunk
};

[[nodiscard]] Tracer& tracer();

/// RAII span: records [construction, destruction) into the global tracer
/// when observability is enabled at construction time.
class SpanGuard {
 public:
  explicit SpanGuard(const char* name) {
    if (enabled()) {
      name_ = name;
      start_ = now_ns();
      active_ = true;
    }
  }
  explicit SpanGuard(std::string name) {
    if (enabled()) {
      name_ = std::move(name);
      start_ = now_ns();
      active_ = true;
    }
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;
  ~SpanGuard() {
    if (active_) tracer().record(std::move(name_), start_, now_ns() - start_);
  }

 private:
  std::string name_;
  std::uint64_t start_ = 0;
  bool active_ = false;
};

#define SYNDCIM_OBS_CONCAT2(a, b) a##b
#define SYNDCIM_OBS_CONCAT(a, b) SYNDCIM_OBS_CONCAT2(a, b)
#define OBS_SPAN(name) \
  ::syndcim::obs::SpanGuard SYNDCIM_OBS_CONCAT(obs_span_, __LINE__)(name)

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Monotonic counter. `inc` is wait-free (relaxed fetch_add).
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: bucket i counts observations v <= bounds[i]
/// (first matching bound); values above the last bound land in the
/// overflow bucket, so there are bounds.size() + 1 buckets total.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  [[nodiscard]] std::size_t bucket_count() const { return bounds_.size() + 1; }
  [[nodiscard]] std::uint64_t count_in_bucket(std::size_t i) const;
  [[nodiscard]] std::uint64_t total_count() const;
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<double> bounds_;  ///< ascending upper bounds
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::atomic<double> sum_{0.0};
};

/// Named metric registry. Lookup takes a mutex — resolve once and keep
/// the returned reference for hot paths (references stay valid for the
/// registry's lifetime). Dumped as versioned JSON
/// ({"format": "syndcim-metrics", "version": 1, ...}) with keys in
/// sorted order so output is deterministic for a given set of values.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  /// `bounds` is consumed on first creation; later calls with the same
  /// name return the existing histogram unchanged.
  [[nodiscard]] Histogram& histogram(const std::string& name,
                                     std::vector<double> bounds);

  [[nodiscard]] std::string to_json() const;
  bool save(const std::string& path) const;

  /// Drops every metric (invalidates previously returned references);
  /// tests only.
  void clear();

 private:
  mutable std::mutex mu_;
  // Kept name-sorted (insertion keeps order) so iteration — and
  // therefore JSON output — is deterministic.
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gauges_;
  std::vector<std::pair<std::string, std::unique_ptr<Histogram>>> hists_;
};

[[nodiscard]] MetricsRegistry& metrics();

// ---------------------------------------------------------------------------
// Compile-phase timeline
// ---------------------------------------------------------------------------

/// One pipeline stage of a compile (rtlgen, map, floorplan, ...).
struct Phase {
  std::string name;
  double start_ms = 0.0;    ///< since the process trace epoch
  double dur_ms = 0.0;
  long rss_peak_kb = 0;     ///< process peak RSS sampled at phase end
};

/// Ordered list of the phases one compile (or sweep point) went through.
/// Unlike spans, the timeline is always recorded — it is per-compile
/// bookkeeping, not hot-path instrumentation.
struct PhaseTimeline {
  std::vector<Phase> phases;
  [[nodiscard]] const Phase* find(std::string_view name) const;
  /// JSON array: [{"name", "start_ms", "dur_ms", "rss_peak_kb"}, ...].
  [[nodiscard]] std::string to_json() const;
};

/// RAII phase recorder: appends a Phase to `tl` on destruction, emits a
/// matching trace span when observability is enabled, and refreshes the
/// `compile.rss.peak_kb` gauge.
class PhaseScope {
 public:
  PhaseScope(PhaseTimeline& tl, std::string name);
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;
  ~PhaseScope();

 private:
  PhaseTimeline& tl_;
  std::string name_;
  std::uint64_t start_ = 0;
};

}  // namespace syndcim::obs
