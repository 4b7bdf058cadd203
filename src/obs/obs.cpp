#include "obs/obs.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "json/json.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace syndcim::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t now_ns() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

long peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<long>(ru.ru_maxrss / 1024);  // bytes on macOS
#else
  return static_cast<long>(ru.ru_maxrss);  // kB on Linux
#endif
#else
  return 0;
#endif
}

namespace {

using json::json_escape;
using json::json_number;

/// Microseconds with ns resolution — the Chrome trace `ts`/`dur` unit.
std::string jus(std::uint64_t ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e3);
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer& tracer() {
  static Tracer t;
  return t;
}

Tracer::ThreadBuf& Tracer::local_buf() {
  // One live Tracer per process (the `tracer()` singleton); a plain
  // thread_local pointer keyed by nothing is sufficient and keeps the
  // hot path to a single TLS load.
  thread_local ThreadBuf* tl_buf = nullptr;
  thread_local const Tracer* tl_owner = nullptr;
  if (tl_buf == nullptr || tl_owner != this) {
    auto buf = std::make_unique<ThreadBuf>();
    const std::lock_guard<std::mutex> lock(registry_mu_);
    buf->tid = static_cast<int>(bufs_.size());
    tl_buf = buf.get();
    tl_owner = this;
    bufs_.push_back(std::move(buf));
  }
  return *tl_buf;
}

void Tracer::record(std::string name, std::uint64_t start_ns,
                    std::uint64_t dur_ns) {
  ThreadBuf& buf = local_buf();
  Chunk* c = buf.current;
  if (c == nullptr ||
      c->count.load(std::memory_order_relaxed) == kChunkEvents) {
    auto fresh = std::make_unique<Chunk>();
    c = fresh.get();
    const std::lock_guard<std::mutex> lock(buf.mu);
    buf.chunks.push_back(std::move(fresh));
    buf.current = c;
  }
  const std::size_t i = c->count.load(std::memory_order_relaxed);
  c->ev[i].name = std::move(name);
  c->ev[i].start_ns = start_ns;
  c->ev[i].dur_ns = dur_ns;
  // Publish: a concurrent exporter acquiring `count` sees the fields.
  c->count.store(i + 1, std::memory_order_release);
}

void Tracer::set_thread_name(std::string name) {
  ThreadBuf& buf = local_buf();
  const std::lock_guard<std::mutex> lock(buf.mu);
  buf.thread_name = std::move(name);
}

std::vector<RecordedSpan> Tracer::snapshot() const {
  std::vector<RecordedSpan> out;
  const std::lock_guard<std::mutex> lock(registry_mu_);
  for (const auto& buf : bufs_) {
    const std::lock_guard<std::mutex> blk(buf->mu);
    for (const auto& chunk : buf->chunks) {
      const std::size_t n = chunk->count.load(std::memory_order_acquire);
      for (std::size_t i = 0; i < n; ++i) {
        out.push_back({buf->tid, buf->thread_name, chunk->ev[i]});
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const RecordedSpan& a, const RecordedSpan& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ev.start_ns != b.ev.start_ns) {
                return a.ev.start_ns < b.ev.start_ns;
              }
              return a.ev.name < b.ev.name;
            });
  return out;
}

std::size_t Tracer::event_count() const {
  std::size_t n = 0;
  const std::lock_guard<std::mutex> lock(registry_mu_);
  for (const auto& buf : bufs_) {
    const std::lock_guard<std::mutex> blk(buf->mu);
    for (const auto& chunk : buf->chunks) {
      n += chunk->count.load(std::memory_order_acquire);
    }
  }
  return n;
}

std::string Tracer::to_json() const {
  const std::vector<RecordedSpan> spans = snapshot();
  std::ostringstream os;
  os << "{\n  \"format\": \"syndcim-trace\",\n  \"version\": 1,\n"
     << "  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n";
  bool first = true;
  // Thread-name metadata events, one per named thread.
  {
    const std::lock_guard<std::mutex> lock(registry_mu_);
    for (const auto& buf : bufs_) {
      const std::lock_guard<std::mutex> blk(buf->mu);
      if (buf->thread_name.empty()) continue;
      if (!first) os << ",\n";
      first = false;
      os << "    {\"ph\": \"M\", \"pid\": 1, \"tid\": " << buf->tid
         << ", \"name\": \"thread_name\", \"args\": {\"name\": \""
         << json_escape(buf->thread_name) << "\"}}";
    }
  }
  for (const RecordedSpan& s : spans) {
    if (!first) os << ",\n";
    first = false;
    os << "    {\"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
       << ", \"name\": \"" << json_escape(s.ev.name) << "\", \"ts\": "
       << jus(s.ev.start_ns) << ", \"dur\": " << jus(s.ev.dur_ns) << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

bool Tracer::save(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << to_json();
  return static_cast<bool>(f);
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(registry_mu_);
  for (const auto& buf : bufs_) {
    const std::lock_guard<std::mutex> blk(buf->mu);
    buf->chunks.clear();
    buf->current = nullptr;
    buf->thread_name.clear();
  }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  counts_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i] = 0;
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t i =
      static_cast<std::size_t>(it - bounds_.begin());  // overflow at end
  counts_[i].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

std::uint64_t Histogram::count_in_bucket(std::size_t i) const {
  return i <= bounds_.size()
             ? counts_[i].load(std::memory_order_relaxed)
             : 0;
}

std::uint64_t Histogram::total_count() const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    n += counts_[i].load(std::memory_order_relaxed);
  }
  return n;
}

MetricsRegistry& metrics() {
  static MetricsRegistry m;
  return m;
}

namespace {

template <typename T, typename... Args>
T& find_or_insert(
    std::vector<std::pair<std::string, std::unique_ptr<T>>>& vec,
    const std::string& name, Args&&... args) {
  const auto it = std::lower_bound(
      vec.begin(), vec.end(), name,
      [](const auto& entry, const std::string& n) { return entry.first < n; });
  if (it != vec.end() && it->first == name) return *it->second;
  return *vec
              .insert(it, {name, std::make_unique<T>(
                                     std::forward<Args>(args)...)})
              ->second;
}

}  // namespace

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  return find_or_insert(counters_, name);
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  return find_or_insert(gauges_, name);
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  const std::lock_guard<std::mutex> lock(mu_);
  return find_or_insert(hists_, name, std::move(bounds));
}

std::string MetricsRegistry::to_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\n  \"format\": \"syndcim-metrics\",\n  \"version\": 1,\n"
     << "  \"counters\": {";
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    os << (i ? ",\n    " : "\n    ") << "\""
       << json_escape(counters_[i].first)
       << "\": " << counters_[i].second->value();
  }
  os << (counters_.empty() ? "}" : "\n  }") << ",\n  \"gauges\": {";
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    os << (i ? ",\n    " : "\n    ") << "\"" << json_escape(gauges_[i].first)
       << "\": " << json_number(gauges_[i].second->value());
  }
  os << (gauges_.empty() ? "}" : "\n  }") << ",\n  \"histograms\": {";
  for (std::size_t i = 0; i < hists_.size(); ++i) {
    const Histogram& h = *hists_[i].second;
    os << (i ? ",\n    " : "\n    ") << "\"" << json_escape(hists_[i].first)
       << "\": {\"bounds\": [";
    for (std::size_t b = 0; b < h.bounds().size(); ++b) {
      os << (b ? ", " : "") << json_number(h.bounds()[b]);
    }
    os << "], \"counts\": [";
    for (std::size_t b = 0; b < h.bucket_count(); ++b) {
      os << (b ? ", " : "") << h.count_in_bucket(b);
    }
    os << "], \"count\": " << h.total_count()
       << ", \"sum\": " << json_number(h.sum()) << "}";
  }
  os << (hists_.empty() ? "}" : "\n  }") << "\n}\n";
  return os.str();
}

bool MetricsRegistry::save(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << to_json();
  return static_cast<bool>(f);
}

void MetricsRegistry::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  hists_.clear();
}

// ---------------------------------------------------------------------------
// Phase timeline
// ---------------------------------------------------------------------------

const Phase* PhaseTimeline::find(std::string_view name) const {
  for (const Phase& p : phases) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

std::string PhaseTimeline::to_json() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const Phase& p = phases[i];
    os << (i ? ", " : "") << "{\"name\": \"" << json_escape(p.name)
       << "\", \"start_ms\": " << json_number(p.start_ms)
       << ", \"dur_ms\": " << json_number(p.dur_ms)
       << ", \"rss_peak_kb\": " << p.rss_peak_kb << "}";
  }
  os << "]";
  return os.str();
}

PhaseScope::PhaseScope(PhaseTimeline& tl, std::string name)
    : tl_(tl), name_(std::move(name)), start_(now_ns()) {}

PhaseScope::~PhaseScope() {
  const std::uint64_t end = now_ns();
  Phase p;
  p.name = name_;
  p.start_ms = static_cast<double>(start_) / 1e6;
  p.dur_ms = static_cast<double>(end - start_) / 1e6;
  p.rss_peak_kb = peak_rss_kb();
  if (enabled()) {
    tracer().record("compile." + name_, start_, end - start_);
    metrics().gauge("compile.rss.peak_kb")
        .set(static_cast<double>(p.rss_peak_kb));
  }
  tl_.phases.push_back(std::move(p));
}

}  // namespace syndcim::obs
