#include <algorithm>
#include <map>
#include <string_view>

#include "bench.hpp"

namespace perfbench {
namespace {

constexpr std::string_view kUnlisted = "trace.unlisted_ms";

/// Spans whose whole subtree is one layer: the bundle writer (its file
/// writers carry no spans of their own) and the sweep's sequential
/// frontier lint (which re-enters rtlgen/map/lint under the
/// `compile.<stage>` phase names).
const std::map<std::string_view, std::string_view>& region_metrics() {
  static const std::map<std::string_view, std::string_view> m = {
      {"bench.emit", "emit.ms"},
      {"dse.frontier.lint", "dse.frontier_lint_ms"},
  };
  return m;
}

/// Span name -> per-layer self-time metric. `<name>.skip` spans (a
/// pipeline stage answered from the artifact store) count with their
/// stage. Everything else — perfbench's own spans, `core.compile`'s
/// implement loop, `dse.sweep` orchestration, `serve.<method>#<id>`
/// handlers, netmap — is unlisted.
const std::map<std::string_view, std::string_view>& span_metrics() {
  static const std::map<std::string_view, std::string_view> m = {
      // The searcher and the SCL stage wrappers whose kernels are
      // listed separately (placement, extraction, power).
      {"core.search", "search.ms"},
      {"scl.slice.floorplan", "search.ms"},
      {"scl.slice.route", "search.ms"},
      {"scl.slice.power", "search.ms"},
      {"dse.task.run", "search.ms"},
      {"dse.task.steal", "search.ms"},
      {"scl.slice.flatten", "scl.flatten_ms"},
      // scl.slice.sta's self time is StaEngine construction; the
      // analysis and its load plan nest inside it.
      {"scl.slice.sta", "scl.sta_build_ms"},
      {"sta.load_plan", "sta.load_plan_ms"},
      {"sta.analyze", "sta.analyze_ms"},
      {"scl.slice.activity", "scl.activity_ms"},
      {"power.analyze", "power.analyze_ms"},
      {"layout.place", "layout.place_ms"},
      {"layout.extract", "layout.extract_ms"},
      {"compile.rtlgen", "implement.rtlgen_ms"},
      {"compile.map", "implement.map_ms"},
      {"compile.lint", "implement.lint_ms"},
      {"compile.floorplan", "implement.layout_ms"},
      {"compile.route", "implement.layout_ms"},
      {"layout.drc", "implement.layout_ms"},
      {"layout.lvs", "implement.layout_ms"},
      {"layout.route", "implement.layout_ms"},
      {"compile.sta", "implement.sta_ms"},
      // Gate-level simulation and activity extraction run inside the
      // power stage without spans of their own.
      {"compile.power", "implement.power_ms"},
      // Miss-path evaluation minus the slice stages inside it: the wait
      // on SclEvalBackend's mutex.
      {"dse.eval.miss", "dse.eval.wait_ms"},
  };
  return m;
}

std::string_view metric_for(std::string_view name) {
  constexpr std::string_view kSkip = ".skip";
  if (name.size() > kSkip.size() &&
      name.substr(name.size() - kSkip.size()) == kSkip) {
    name.remove_suffix(kSkip.size());
  }
  const auto& m = span_metrics();
  const auto it = m.find(name);
  return it != m.end() ? it->second : kUnlisted;
}

}  // namespace

LayerTimes reduce_spans(const std::vector<syndcim::obs::RecordedSpan>& spans,
                        const std::string& root_name) {
  std::map<int, std::vector<const syndcim::obs::TraceEvent*>> by_thread;
  for (const auto& s : spans) by_thread[s.tid].push_back(&s.ev);

  struct Open {
    std::uint64_t start = 0, end = 0, children_ns = 0;
    std::string_view metric;
    bool in_region = false;
  };
  LayerTimes out;
  // Every metric reads 0 unless a span credits it.
  for (const auto& [span, metric] : span_metrics()) out.self_ms[std::string(metric)];
  for (const auto& [span, metric] : region_metrics()) out.self_ms[std::string(metric)];
  out.self_ms[std::string(kUnlisted)];
  auto close = [&](const Open& o) {
    out.self_ms[std::string(o.metric)] +=
        static_cast<double>(o.end - o.start - o.children_ns) * 1e-6;
  };

  for (auto& [tid, evs] : by_thread) {
    // Outer spans first: by start, then longest first.
    std::sort(evs.begin(), evs.end(), [](const auto* a, const auto* b) {
      if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
      return a->dur_ns > b->dur_ns;
    });
    std::vector<Open> stack;
    for (const syndcim::obs::TraceEvent* ev : evs) {
      const std::uint64_t end = ev->start_ns + ev->dur_ns;
      while (!stack.empty() && end > stack.back().end) {
        close(stack.back());
        stack.pop_back();
      }
      Open o{ev->start_ns, end, 0, {}, false};
      if (!stack.empty()) {
        stack.back().children_ns += ev->dur_ns;
        if (stack.back().in_region) {
          o.metric = stack.back().metric;
          o.in_region = true;
        }
      }
      if (!o.in_region) {
        ++out.calls[ev->name];
        const auto r = region_metrics().find(ev->name);
        o.in_region = r != region_metrics().end();
        o.metric = o.in_region ? r->second : metric_for(ev->name);
      }
      if (ev->name == root_name) {
        out.root_ms += static_cast<double>(ev->dur_ns) * 1e-6;
      }
      stack.push_back(o);
    }
    for (; !stack.empty(); stack.pop_back()) close(stack.back());
  }
  return out;
}

}  // namespace perfbench
