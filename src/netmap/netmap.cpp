#include "netmap/netmap.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

#include "json/json.hpp"
#include "obs/obs.hpp"

namespace syndcim::netmap {

namespace {

using json::json_number;

/// Hill-climb move cap (stage B and the homogeneous count refinement);
/// generous — refinement converges in O(budget) moves.
constexpr int kMaxMoves = 1024;

/// Dynamic-energy activity scaling: a fully dense operand stream toggles
/// ~1.6x the characterization activity, an almost-empty one still burns
/// the 0.4 floor (clocking, leakage-equivalent).
double density_scale(double density) { return 0.4 + 1.2 * density; }

/// Per-layer mapping metrics for (candidate, count). The caller
/// guarantees cand.supports(layer).
LayerAssignment evaluate_layer(const Layer& layer, std::size_t layer_index,
                               const MacroCandidate& cand,
                               std::size_t cand_index, int count) {
  OBS_SPAN("netmap.evaluate");
  LayerAssignment a;
  a.layer_index = layer_index;
  a.candidate_index = cand_index;
  a.count = count;
  a.input_bits_eff = cand.effective_input_bits(layer.input_bits);
  a.weight_bits_eff = cand.effective_weight_bits(layer.weight_bits);

  // The macro runs at its supported precision: serial cycles follow the
  // effective input width, column packing the effective weight width.
  Layer eff = layer;
  eff.input_bits = a.input_bits_eff;
  eff.weight_bits = a.weight_bits_eff;
  a.grid = tile_layer(eff, cand.rows, cand.cols, a.weight_bits_eff);

  MacroTiming t;
  t.mac_mhz = cand.mac_mhz;
  t.wupdate_mhz = cand.wupdate_mhz;
  t.mcr = cand.mcr;
  t.latency_cycles = cand.latency_cycles;
  a.sched = schedule_layer(eff, a.grid, t, count);
  a.time_us = a.sched.time_us;

  // power_uw / mhz = pJ per cycle per macro, at characterization
  // activity; scale by operand densities. Weight updates drive only the
  // SRAM write path (~half the rail); dead macros are clock-gated down
  // to a 10% idle floor.
  const double e_mac_cycle_pj = cand.power_uw / cand.mac_mhz;
  const double e_load_cycle_pj = 0.5 * cand.power_uw / cand.wupdate_mhz;
  a.mac_energy_pj =
      static_cast<double>(a.sched.total_mac_cycles) * e_mac_cycle_pj *
      density_scale(layer.input_density * layer.weight_density);
  a.write_energy_pj = static_cast<double>(a.sched.total_load_cycles) *
                      e_load_cycle_pj * density_scale(layer.weight_density);
  a.dead_energy_pj = a.sched.dead_cycles * e_mac_cycle_pj * 0.1;

  // Useful word-MACs against the MAC capacity the used macros had over
  // the layer's wall time: rows x outs_per_tile bit-plane MACs per
  // cycle, (input_bits_eff + 1) cycles per word.
  const double cap_macs =
      static_cast<double>(a.sched.n_used) * a.time_us * cand.mac_mhz *
      static_cast<double>(a.grid.rows) *
      static_cast<double>(a.grid.outs_per_tile) /
      static_cast<double>(a.input_bits_eff + 1);
  a.utilization =
      cap_macs > 0.0 ? static_cast<double>(layer.macs()) / cap_macs : 0.0;
  return a;
}

struct FleetView {
  std::vector<FleetEntry> entries;
  int macros = 0;
  double area_um2 = 0.0;
};

/// Owned hardware of an assignment set: one bank per macro type, sized
/// by the busiest layer using it (layers run sequentially, so banks are
/// reused across layers).
FleetView fleet_of(const std::vector<LayerAssignment>& assigns,
                   const std::vector<MacroCandidate>& cands) {
  std::map<std::size_t, int> max_count;  // ordered: deterministic output
  for (const LayerAssignment& a : assigns) {
    int& c = max_count[a.candidate_index];
    c = std::max(c, a.sched.n_used);
  }
  FleetView f;
  for (const auto& [idx, count] : max_count) {
    FleetEntry e;
    e.candidate_index = idx;
    e.count = count;
    e.area_um2 = static_cast<double>(count) * cands[idx].area_um2;
    f.entries.push_back(e);
    f.macros += count;
    f.area_um2 += e.area_um2;
  }
  return f;
}

bool fits_budget(const FleetView& f, const Budget& b) {
  if (f.macros > b.max_macros) return false;
  if (b.max_area_um2 > 0.0 && f.area_um2 > b.max_area_um2) return false;
  return true;
}

double total_time(const std::vector<LayerAssignment>& a) {
  double t = 0.0;
  for (const LayerAssignment& x : a) t += x.time_us;
  return t;
}

double total_energy(const std::vector<LayerAssignment>& a) {
  double e = 0.0;
  for (const LayerAssignment& x : a) e += x.energy_pj();
  return e;
}

}  // namespace

int MacroCandidate::effective_input_bits(int bits) const {
  for (const int b : input_bits) {
    if (b >= bits) return b;
  }
  return -1;
}

int MacroCandidate::effective_weight_bits(int bits) const {
  for (const int b : weight_bits) {
    if (b >= bits) return b;
  }
  return -1;
}

bool MacroCandidate::supports(const Layer& layer) const {
  const int wb = effective_weight_bits(layer.weight_bits);
  return effective_input_bits(layer.input_bits) > 0 && wb > 0 && cols >= wb &&
         rows > 0 && mac_mhz > 0.0 && wupdate_mhz > 0.0;
}

std::vector<MacroCandidate> candidates_from_frontier(
    const dse::SweepReport& report) {
  std::vector<MacroCandidate> out;
  out.reserve(report.frontier.size());
  for (const dse::FrontierPoint& fp : report.frontier) {
    const core::PerfSpec& spec = report.per_spec[fp.spec_index].spec;
    MacroCandidate c;
    c.point_id = fp.point_id;
    c.label = fp.point.label;
    c.rows = fp.point.cfg.rows;
    c.cols = fp.point.cfg.cols;
    c.mcr = fp.point.cfg.mcr;
    c.input_bits = fp.point.cfg.input_bits;
    c.weight_bits = fp.point.cfg.weight_bits;
    std::sort(c.input_bits.begin(), c.input_bits.end());
    std::sort(c.weight_bits.begin(), c.weight_bits.end());
    c.fmax_mhz = fp.point.ppa.fmax_mhz;
    // Effective run clocks: the spec target the point was characterized
    // at, capped by what it actually closes timing at.
    c.mac_mhz = c.fmax_mhz > 0.0
                    ? std::min(spec.mac_freq_mhz, c.fmax_mhz)
                    : spec.mac_freq_mhz;
    c.wupdate_mhz = fp.point.ppa.write_fmax_mhz > 0.0
                        ? std::min(spec.wupdate_freq_mhz,
                                   fp.point.ppa.write_fmax_mhz)
                        : spec.wupdate_freq_mhz;
    c.power_uw = fp.point.ppa.power_uw;
    c.area_um2 = fp.point.ppa.area_um2;
    c.energy_per_mac_fj = fp.point.ppa.energy_per_mac_fj;
    c.latency_cycles = fp.point.ppa.latency_cycles;
    out.push_back(std::move(c));
  }
  return out;
}

std::vector<MacroCandidate> candidates_from_frontier_json(
    const std::string& json_text, core::DiagEngine& diag,
    const std::string& source) {
  std::vector<MacroCandidate> out;
  json::JsonValue doc;
  std::string err;
  if (!json::json_parse(json_text, &doc, &err) || !doc.is_object()) {
    diag.error("NETMAP-BADFRONTIER",
               err.empty() ? "frontier is not a JSON object" : err, "",
               source);
    return out;
  }
  const json::JsonValue* frontier = doc.find("frontier");
  if (frontier == nullptr || !frontier->is_array()) {
    diag.error("NETMAP-BADFRONTIER", "document has no 'frontier' array", "",
               source);
    return out;
  }
  for (std::size_t i = 0; i < frontier->size(); ++i) {
    const json::JsonValue& p = frontier->at(i);
    const std::string object = "frontier[" + std::to_string(i) + "]";
    const json::JsonValue* id = p.find("point_id");
    const json::JsonValue* macro = p.find("macro");
    if (id == nullptr || !id->is_string() || macro == nullptr ||
        !macro->is_object()) {
      diag.error("NETMAP-BADFRONTIER",
                 "point lacks 'point_id'/'macro' — regenerate the frontier "
                 "with a current `syndcim sweep`",
                 object, source);
      continue;
    }
    if (const json::JsonValue* f = p.find("feasible");
        f != nullptr && f->is_bool() && !f->as_bool()) {
      continue;
    }
    MacroCandidate c;
    c.point_id = id->as_string();
    if (const json::JsonValue* l = p.find("label"); l && l->is_string()) {
      c.label = l->as_string();
    }
    const auto num = [&](const json::JsonValue& obj, const char* key,
                         double fallback) {
      const json::JsonValue* v = obj.find(key);
      return v != nullptr ? v->as_number(fallback) : fallback;
    };
    c.rows = static_cast<int>(num(*macro, "rows", 0));
    c.cols = static_cast<int>(num(*macro, "cols", 0));
    c.mcr = static_cast<int>(num(*macro, "mcr", 1));
    const auto bits_list = [&](const char* key, std::vector<int>* dst) {
      const json::JsonValue* v = macro->find(key);
      if (v == nullptr || !v->is_array()) return;
      for (std::size_t j = 0; j < v->size(); ++j) {
        dst->push_back(static_cast<int>(v->at(j).as_number(0)));
      }
      std::sort(dst->begin(), dst->end());
    };
    bits_list("input_bits", &c.input_bits);
    bits_list("weight_bits", &c.weight_bits);
    c.fmax_mhz = num(p, "fmax_mhz", 0.0);
    const double spec_mac = num(*macro, "mac_mhz", 0.0);
    const double spec_wup = num(*macro, "wupdate_mhz", 0.0);
    const double write_fmax = num(*macro, "write_fmax_mhz", 0.0);
    c.mac_mhz =
        c.fmax_mhz > 0.0 ? std::min(spec_mac, c.fmax_mhz) : spec_mac;
    c.wupdate_mhz =
        write_fmax > 0.0 ? std::min(spec_wup, write_fmax) : spec_wup;
    c.power_uw = num(p, "power_uw", 0.0);
    c.area_um2 = num(p, "area_um2", 0.0);
    c.energy_per_mac_fj = num(p, "energy_per_mac_fj", 0.0);
    c.latency_cycles = static_cast<int>(num(p, "latency_cycles", 0));
    if (c.rows <= 0 || c.cols <= 0 || c.input_bits.empty() ||
        c.weight_bits.empty() || !(c.mac_mhz > 0.0) ||
        !(c.wupdate_mhz > 0.0)) {
      diag.error("NETMAP-BADFRONTIER",
                 "point has a degenerate macro description", object, source);
      continue;
    }
    out.push_back(std::move(c));
  }
  if (out.empty() && !diag.has_errors()) {
    diag.error("NETMAP-BADFRONTIER", "frontier has no feasible points", "",
               source);
  }
  return out;
}

NetmapResult run_netmap(const Model& model,
                        const std::vector<MacroCandidate>& candidates,
                        const Budget& budget) {
  OBS_SPAN("netmap.run");
  if (model.layers.empty()) {
    throw std::invalid_argument("run_netmap: model has no layers");
  }
  if (candidates.empty()) {
    throw std::invalid_argument("run_netmap: empty candidate pool");
  }
  if (budget.max_macros < 1) {
    throw std::invalid_argument("run_netmap: budget needs >= 1 macro");
  }

  NetmapResult res;
  res.model = model;
  res.candidates = candidates;
  res.budget = budget;
  const double inf = std::numeric_limits<double>::infinity();

  // Per-layer eligibility: supports the precision/shape, and a single
  // instance alone fits the area budget.
  std::vector<std::vector<std::size_t>> eligible(model.layers.size());
  for (std::size_t li = 0; li < model.layers.size(); ++li) {
    for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
      if (!candidates[ci].supports(model.layers[li])) continue;
      if (budget.max_area_um2 > 0.0 &&
          candidates[ci].area_um2 > budget.max_area_um2) {
        continue;
      }
      eligible[li].push_back(ci);
    }
    if (eligible[li].empty()) {
      throw std::invalid_argument(
          "run_netmap: no candidate supports layer '" +
          model.layers[li].name + "' within the budget");
    }
  }

  obs::MetricsRegistry& metrics = obs::metrics();
  std::uint64_t moves = 0;

  // ---- Homogeneous baseline ------------------------------------------
  // For every candidate that can run the whole model: start every layer
  // at count 1 and latency-refine counts under the budget (the fleet a
  // latency-seeking user would build from one frontier point). The best
  // baseline on energy is both the published comparison and stage B's
  // energy cap.
  const auto homog_assign = [&](std::size_t ci) {
    std::vector<LayerAssignment> a;
    a.reserve(model.layers.size());
    for (std::size_t li = 0; li < model.layers.size(); ++li) {
      a.push_back(evaluate_layer(model.layers[li], li, candidates[ci], ci, 1));
    }
    for (int step = 0; step < kMaxMoves; ++step) {
      double best_gain = 1e-12;
      std::size_t best_li = model.layers.size();
      for (std::size_t li = 0; li < model.layers.size(); ++li) {
        if (a[li].count >= a[li].sched.tiles) continue;
        LayerAssignment trial = evaluate_layer(
            model.layers[li], li, candidates[ci], ci, a[li].count + 1);
        std::vector<LayerAssignment> next = a;
        next[li] = trial;
        if (!fits_budget(fleet_of(next, candidates), budget)) continue;
        const double gain = a[li].time_us - trial.time_us;
        if (gain > best_gain) {
          best_gain = gain;
          best_li = li;
        }
      }
      if (best_li >= model.layers.size()) break;
      a[best_li] = evaluate_layer(model.layers[best_li], best_li,
                                  candidates[ci], ci, a[best_li].count + 1);
      ++moves;
    }
    return a;
  };

  std::vector<LayerAssignment> homog_best;
  for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
    bool covers = true;
    for (std::size_t li = 0; li < model.layers.size() && covers; ++li) {
      covers = std::find(eligible[li].begin(), eligible[li].end(), ci) !=
               eligible[li].end();
    }
    if (!covers) continue;
    std::vector<LayerAssignment> a = homog_assign(ci);
    const double e = total_energy(a);
    const double t = total_time(a);
    const bool better =
        !res.homog.valid || e < res.homog.energy_pj ||
        (e == res.homog.energy_pj &&
         (t < res.homog.time_us ||
          (t == res.homog.time_us &&
           candidates[ci].point_id <
               candidates[res.homog.candidate_index].point_id)));
    if (better) {
      res.homog.valid = true;
      res.homog.candidate_index = ci;
      res.homog.energy_pj = e;
      res.homog.time_us = t;
      res.homog.count = fleet_of(a, candidates).macros;
      homog_best = std::move(a);
    }
  }
  const double energy_cap = res.homog.valid ? res.homog.energy_pj : inf;

  // ---- Stage A: per-layer energy-minimal selection at count 1 --------
  {
    OBS_SPAN("netmap.allocate");
    std::vector<LayerAssignment> assigns;
    assigns.reserve(model.layers.size());
    for (std::size_t li = 0; li < model.layers.size(); ++li) {
      LayerAssignment best;
      bool have = false;
      for (const std::size_t ci : eligible[li]) {
        LayerAssignment a =
            evaluate_layer(model.layers[li], li, candidates[ci], ci, 1);
        const bool better =
            !have || a.energy_pj() < best.energy_pj() ||
            (a.energy_pj() == best.energy_pj() &&
             (a.time_us < best.time_us ||
              (a.time_us == best.time_us &&
               candidates[ci].point_id <
                   candidates[best.candidate_index].point_id)));
        if (better) {
          best = std::move(a);
          have = true;
        }
      }
      assigns.push_back(std::move(best));
    }

    // Repair: merge macro types until the owned fleet fits the budget.
    // Each round retires the used type whose layers can move to other
    // used types for the least added energy.
    while (!fits_budget(fleet_of(assigns, candidates), budget)) {
      const FleetView f = fleet_of(assigns, candidates);
      if (f.entries.size() <= 1) {
        throw std::invalid_argument(
            "run_netmap: budget cannot hold one macro of the only usable "
            "type");
      }
      double best_cost = inf;
      std::vector<LayerAssignment> best_next;
      for (const FleetEntry& victim : f.entries) {
        std::vector<LayerAssignment> next = assigns;
        bool ok = true;
        for (std::size_t li = 0; li < next.size() && ok; ++li) {
          if (next[li].candidate_index != victim.candidate_index) continue;
          LayerAssignment moved;
          bool have = false;
          for (const FleetEntry& host : f.entries) {
            if (host.candidate_index == victim.candidate_index) continue;
            if (std::find(eligible[li].begin(), eligible[li].end(),
                          host.candidate_index) == eligible[li].end()) {
              continue;
            }
            LayerAssignment a =
                evaluate_layer(model.layers[li], li,
                               candidates[host.candidate_index],
                               host.candidate_index, 1);
            if (!have || a.energy_pj() < moved.energy_pj()) {
              moved = std::move(a);
              have = true;
            }
          }
          if (!have) {
            ok = false;  // victim hosts a layer nobody else supports
            break;
          }
          next[li] = std::move(moved);
        }
        if (!ok) continue;
        const double cost = total_energy(next);
        if (cost < best_cost) {
          best_cost = cost;
          best_next = std::move(next);
        }
      }
      if (best_next.empty()) {
        throw std::invalid_argument(
            "run_netmap: fleet cannot fit the budget — a layer is pinned "
            "to a type the budget cannot hold");
      }
      assigns = std::move(best_next);
      ++moves;
    }

    // Guarded fallback: the energy guarantee (stage A <= every
    // homogeneous fleet) holds by construction; if type-merging repair
    // ever lands above the cap, adopt the baseline outright.
    if (res.homog.valid && total_energy(assigns) > energy_cap) {
      assigns = homog_best;
      res.fallback_homog = true;
    }

    // ---- Stage B: latency hill-climb under the energy cap ------------
    for (int step = 0; step < kMaxMoves; ++step) {
      double best_gain = 1e-12;
      double best_energy = inf;
      std::vector<LayerAssignment> best_next;
      for (std::size_t li = 0; li < assigns.size(); ++li) {
        // Move 1: one more macro on this layer.
        if (assigns[li].count < assigns[li].sched.tiles) {
          std::vector<LayerAssignment> next = assigns;
          next[li] = evaluate_layer(
              model.layers[li], li, candidates[assigns[li].candidate_index],
              assigns[li].candidate_index, assigns[li].count + 1);
          const double gain = assigns[li].time_us - next[li].time_us;
          const double e = total_energy(next);
          if (e <= energy_cap &&
              fits_budget(fleet_of(next, candidates), budget) &&
              (gain > best_gain ||
               (gain == best_gain && e < best_energy))) {
            best_gain = gain;
            best_energy = e;
            best_next = std::move(next);
          }
        }
        // Move 2: switch this layer to a different type (same count).
        for (const std::size_t ci : eligible[li]) {
          if (ci == assigns[li].candidate_index) continue;
          std::vector<LayerAssignment> next = assigns;
          next[li] = evaluate_layer(model.layers[li], li, candidates[ci], ci,
                                    assigns[li].count);
          const double gain = assigns[li].time_us - next[li].time_us;
          const double e = total_energy(next);
          if (e <= energy_cap &&
              fits_budget(fleet_of(next, candidates), budget) &&
              (gain > best_gain ||
               (gain == best_gain && e < best_energy))) {
            best_gain = gain;
            best_energy = e;
            best_next = std::move(next);
          }
        }
      }
      if (best_next.empty()) break;
      assigns = std::move(best_next);
      ++moves;
    }
    res.layers = std::move(assigns);
  }

  const FleetView fleet = fleet_of(res.layers, candidates);
  res.fleet = fleet.entries;
  res.fleet_macros = fleet.macros;
  res.fleet_area_um2 = fleet.area_um2;
  res.total_time_us = total_time(res.layers);
  res.total_energy_pj = total_energy(res.layers);
  double util_weighted = 0.0;
  for (const LayerAssignment& a : res.layers) {
    util_weighted += a.utilization *
                     static_cast<double>(model.layers[a.layer_index].macs());
  }
  const double macs = static_cast<double>(model.total_macs());
  res.utilization = macs > 0.0 ? util_weighted / macs : 0.0;

  metrics.counter("netmap.model.run").inc();
  metrics.counter("netmap.layer.mapped").inc(res.layers.size());
  metrics.counter("netmap.allocate.move").inc(moves);
  metrics.gauge("netmap.fleet.macros")
      .set(static_cast<double>(res.fleet_macros));
  metrics.gauge("netmap.fleet.area_um2").set(res.fleet_area_um2);
  return res;
}

std::string netmap_report_json(const NetmapResult& r) {
  std::ostringstream os;
  const auto jstr = [](const std::string& s) {
    return "\"" + json::json_escape(s) + "\"";
  };
  const long macs = r.model.total_macs();
  os << "{\n  \"format\": \"syndcim-netmap\",\n  \"version\": 1"
     << ",\n  \"model\": {\"name\": " << jstr(r.model.name)
     << ", \"layers\": " << r.model.layers.size() << ", \"macs\": " << macs
     << "}"
     << ",\n  \"budget\": {\"max_macros\": " << r.budget.max_macros
     << ", \"max_area_um2\": " << json_number(r.budget.max_area_um2) << "}"
     << ",\n  \"candidates\": " << r.candidates.size()
     << ",\n  \"fallback_homog\": " << (r.fallback_homog ? "true" : "false")
     << ",\n  \"fleet\": [\n";
  for (std::size_t i = 0; i < r.fleet.size(); ++i) {
    const FleetEntry& e = r.fleet[i];
    const MacroCandidate& c = r.candidates[e.candidate_index];
    if (i) os << ",\n";
    os << "    {\"point_id\": " << jstr(c.point_id)
       << ", \"label\": " << jstr(c.label) << ", \"rows\": " << c.rows
       << ", \"cols\": " << c.cols << ", \"mcr\": " << c.mcr
       << ", \"count\": " << e.count
       << ", \"area_um2\": " << json_number(e.area_um2) << "}";
  }
  os << "\n  ],\n  \"fleet_macros\": " << r.fleet_macros
     << ",\n  \"fleet_area_um2\": " << json_number(r.fleet_area_um2)
     << ",\n  \"layers\": [\n";
  for (std::size_t i = 0; i < r.layers.size(); ++i) {
    const LayerAssignment& a = r.layers[i];
    const Layer& l = r.model.layers[a.layer_index];
    const MacroCandidate& c = r.candidates[a.candidate_index];
    if (i) os << ",\n";
    os << "    {\"name\": " << jstr(l.name) << ", \"kind\": \""
       << to_string(l.kind) << "\", \"m\": " << l.m << ", \"k\": " << l.k
       << ", \"n\": " << l.n << ", \"point_id\": " << jstr(c.point_id)
       << ", \"label\": " << jstr(c.label) << ", \"count\": " << a.count
       << ", \"used\": " << a.sched.n_used
       << ", \"input_bits\": " << a.input_bits_eff
       << ", \"weight_bits\": " << a.weight_bits_eff
       << ", \"k_tiles\": " << a.grid.k_tiles
       << ", \"n_tiles\": " << a.grid.n_tiles
       << ", \"tiles\": " << a.grid.tiles()
       << ", \"mac_cycles\": " << a.sched.total_mac_cycles
       << ", \"load_cycles\": " << a.sched.total_load_cycles
       << ", \"dead_cycles\": " << json_number(a.sched.dead_cycles)
       << ", \"double_buffered\": "
       << (a.sched.double_buffered ? "true" : "false")
       << ", \"time_us\": " << json_number(a.time_us)
       << ", \"mac_energy_pj\": " << json_number(a.mac_energy_pj)
       << ", \"write_energy_pj\": " << json_number(a.write_energy_pj)
       << ", \"dead_energy_pj\": " << json_number(a.dead_energy_pj)
       << ", \"energy_pj\": " << json_number(a.energy_pj())
       << ", \"utilization\": " << json_number(a.utilization) << "}";
  }
  os << "\n  ],\n  \"total\": {\"time_us\": " << json_number(r.total_time_us)
     << ", \"energy_pj\": " << json_number(r.total_energy_pj)
     << ", \"energy_per_mac_fj\": "
     << json_number(macs > 0 ? r.total_energy_pj * 1000.0 /
                            static_cast<double>(macs)
                      : 0.0)
     << ", \"utilization\": " << json_number(r.utilization)
     << ", \"macs\": " << macs << "}";
  os << ",\n  \"homog_baseline\": ";
  if (r.homog.valid) {
    const MacroCandidate& c = r.candidates[r.homog.candidate_index];
    os << "{\"valid\": true, \"point_id\": " << jstr(c.point_id)
       << ", \"label\": " << jstr(c.label)
       << ", \"count\": " << r.homog.count
       << ", \"time_us\": " << json_number(r.homog.time_us)
       << ", \"energy_pj\": " << json_number(r.homog.energy_pj) << "}";
  } else {
    os << "{\"valid\": false}";
  }
  os << "\n}\n";
  return os.str();
}

}  // namespace syndcim::netmap
