#include "power/activity.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "cell/bind.hpp"
#include "power/activity_kernel.hpp"

namespace syndcim::power {

using cell::Kind;
using netlist::FlatNetlist;
using netlist::NetConst;

namespace {
using cell::kNoNet;

/// Base state shared by all estimators: constants pinned, primary inputs
/// at the workload spec, everything else at the 0.5 prior.
ActivityModel base_model(const FlatNetlist& nl, const ActivitySpec& spec) {
  ActivityModel am;
  am.p_one.assign(nl.net_count(), 0.5);
  am.toggle_rate.assign(nl.net_count(), 0.0);
  for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
    if (nl.net_const(n) != NetConst::kNone) {
      am.p_one[n] = nl.net_const(n) == NetConst::kOne ? 1.0 : 0.0;
      am.toggle_rate[n] = 0.0;
    }
  }
  for (const auto& io : nl.primary_inputs()) {
    am.p_one[io.net] = spec.input_p1;
    am.toggle_rate[io.net] = spec.input_toggle;
  }
  return am;
}

/// Clock nets toggle twice per cycle regardless of what any estimator
/// computed (GateSim models an implicit clock; the probabilistic model
/// never drives clock trees).
void force_clock_nets(const ResolvedGates& rg, ActivityModel& am) {
  for (const std::uint32_t net : rg.clock_nets) am.toggle_rate[net] = 2.0;
}

/// Retained gate-at-a-time fixpoint (the control arm ActivityKernel is
/// verified against): same gate classification, same visit order, same
/// arithmetic, evaluated through cell::eval_kind per input combo.
void fixpoint_scalar(const std::vector<ResolvedGate>& gates,
                     const std::uint32_t* ids, std::size_t n,
                     const ActivitySpec& spec, ActivityModel& am) {
  for (int pass = 0; pass < 8; ++pass) {
    // Sequential outputs first.
    for (std::size_t k = 0; k < n; ++k) {
      const ResolvedGate& g = gates[ids[k]];
      const cell::TimingRole role = g.cell->timing_role();
      if (role == cell::TimingRole::kCombinational) continue;
      const std::uint32_t q = g.q_net;
      if (q == kNoNet) continue;
      if (role == cell::TimingRole::kStorage) {
        am.p_one[q] = spec.weight_p1;
        am.toggle_rate[q] = 0.0;  // weights static during MAC
        continue;
      }
      if (g.d_net == kNoNet) continue;
      const double pd = am.p_one[g.d_net];
      am.p_one[q] = pd;
      am.toggle_rate[q] = 2.0 * pd * (1.0 - pd) * kToggleDamp;
    }
    // Combinational gates: exact P1 under independence.
    for (std::size_t k = 0; k < n; ++k) {
      const ResolvedGate& g = gates[ids[k]];
      if (g.cell->timing_role() != cell::TimingRole::kCombinational) {
        continue;
      }
      const int n_in = static_cast<int>(g.in_nets.size());
      const int combos = 1 << n_in;
      std::vector<double> pout(g.out_nets.size(), 0.0);
      std::vector<int> in_vals(static_cast<std::size_t>(n_in));
      for (int v = 0; v < combos; ++v) {
        double p = 1.0;
        for (int i = 0; i < n_in; ++i) {
          const int bit = (v >> i) & 1;
          in_vals[static_cast<std::size_t>(i)] = bit;
          const double p1 = am.p_one[g.in_nets[static_cast<std::size_t>(i)]];
          p *= bit ? p1 : (1.0 - p1);
        }
        if (p == 0.0) continue;
        const auto outs = cell::eval_kind(g.cell->kind, in_vals);
        for (std::size_t o = 0; o < pout.size() && o < outs.size(); ++o) {
          if (outs[o]) pout[o] += p;
        }
      }
      for (std::size_t o = 0; o < g.out_nets.size(); ++o) {
        const std::uint32_t net = g.out_nets[o];
        if (net == kNoNet) continue;
        am.p_one[net] = pout[o];
        am.toggle_rate[net] = 2.0 * pout[o] * (1.0 - pout[o]) * kToggleDamp;
      }
    }
  }
}

std::vector<std::uint32_t> iota_ids(std::size_t n) {
  std::vector<std::uint32_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<std::uint32_t>(i);
  return ids;
}
}  // namespace

ActivityModel activity_from_sim(const FlatNetlist& nl,
                                const cell::Library& lib,
                                const sim::GateSim& gs) {
  if (gs.cycles() == 0) {
    throw std::invalid_argument("activity_from_sim: no cycles simulated");
  }
  ActivityModel am;
  // Each simulated cycle carries `lanes` independent workload cycles and
  // net_toggles() is popcount-summed over lanes, so the per-workload-cycle
  // rate divides by cycles * lanes (with lanes == 1 this is bit-identical
  // to the scalar normalization).
  const double lanes = static_cast<double>(gs.lanes());
  const double cycles = static_cast<double>(gs.cycles()) * lanes;
  am.toggle_rate.resize(nl.net_count());
  am.p_one.assign(nl.net_count(), 0.5);  // p1 not tracked by the simulator
  for (std::uint32_t n = 0; n < nl.net_count(); ++n) {
    am.toggle_rate[n] = static_cast<double>(gs.net_toggles()[n]) / cycles;
    // Final-state approximation, averaged over the lane population.
    am.p_one[n] =
        static_cast<double>(std::popcount(gs.net_word(n))) / lanes;
  }
  // Clock nets: GateSim's clock is implicit; force 2 transitions/cycle.
  force_clock_nets(resolve_gates(nl, lib), am);
  return am;
}

ActivityModel propagate_activity(const FlatNetlist& nl,
                                 const cell::Library& lib,
                                 const ActivitySpec& spec,
                                 ActivityEngine engine) {
  const ResolvedGates rg = resolve_gates(nl, lib);
  ActivityModel am = base_model(nl, spec);

  // Iterate to a fixpoint so register feedback (accumulators) settles.
  if (engine == ActivityEngine::kSoa) {
    const ActivityKernel kernel(rg);
    kernel.run(spec, am);
  } else {
    const auto ids = iota_ids(rg.gates.size());
    fixpoint_scalar(rg.gates, ids.data(), ids.size(), spec, am);
  }
  force_clock_nets(rg, am);
  return am;
}

ActivityModel propagate_activity_grouped(const netlist::FlatNetlist& nl,
                                         const cell::Library& lib,
                                         const ActivitySpec& spec,
                                         ActivityCache* cache,
                                         GroupedActivityStats* stats,
                                         ActivityEngine engine) {
  const ResolvedGates rg = resolve_gates(nl, lib);
  const std::vector<ResolvedGate>& gates = rg.gates;
  ActivityModel am = base_model(nl, spec);

  // Group membership in first-gate-occurrence order; for generated macros
  // that order is topological (align -> drivers -> columns -> OFUs), so
  // each cone sees settled inputs.
  std::vector<std::int32_t> slot_of(nl.group_names().size(), -1);
  std::vector<std::vector<std::uint32_t>> cones;
  for (std::uint32_t gi = 0; gi < nl.gates().size(); ++gi) {
    std::int32_t& slot = slot_of[nl.gates()[gi].group];
    if (slot < 0) {
      slot = static_cast<std::int32_t>(cones.size());
      cones.emplace_back();
    }
    cones[static_cast<std::size_t>(slot)].push_back(gi);
  }

  // One kernel over the whole netlist, shared by every cone; cache misses
  // run the fixpoint restricted to the cone's members.
  std::unique_ptr<const ActivityKernel> kernel;
  if (engine == ActivityEngine::kSoa) {
    kernel = std::make_unique<const ActivityKernel>(rg);
  }

  const std::string& libfp = lib.fingerprint();
  std::vector<std::uint32_t> local_of(nl.net_count(), UINT32_MAX);
  std::vector<std::uint32_t> touched;
  std::vector<std::uint32_t> driven_list;

  for (const auto& members : cones) {
    if (stats) ++stats->groups;

    // Local numbering of every net the cone references (first-use order)
    // plus the cone's driven-net list (first-driver order) — both pure
    // functions of the cone's structure.
    touched.clear();
    driven_list.clear();
    core::ArtifactHasher h;
    h.str("act2");
    h.str(libfp);
    h.dbl(spec.weight_p1);
    auto local_id = [&](std::uint32_t net) -> std::uint32_t {
      std::uint32_t& slot = local_of[net];
      if (slot == UINT32_MAX) {
        slot = static_cast<std::uint32_t>(touched.size());
        touched.push_back(net);
      }
      return slot;
    };
    for (const std::uint32_t gi : members) {
      const ResolvedGate& g = gates[gi];
      h.str(g.cell->name);
      h.u64(g.in_nets.size());
      for (const std::uint32_t net : g.in_nets) h.u32(local_id(net));
      h.u64(g.out_nets.size());
      for (const std::uint32_t net : g.out_nets) {
        h.u32(net == kNoNet ? UINT32_MAX : local_id(net));
      }
    }
    // Driven list: first-driver order, deduplicated.
    {
      std::vector<bool> seen(touched.size(), false);
      for (const std::uint32_t gi : members) {
        for (const std::uint32_t net : gates[gi].out_nets) {
          if (net == kNoNet) continue;
          const std::uint32_t id = local_of[net];
          if (!seen[id]) {
            seen[id] = true;
            driven_list.push_back(net);
          }
        }
      }
    }
    // Observed probabilities of every referenced net (inputs settled by
    // upstream cones; driven nets carry their pre-cone state, which covers
    // multi-driven corner cases exactly).
    for (const std::uint32_t net : touched) h.dbl(am.p_one[net]);
    const std::string key = h.hex();

    bool ran = false;
    const auto run_cone = [&] {
      ran = true;
      if (kernel) {
        kernel->run_members(members, spec, am);
      } else {
        fixpoint_scalar(gates, members.data(), members.size(), spec, am);
      }
    };
    if (cache == nullptr) {
      run_cone();
    } else {
      const auto art = cache->get_or_compute(key, [&] {
        run_cone();
        GroupActivityArtifact out;
        out.driven.reserve(driven_list.size());
        for (const std::uint32_t net : driven_list) {
          out.driven.emplace_back(am.p_one[net], am.toggle_rate[net]);
        }
        return out;
      });
      // A hit may be an L2 object from disk: splice it only if it fits
      // this cone, and recompute the cone otherwise.
      if (!ran && art->driven.size() == driven_list.size()) {
        for (std::size_t j = 0; j < driven_list.size(); ++j) {
          am.p_one[driven_list[j]] = art->driven[j].first;
          am.toggle_rate[driven_list[j]] = art->driven[j].second;
        }
        if (stats) ++stats->group_hits;
      } else if (!ran) {
        run_cone();
      }
    }
    for (const std::uint32_t net : touched) local_of[net] = UINT32_MAX;
  }

  // Clock nets toggle twice per cycle (identical to propagate_activity).
  force_clock_nets(rg, am);
  return am;
}

}  // namespace syndcim::power
