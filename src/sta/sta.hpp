#pragma once
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cell/bind.hpp"
#include "cell/library.hpp"
#include "core/diag.hpp"
#include "netlist/flatten.hpp"

namespace syndcim::sta {

/// Wire parasitics added on top of pin capacitance. Before placement a
/// fanout-based estimate is used; after placement the layout engine
/// back-annotates per-net capacitance.
struct WireModel {
  double cap_per_fanout_ff = 0.25;
  /// Optional per-net capacitance (indexed by flat net id); overrides the
  /// fanout estimate where the entry is >= 0.
  std::vector<double> per_net_cap_ff;

  [[nodiscard]] double net_cap(std::uint32_t net, int fanout) const {
    if (net < per_net_cap_ff.size() && per_net_cap_ff[net] >= 0.0) {
      return per_net_cap_ff[net];
    }
    return cap_per_fanout_ff * fanout;
  }
};

/// Propagation kernel selection. Both kernels implement the same timing
/// semantics with the same operation order and produce bit-identical
/// reports; kScalar is the retained gate-at-a-time control arm the golden
/// tests and perf benchmarks compare against.
enum class StaKernel : std::uint8_t {
  kSoa,     ///< flat per-level CSR arc loops with a cached load plan
  kScalar,  ///< retained gate-at-a-time reference
};

struct StaOptions {
  double clock_period_ps = 1250.0;  ///< MAC clock (800 MHz default)
  /// Weight-update clock period; SRAM write endpoints are checked against
  /// this instead of the MAC clock.
  double write_period_ps = 1250.0;
  double vdd = 0.9;
  double temp_c = 25.0;  ///< junction temperature (PVT corner)
  double input_slew_ps = 20.0;
  double input_delay_ps = 0.0;
  double output_margin_ps = 0.0;
  /// Max-transition design rule (nominal-domain ps): APR tools repair
  /// slew violations with repeaters, so propagated slews are clamped here.
  double max_slew_ps = 400.0;
  WireModel wire;
  /// Primary inputs held static during operation (bank selects, precision
  /// mode, FP select): excluded from timing like a case analysis, exactly
  /// as a constraints file would declare them. The untimed mask propagates
  /// through combinational gates whose every timing arc comes from an
  /// untimed or constant net, and untimed nets are not timed endpoints.
  /// Names must match primary input ports; unknown names are ignored
  /// (reported as STA-UNKNOWN-INPUT warnings when `diag` is set — a
  /// misspelled name silently re-times a path that should be static).
  std::vector<std::string> static_inputs;
  /// Also collect per-group boundary summaries (TimingReport::interfaces).
  /// Off by default: the extra pass costs one sweep over all pins, which
  /// search-time callers running thousands of analyses don't need.
  bool collect_group_interfaces = false;
  StaKernel kernel = StaKernel::kSoa;
  /// Optional diagnostics sink for constraint-sanity warnings.
  core::DiagEngine* diag = nullptr;
};

/// One stage of a reported path, already resolved to names.
struct PathStage {
  std::string master;  ///< cell name, or "<port>" at the endpoints
  std::string group;   ///< depth-1 instance the gate belongs to
  double arrival_ps = 0.0;
};

struct TimingPath {
  double arrival_ps = 0.0;
  double required_ps = 0.0;
  [[nodiscard]] double slack_ps() const { return required_ps - arrival_ps; }
  std::string endpoint;  ///< description of the endpoint
  std::vector<PathStage> stages;
};

/// Worst slack per depth-1 instance group (endpoint classification).
struct GroupSlack {
  std::string group;
  double wns_ps = std::numeric_limits<double>::infinity();
  double worst_arrival_ps = 0.0;
};

/// Timing of one net crossing a group boundary (voltage/temperature
/// scaling already applied, like every other reported time).
struct BoundaryArc {
  std::string net;
  double arrival_ps = 0.0;
  double slew_ps = 0.0;
};

/// Interface summary of one depth-1 instance group: the arrival/slew of
/// every net entering the group (consumed by its gates but driven
/// elsewhere) and leaving it (driven by its gates and consumed outside, or
/// a primary output). A group whose structure and input arcs are unchanged
/// between runs necessarily reproduces its output arcs, so these
/// summaries are what incremental consumers compare instead of
/// re-levelizing the cone.
struct GroupInterface {
  std::string group;
  std::vector<BoundaryArc> inputs;
  std::vector<BoundaryArc> outputs;
};

struct TimingReport {
  double wns_ps = 0.0;  ///< worst negative slack (positive if met)
  double tns_ps = 0.0;  ///< total negative slack (<= 0)
  /// Minimum feasible clock period (max arrival + setup over MAC-clocked
  /// endpoints) and the corresponding fmax.
  double min_period_ps = 0.0;
  double fmax_mhz = 0.0;
  /// Minimum feasible weight-update period.
  double min_write_period_ps = 0.0;
  std::vector<GroupSlack> groups;
  /// Per-group boundary summaries; populated only when
  /// StaOptions::collect_group_interfaces is set. Group order follows
  /// FlatNetlist::group_names(); nets appear in first-use gate order.
  std::vector<GroupInterface> interfaces;
  TimingPath critical;

  [[nodiscard]] bool met() const { return wns_ps >= 0.0; }
  /// Worst slack among endpoints whose group name is `g`; +inf if none.
  [[nodiscard]] double group_wns(std::string_view g) const;
};

/// Monte-Carlo process-variation results (paper Sec. I: DCIM's robustness
/// against PVT variation): fmax distribution over random per-gate delay
/// derates.
struct VariationReport {
  std::vector<double> fmax_samples_mhz;
  double mean_fmax_mhz = 0.0;
  double sigma_fmax_mhz = 0.0;
  /// Fraction of samples meeting the target frequency.
  [[nodiscard]] double yield_at(double freq_mhz) const;
};

/// Levelized static timing engine over a flattened netlist.
///
/// Roles: DFF/latch CK->Q launches at clk-to-q, D is a setup endpoint;
/// SRAM bitcell Q launches at t=0 (weights are static during MAC) and its
/// D/WL pins are endpoints in the weight-update clock domain; primary
/// inputs launch at input_delay, primary outputs are endpoints. Clock pins
/// see an ideal zero-skew clock.
///
/// Timing semantics shared by both kernels:
///  - Arrival: max over live arcs (an arc is live when its input net is
///    neither constant nor untimed), visited in (level, gate, arc) order.
///  - Slew: max over the same live arcs, independent of which arc wins
///    the arrival race (the worst transition reaches the next stage even
///    when a faster path launches it).
///  - Case analysis: a combinational output none of whose arcs fired is
///    untimed; untimed nets are excluded from the endpoint set.
class StaEngine {
 public:
  StaEngine(const netlist::FlatNetlist& nl, const cell::Library& lib);

  [[nodiscard]] TimingReport analyze(const StaOptions& opt) const;

  /// Monte-Carlo corner analysis: `samples` STA runs with independent
  /// lognormal-ish per-gate delay derates of relative sigma
  /// `delay_sigma` (e.g. 0.05 for 5% local variation) plus a global
  /// corner shift `global_sigma` shared by all gates of a sample.
  [[nodiscard]] VariationReport analyze_variation(const StaOptions& opt,
                                                  double delay_sigma,
                                                  double global_sigma,
                                                  int samples,
                                                  unsigned seed = 1) const;

  /// Total capacitance (pins + wire) on a net, as seen by its driver.
  [[nodiscard]] double net_load_ff(std::uint32_t net,
                                   const WireModel& wire) const;

 private:
  /// Per-analysis propagation state shared by both kernels. Arrival and
  /// slew live in one 16-byte record per net (both kernels always touch
  /// them together, so the pair costs one cache line, not two); same for
  /// the traceback pair written on an arrival win.
  struct PropState {
    struct NetTime {
      double at;
      double slew;
    };
    struct Trace {
      std::uint32_t prev_net;
      std::int32_t via_gate;
    };
    std::vector<NetTime> ts;
    std::vector<Trace> tr;
    std::vector<std::uint8_t> untimed;
    /// slew written by a live arc; doubles as the "some arc fired" flag
    /// the case analysis reads (a live arc always writes slew).
    std::vector<std::uint8_t> slew_set;
  };
  /// Everything that depends only on (netlist, library, wire model),
  /// computed once and reused across analyze calls and variation samples:
  /// per-net loads plus every arc's LUT rows with the load axis collapsed
  /// out (Lut2d::collapse_load), and the launch-point clk->q values at the
  /// fixed clock slew. Rows are deduplicated by (LUT, load): identical
  /// pairs collapse to bit-identical rows, and sharing them keeps the
  /// kernel's row working set cache-resident instead of streaming one
  /// private row pair per arc.
  struct LoadPlan {
    WireModel wire;
    std::vector<double> net_load;  ///< net_load_ff(n, wire), per net
    std::vector<double> rows;      ///< deduplicated collapsed rows
    std::vector<std::uint32_t> arc_drow;  ///< per arc, into rows
    std::vector<std::uint32_t> arc_srow;
    std::vector<double> launch_delay;  ///< per launch point (registers)
    std::vector<double> launch_slew;
  };
  [[nodiscard]] std::shared_ptr<const LoadPlan> load_plan(
      const WireModel& wire) const;
  [[nodiscard]] TimingReport analyze_impl(const StaOptions& opt,
                                          const float* gate_derate) const;
  void propagate_scalar(const StaOptions& opt, const float* gate_derate,
                        PropState& ps) const;
  void propagate_soa(const LoadPlan& plan, const StaOptions& opt,
                     const float* gate_derate, PropState& ps) const;

  /// One sequential output pin: registers launch clk->q from the plan,
  /// storage launches at t=0.
  struct LaunchPoint {
    std::uint32_t gate;
    std::uint32_t qnet;
    std::uint16_t pin;  ///< cell pin index of the output
    bool storage;
  };
  /// One setup endpoint (non-clock input pin of a sequential cell),
  /// resolved at construction so analyze never formats names for
  /// endpoints that don't end up on the critical path.
  struct SetupEndpoint {
    std::uint32_t net;
    std::uint32_t gate;
    std::uint32_t group;
    std::uint16_t pin;  ///< cell pin index, for the endpoint label
    bool write_domain;
    double setup_ps;
  };

  const netlist::FlatNetlist& nl_;
  const cell::Library& lib_;
  cell::Binding bind_;
  std::vector<double> pin_cap_sum_;  // per net
  std::vector<int> fanout_;          // per net (input pin count)
  std::vector<std::vector<std::uint32_t>> gate_order_;  // levels

  // SoA arc CSR over the levelized combinational gates, flattened in the
  // exact (level, gate, arc) visit order of the scalar arm so both
  // kernels accumulate max() in the same order.
  std::vector<std::uint32_t> arc_in_;
  std::vector<std::uint32_t> arc_out_;
  std::vector<std::uint32_t> arc_gate_;
  std::vector<const cell::Lut2d*> arc_delay_;
  std::vector<const cell::Lut2d*> arc_oslew_;
  std::vector<std::uint8_t> arc_axis_shared_;  // delay/slew share slew axis
  // Deduplicated slew axes: the library reuses a handful of axis vectors
  // across all cells, so the kernel locates on a flat table that stays in
  // cache instead of chasing each arc's Lut2d.
  std::vector<double> ax_vals_;
  std::vector<std::uint32_t> ax_off_;    // per axis id, into ax_vals_
  std::vector<std::uint32_t> ax_len_;    // per axis id
  std::vector<std::uint16_t> arc_dax_;   // delay-LUT axis id, per arc
  std::vector<std::uint16_t> arc_sax_;   // out-slew-LUT axis id, per arc
  std::vector<std::uint32_t> level_arc_begin_;  // per level, into arc_*
  std::vector<std::uint32_t> level_net_begin_;  // per level, into below
  std::vector<std::uint32_t> level_out_nets_;   // driven nets, visit order
  std::vector<std::uint8_t> net_const_;         // net_const != kNone
  std::vector<std::uint32_t> undriven_;  // nets no gate drives; start at 0
  std::vector<LaunchPoint> launches_;
  std::vector<SetupEndpoint> setup_eps_;
  // Structural group-interface membership (net ids in report order).
  std::vector<std::vector<std::uint32_t>> iface_in_;
  std::vector<std::vector<std::uint32_t>> iface_out_;

  mutable std::mutex plan_mu_;
  mutable std::shared_ptr<const LoadPlan> plan_;
};

}  // namespace syndcim::sta
