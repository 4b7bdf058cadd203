#pragma once
#include <cstdint>
#include <span>
#include <vector>

#include "cell/library.hpp"
#include "netlist/flatten.hpp"
#include "power/activity.hpp"

namespace syndcim::power {

/// Temporal-correlation derating applied to the 2p(1-p) toggle estimate.
inline constexpr double kToggleDamp = 0.7;

/// One gate with its nets resolved against the library cell:
///  - in_nets/out_nets are in the cell's *canonical* pin order
///    (cell::input_pin_names / output_pin_names) whenever the cell's pin
///    names match the canonical lists, so eval_kind sees its inputs in the
///    order it defines. Cells with non-matching pin names keep liberty
///    file order (the only order available).
///  - d_net/q_net are resolved by pin role ("D"/"Q" by name, falling back
///    to first non-clock input / first output), never by position: a
///    liberty file is free to list CK before D.
struct ResolvedGate {
  const cell::Cell* cell;
  /// Views into ResolvedGates::net_pool (resolution runs on every
  /// propagation, so per-gate heap allocations are pooled away).
  std::span<const std::uint32_t> in_nets;
  std::span<const std::uint32_t> out_nets;
  std::uint32_t d_net;
  std::uint32_t q_net;
};

struct ResolvedGates {
  std::vector<ResolvedGate> gates;
  /// Nets driving clock pins, in gate order (may contain repeats).
  std::vector<std::uint32_t> clock_nets;
  /// Backing storage for every gate's in_nets/out_nets spans. Sized
  /// exactly up front and never reallocated, so the spans stay valid for
  /// the life of the ResolvedGates (including after a move).
  std::vector<std::uint32_t> net_pool;
};

/// Builds from cell::bind, so it refuses what bind refuses: every input
/// net is connected, and only out_nets, d_net and q_net may be kNoNet.
[[nodiscard]] ResolvedGates resolve_gates(const netlist::FlatNetlist& nl,
                                          const cell::Library& lib);

/// Structure-of-arrays activity propagation kernel: the Gauss-Seidel
/// fixpoint of propagate_activity restructured into flat per-class loops
/// (sequential gates as (d, q) pairs; combinational gates as a CSR of
/// input nets plus one precomputed truth mask per connected output).
///
/// Bit-identity with the scalar arm: gates are visited in the same order,
/// per-combo probabilities are built by iterative doubling in the scalar
/// arm's exact left-to-right multiplication order, zero-probability combos
/// are skipped in both arms, and mask accumulation adds combos in the same
/// ascending order the scalar eval loop does.
class ActivityKernel {
 public:
  /// Throws std::logic_error for a combinational gate with more than 5
  /// connected inputs (truth masks are 32-bit; the cell library tops out
  /// at 5 with the 4:2 compressor). Use the scalar engine beyond that.
  explicit ActivityKernel(const ResolvedGates& rg);

  /// Runs the 8-pass fixpoint over all gates in netlist order.
  void run(const ActivitySpec& spec, ActivityModel& am) const;
  /// Runs the 8-pass fixpoint over a cone only (gate ids in visit order),
  /// reading settled values for everything outside it.
  void run_members(const std::vector<std::uint32_t>& members,
                   const ActivitySpec& spec, ActivityModel& am) const;

 private:
  void fixpoint(const std::uint32_t* ids, std::size_t n,
                const ActivitySpec& spec, ActivityModel& am) const;

  // Gate classes: 0 = skip (sequential with Q or D unconnected),
  // 1 = storage, 2 = register, 3 = combinational.
  std::vector<std::uint8_t> klass_;
  std::vector<std::uint32_t> seq_d_;  // per gate; valid for class 2
  std::vector<std::uint32_t> seq_q_;  // per gate; valid for classes 1-2
  std::vector<std::uint32_t> in_begin_;   // per gate + 1, into ins_
  std::vector<std::uint32_t> ins_;        // canonical-order input nets
  std::vector<std::uint32_t> out_begin_;  // per gate + 1, into outs_
  std::vector<std::uint32_t> outs_;       // connected output nets
  std::vector<std::uint32_t> masks_;      // truth mask per entry of outs_
  std::vector<std::uint32_t> all_ids_;    // 0..n-1, for run()
};

}  // namespace syndcim::power
