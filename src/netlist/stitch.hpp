#pragma once
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/artifact_cache.hpp"
#include "netlist/flatten.hpp"

namespace syndcim::netlist {

/// One module subtree flattened in isolation, ready to be spliced into a
/// parent FlatNetlist under any depth-1 group. All references are relative
/// (port slots, block-internal allocation order, block-local name tables),
/// so a block built once can be stitched many times — per instance within
/// one design and across macro configurations that share the subcircuit.
///
/// The splice contract is exact: stitching a block reproduces byte for
/// byte what `flatten()`'s recursive `expand` would have emitted for the
/// same instance — net allocation order, net names, gate order and the
/// first-use interning order of masters and pin names.
struct FlatBlock {
  enum class RefKind : std::uint8_t { kPort, kInternal, kConst0, kConst1 };
  /// A net reference that is meaningful only relative to a splice site.
  struct NetRef {
    RefKind kind = RefKind::kInternal;
    std::uint32_t index = 0;  ///< port slot or internal-net index
  };
  struct PinConn {
    std::uint32_t pin;  ///< index into pin_names
    NetRef net;
  };
  struct Gate {
    std::uint32_t master;  ///< index into master_names
    std::vector<PinConn> pins;
  };
  /// A net the block allocates while expanding, in allocation order.
  /// `prefixed` names are emitted as "<group>.<suffix>" at splice time;
  /// unprefixed ones (deep unconnected-output .nc nets) verbatim.
  struct InternalNet {
    std::string suffix;
    bool prefixed = true;
  };
  /// One net-allocation event. Internal events carry the InternalNet
  /// index; const events mark where the block first needs the design-wide
  /// shared const0/const1 net (allocated only if no earlier gate anywhere
  /// in the design claimed it — exactly `flatten()`'s lazy sharing).
  struct AllocEvent {
    RefKind kind = RefKind::kInternal;
    std::uint32_t internal = 0;
  };

  /// Port surface in module-port order. Ports sharing one module-local
  /// net share a slot (flatten resolves them to one flat net).
  struct PortInfo {
    std::string name;
    PortDir dir = PortDir::kIn;
    std::uint32_t slot = 0;
  };

  std::vector<PortInfo> ports;
  /// Module-local net id backing each port slot (slot -> net id); the
  /// stitcher uses it to look up the parent-chosen flat net.
  std::vector<std::uint32_t> slot_nets;
  std::vector<InternalNet> internals;
  std::vector<AllocEvent> alloc_seq;
  std::vector<std::string> master_names;  ///< block-local, first-use order
  std::vector<std::string> pin_names;
  std::vector<Gate> gates;

  [[nodiscard]] std::size_t gate_count() const { return gates.size(); }
};

/// Shared block tier of the subcircuit-artifact cache: blocks are keyed by
/// a canonical 128-bit structural hash of the module subtree (local net
/// names/ties, ports, instance names, cell masters, connections, and
/// recursively every submodule master's hash; the module's own name is
/// excluded — identity is structure, not label), so identical subcircuits
/// reuse one expansion across instances, configurations, specs and
/// worker threads.
using FlatBlockCache = core::ArtifactCache<FlatBlock>;

/// Flattens the subtree of one module into a splice-ready block.
/// Throws std::invalid_argument on unconnected submodule input ports, like
/// `flatten()` would while expanding an instance of the module.
[[nodiscard]] FlatBlock flatten_block(const Design& d,
                                      const std::string& module_name);

struct StitchStats {
  std::size_t blocks_spliced = 0;   ///< submodule instances stitched
  std::size_t blocks_built = 0;     ///< flatten_block runs (cache misses)
  std::size_t blocks_reused = 0;    ///< splices served from a prior build
  std::size_t gates_spliced = 0;    ///< gates emitted via block splicing
};

struct StitchResult {
  FlatNetlist nl;
  StitchStats stats;
};

/// Drop-in incremental replacement for `flatten()`: expands each depth-1
/// submodule instance by splicing a pre-flattened FlatBlock with net-index
/// remapping instead of walking the hierarchy again. The result is byte
/// for byte identical to `flatten(d, top)` (verified by test). `cache`
/// optionally shares blocks across calls; within one call each distinct
/// module body is expanded at most once regardless.
[[nodiscard]] StitchResult stitch_flatten(const Design& d,
                                          const std::string& top,
                                          FlatBlockCache* cache = nullptr);

/// Deep structural equality of two flat netlists (every array compared,
/// names included) — the cold-vs-incremental equivalence check.
[[nodiscard]] bool flat_netlist_equal(const FlatNetlist& a,
                                      const FlatNetlist& b);

}  // namespace syndcim::netlist
