#include "core/artifact_codec.hpp"

#include <type_traits>

#include "core/binio.hpp"
#include "core/blob_store.hpp"
#include "layout/serialize.hpp"
#include "lint/serialize.hpp"
#include "netlist/serialize.hpp"
#include "power/serialize.hpp"
#include "sta/serialize.hpp"

namespace syndcim::core {

namespace {

constexpr std::uint8_t kDiagListVersion = 1;
constexpr std::uint8_t kLintArtVersion = 1;
constexpr std::uint8_t kPlacedArtVersion = 1;
constexpr std::uint8_t kRouteArtVersion = 1;
constexpr std::uint8_t kTimingArtVersion = 1;
constexpr std::uint8_t kPowerArtVersion = 1;
constexpr std::uint8_t kSliceEvalVersion = 2;

void encode_diags(BinWriter& w, const std::vector<Diagnostic>& diags) {
  w.u8(kDiagListVersion);
  w.u32(static_cast<std::uint32_t>(diags.size()));
  for (const Diagnostic& d : diags) {
    w.u8(static_cast<std::uint8_t>(d.severity));
    w.str(d.rule);
    w.str(d.message);
    w.str(d.object);
    w.str(d.source);
    w.i32(d.line);
  }
}

std::vector<Diagnostic> decode_diags(BinReader& r) {
  if (r.u8() != kDiagListVersion) {
    throw BinDecodeError("unsupported codec version for diagnostics");
  }
  const std::uint32_t n = r.len(21);
  std::vector<Diagnostic> diags;
  diags.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Diagnostic d;
    const std::uint8_t sev = r.u8();
    if (sev > static_cast<std::uint8_t>(Severity::kError)) {
      throw BinDecodeError("bad severity");
    }
    d.severity = static_cast<Severity>(sev);
    d.rule = r.str();
    d.message = r.str();
    d.object = r.str();
    d.source = r.str();
    d.line = r.i32();
    diags.push_back(std::move(d));
  }
  return diags;
}

std::size_t diags_bytes(const std::vector<Diagnostic>& diags) {
  std::size_t n = deep_vec_bytes(diags);
  for (const Diagnostic& d : diags) {
    n += deep_str_bytes(d.rule) + deep_str_bytes(d.message) +
         deep_str_bytes(d.object) + deep_str_bytes(d.source);
  }
  return n;
}

void check_version(BinReader& r, std::uint8_t expect, const char* what) {
  if (r.u8() != expect) {
    throw BinDecodeError(std::string("unsupported codec version for ") + what);
  }
}

}  // namespace

// --- composite artifact codecs ---------------------------------------------
// Sub-payloads are embedded length-prefixed (str), so each layer's codec
// owns its own framing and versioning.

std::string encode_lint_artifact(const LintArtifact& a) {
  BinWriter w;
  w.u8(kLintArtVersion);
  w.str(lint::encode_lint_summary(a.summary));
  encode_diags(w, a.diags);
  return w.take();
}

LintArtifact decode_lint_artifact(std::string_view payload) {
  BinReader r(payload);
  check_version(r, kLintArtVersion, "lint artifact");
  LintArtifact a;
  a.summary = lint::decode_lint_summary(r.str());
  a.diags = decode_diags(r);
  r.expect_end();
  return a;
}

std::string encode_placed_artifact(const PlacedArtifact& a) {
  BinWriter w;
  w.u8(kPlacedArtVersion);
  w.str(layout::encode_floorplan(a.floorplan));
  encode_diags(w, a.diags);
  return w.take();
}

PlacedArtifact decode_placed_artifact(std::string_view payload) {
  BinReader r(payload);
  check_version(r, kPlacedArtVersion, "placed artifact");
  PlacedArtifact a;
  a.floorplan = layout::decode_floorplan(r.str());
  a.diags = decode_diags(r);
  r.expect_end();
  return a;
}

std::string encode_route_artifact(const RouteArtifact& a) {
  BinWriter w;
  w.u8(kRouteArtVersion);
  w.str(layout::encode_drc_report(a.drc));
  w.str(layout::encode_lvs_report(a.lvs));
  w.str(sta::encode_wire_model(a.wire));
  return w.take();
}

RouteArtifact decode_route_artifact(std::string_view payload) {
  BinReader r(payload);
  check_version(r, kRouteArtVersion, "route artifact");
  RouteArtifact a;
  a.drc = layout::decode_drc_report(r.str());
  a.lvs = layout::decode_lvs_report(r.str());
  a.wire = sta::decode_wire_model(r.str());
  r.expect_end();
  return a;
}

std::string encode_timing_artifact(const TimingArtifact& a) {
  BinWriter w;
  w.u8(kTimingArtVersion);
  w.str(sta::encode_timing_report(a.timing));
  encode_diags(w, a.diags);
  return w.take();
}

TimingArtifact decode_timing_artifact(std::string_view payload) {
  BinReader r(payload);
  check_version(r, kTimingArtVersion, "timing artifact");
  TimingArtifact a;
  a.timing = sta::decode_timing_report(r.str());
  a.diags = decode_diags(r);
  r.expect_end();
  return a;
}

std::string encode_power_artifact(const PowerArtifact& a) {
  BinWriter w;
  w.u8(kPowerArtVersion);
  w.str(power::encode_power_report(a.power));
  w.str(power::encode_area_report(a.area));
  return w.take();
}

PowerArtifact decode_power_artifact(std::string_view payload) {
  BinReader r(payload);
  check_version(r, kPowerArtVersion, "power artifact");
  PowerArtifact a;
  a.power = power::decode_power_report(r.str());
  a.area = power::decode_area_report(r.str());
  r.expect_end();
  return a;
}

std::string encode_slice_eval(const SliceEval& e) {
  BinWriter w;
  w.u8(kSliceEvalVersion);
  w.i32(e.slice_cols);
  w.f64(e.min_period_ps);
  w.f64(e.min_write_period_ps);
  w.f64(e.mac_path_period_ps);
  w.f64(e.ofu_path_period_ps);
  w.u32(static_cast<std::uint32_t>(e.groups.size()));
  for (const SliceEval::GroupCost& g : e.groups) {
    w.str(g.group);
    w.f64(g.dynamic_fj);
    w.f64(g.leakage_nw);
    w.f64(g.area_um2);
  }
  return w.take();
}

SliceEval decode_slice_eval(std::string_view payload) {
  BinReader r(payload);
  check_version(r, kSliceEvalVersion, "slice characterization");
  SliceEval e;
  e.slice_cols = r.i32();
  e.min_period_ps = r.f64();
  e.min_write_period_ps = r.f64();
  e.mac_path_period_ps = r.f64();
  e.ofu_path_period_ps = r.f64();
  const std::uint32_t n = r.len(28);  // name length + three doubles
  e.groups.resize(n);
  for (SliceEval::GroupCost& g : e.groups) {
    g.group = r.str();
    g.dynamic_fj = r.f64();
    g.leakage_nw = r.f64();
    g.area_um2 = r.f64();
  }
  r.expect_end();
  return e;
}

std::size_t deep_bytes(const LintArtifact& a) {
  return lint::deep_bytes(a.summary) + diags_bytes(a.diags);
}
std::size_t deep_bytes(const PlacedArtifact& a) {
  return layout::deep_bytes(a.floorplan) + diags_bytes(a.diags);
}
std::size_t deep_bytes(const RouteArtifact& a) {
  return layout::deep_bytes(a.drc) + layout::deep_bytes(a.lvs) +
         sta::deep_bytes(a.wire);
}
std::size_t deep_bytes(const TimingArtifact& a) {
  return sta::deep_bytes(a.timing) + diags_bytes(a.diags);
}
std::size_t deep_bytes(const PowerArtifact& a) {
  return power::deep_bytes(a.power) + power::deep_bytes(a.area);
}
std::size_t deep_bytes(const SliceEval& e) {
  std::size_t n = deep_vec_bytes(e.groups);
  for (const SliceEval::GroupCost& g : e.groups) n += deep_str_bytes(g.group);
  return n;
}

// --- store wiring ----------------------------------------------------------

namespace {

/// The L2 codec of one tier payload type.
template <typename T>
struct Codec {
  std::string (*encode)(const T&);
  T (*decode)(std::string_view);
};

// Every tier payload's codec, one overload per payload type, found by
// type when a store attaches its blob store: a new tier's payload type
// adds its overload here, and a payload type without one does not
// compile.
Codec<netlist::Module> codec(std::type_identity<netlist::Module>) {
  return {netlist::encode_module, netlist::decode_module};
}
Codec<netlist::FlatNetlist> codec(std::type_identity<netlist::FlatNetlist>) {
  return {netlist::encode_flat_netlist, netlist::decode_flat_netlist};
}
Codec<power::GroupActivityArtifact> codec(
    std::type_identity<power::GroupActivityArtifact>) {
  return {power::encode_group_activity, power::decode_group_activity};
}
Codec<LintArtifact> codec(std::type_identity<LintArtifact>) {
  return {encode_lint_artifact, decode_lint_artifact};
}
Codec<PlacedArtifact> codec(std::type_identity<PlacedArtifact>) {
  return {encode_placed_artifact, decode_placed_artifact};
}
Codec<RouteArtifact> codec(std::type_identity<RouteArtifact>) {
  return {encode_route_artifact, decode_route_artifact};
}
Codec<TimingArtifact> codec(std::type_identity<TimingArtifact>) {
  return {encode_timing_artifact, decode_timing_artifact};
}
Codec<PowerArtifact> codec(std::type_identity<PowerArtifact>) {
  return {encode_power_artifact, decode_power_artifact};
}
Codec<power::ActivityModel> codec(std::type_identity<power::ActivityModel>) {
  return {power::encode_activity_model, power::decode_activity_model};
}
Codec<SliceEval> codec(std::type_identity<SliceEval>) {
  return {encode_slice_eval, decode_slice_eval};
}

template <typename Tier>
using Payload = typename std::remove_cvref_t<Tier>::value_type;

}  // namespace

void install_deep_bytes(ArtifactStore& store) {
  store.for_each_tier([](auto& tier) {
    using T = Payload<decltype(tier)>;
    tier.set_deep_bytes([](const T& v) { return deep_bytes(v); });
  });
}

void attach_blob_store(ArtifactStore& store, BlobStore* l2) {
  store.for_each_tier([l2](auto& tier) {
    using T = Payload<decltype(tier)>;
    if (l2 == nullptr) {
      tier.detach_l2();
      return;
    }
    const Codec<T> c = codec(std::type_identity<T>{});
    // A malformed payload decodes to nullptr: the L2 entry is then a
    // miss and the tier recomputes.
    tier.attach_l2(
        l2, c.encode,
        [decode = c.decode](std::string_view payload)
            -> std::shared_ptr<const T> {
          try {
            return std::make_shared<const T>(decode(payload));
          } catch (const BinDecodeError&) {
            return nullptr;
          }
        });
  });
}

}  // namespace syndcim::core
