#pragma once
#include <cstddef>
#include <string>
#include <string_view>

#include "core/diag.hpp"
#include "core/stage.hpp"

namespace syndcim::core {

class BlobStore;

// Codecs for the composite stage artifacts (lints, placed, routes,
// timings, powers), the slice characterizations and the Diagnostic
// records the stage artifacts replay, plus the
// wiring that turns an ArtifactStore into a two-level cache over a
// BlobStore. Per-payload codecs live in their own layers
// (netlist/sta/layout/power/lint serialize.hpp); this file only composes
// them, keeping the layer boundaries the in-memory store already has.

[[nodiscard]] std::string encode_lint_artifact(const LintArtifact& a);
[[nodiscard]] LintArtifact decode_lint_artifact(std::string_view payload);

[[nodiscard]] std::string encode_placed_artifact(const PlacedArtifact& a);
[[nodiscard]] PlacedArtifact decode_placed_artifact(std::string_view payload);

[[nodiscard]] std::string encode_route_artifact(const RouteArtifact& a);
[[nodiscard]] RouteArtifact decode_route_artifact(std::string_view payload);

[[nodiscard]] std::string encode_timing_artifact(const TimingArtifact& a);
[[nodiscard]] TimingArtifact decode_timing_artifact(std::string_view payload);

[[nodiscard]] std::string encode_power_artifact(const PowerArtifact& a);
[[nodiscard]] PowerArtifact decode_power_artifact(std::string_view payload);

[[nodiscard]] std::string encode_slice_eval(const SliceEval& e);
[[nodiscard]] SliceEval decode_slice_eval(std::string_view payload);

[[nodiscard]] std::size_t deep_bytes(const LintArtifact& a);
[[nodiscard]] std::size_t deep_bytes(const PlacedArtifact& a);
[[nodiscard]] std::size_t deep_bytes(const RouteArtifact& a);
[[nodiscard]] std::size_t deep_bytes(const TimingArtifact& a);
[[nodiscard]] std::size_t deep_bytes(const PowerArtifact& a);
[[nodiscard]] std::size_t deep_bytes(const SliceEval& e);

/// Installs the deep-payload-bytes hooks on every tier, making
/// ArtifactTierStats::bytes (and the --cache-cap-bytes bound) reflect
/// real heap memory. ArtifactStore's constructor calls this; it is
/// idempotent.
void install_deep_bytes(ArtifactStore& store);

/// Attaches `l2` as the durable layer under every tier, wiring each
/// tier's encode/decode codec. nullptr detaches. `l2` must outlive the
/// store or a later detach.
void attach_blob_store(ArtifactStore& store, BlobStore* l2);

}  // namespace syndcim::core
