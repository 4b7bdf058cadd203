#pragma once
#include <cstdint>
#include <string>

#include "core/spec.hpp"
#include "rtlgen/arch.hpp"

// The canonical evaluation keys of the DSE layer: what makes two
// (configuration, spec) evaluations the same one. The global frontier
// merge deduplicates on them and FrontierPoint::point_id hashes them.

namespace syndcim::dse {

/// Canonical serialization of every `MacroConfig` field. Two configs get
/// the same string iff they are architecturally identical (doubles are
/// rendered as hexfloat, so no two distinct values collide by rounding).
[[nodiscard]] std::string canonical_config_key(
    const rtlgen::MacroConfig& cfg);

/// Canonical serialization of the `PerfSpec` fields that influence the
/// evaluation outcome: the timing knobs (frequencies, voltage, margin).
/// PPA *preference* weights are deliberately excluded — they only affect
/// final selection, so specs differing in preference alone are one
/// evaluation.
[[nodiscard]] std::string canonical_spec_knobs_key(const core::PerfSpec& s);

/// 64-bit FNV-1a over a string. Its basis is not the standard one (see
/// eval_cache.cpp); frontier point ids, serve's netmap keys and committed
/// digests depend on the exact output.
[[nodiscard]] std::uint64_t fnv1a64(const std::string& s);
[[nodiscard]] std::uint64_t hash_config(const rtlgen::MacroConfig& cfg);
[[nodiscard]] std::uint64_t hash_spec_knobs(const core::PerfSpec& s);

}  // namespace syndcim::dse
