#pragma once
#include <cstddef>
#include <string>
#include <string_view>

#include "netlist/flatten.hpp"
#include "netlist/module.hpp"

namespace syndcim::netlist {

// Stable binary codecs for the netlist artifact tiers (modules, flats)
// of the on-disk artifact store. Layout is fixed little-endian
// (core/binio.hpp) with a leading per-type version byte; a round trip is
// bit-exact, so a decoded artifact is indistinguishable from the computed
// one — the warm-path byte-identity guarantee. Decoders throw
// core::BinDecodeError on truncated/foreign payloads.

[[nodiscard]] std::string encode_module(const Module& m);
[[nodiscard]] Module decode_module(std::string_view payload);

[[nodiscard]] std::string encode_flat_netlist(const FlatNetlist& nl);
[[nodiscard]] FlatNetlist decode_flat_netlist(std::string_view payload);

// Deep heap footprint of each payload (the ArtifactTierStats deep-bytes
// hooks — what --cache-cap-bytes actually bounds).
[[nodiscard]] std::size_t deep_bytes(const Module& m);
[[nodiscard]] std::size_t deep_bytes(const FlatNetlist& nl);

}  // namespace syndcim::netlist
