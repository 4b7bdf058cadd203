#include "netmap/model.hpp"

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

#include "json/json.hpp"
#include "obs/obs.hpp"

namespace syndcim::netmap {

namespace {

using json::JsonValue;

/// Integral member in [lo, hi]; reports NETMAP-BADSHAPE and returns
/// nullopt-like failure via the bool.
bool read_long(const JsonValue& layer, const char* key, long lo, long hi,
               const std::string& lname, const std::string& source,
               core::DiagEngine& diag, long* out) {
  const JsonValue* v = layer.find(key);
  if (v == nullptr || !v->is_number()) {
    diag.error("NETMAP-BADSHAPE",
               std::string("layer wants a numeric '") + key + "'", lname,
               source);
    return false;
  }
  const double d = v->as_number();
  if (d != std::floor(d) || d < static_cast<double>(lo) ||
      d > static_cast<double>(hi)) {
    diag.error("NETMAP-BADSHAPE",
               std::string("'") + key + "' must be an integer in [" +
                   std::to_string(lo) + ", " + std::to_string(hi) + "], got " +
                   json::json_number(d),
               lname, source);
    return false;
  }
  *out = static_cast<long>(d);
  return true;
}

/// Optional precision member; 1..16 bits (NETMAP-BADPRECISION otherwise).
void read_bits(const JsonValue& layer, const char* key,
               const std::string& lname, const std::string& source,
               core::DiagEngine& diag, int* out) {
  const JsonValue* v = layer.find(key);
  if (v == nullptr) return;
  const double d = v->is_number() ? v->as_number() : -1.0;
  if (!v->is_number() || d != std::floor(d) || d < 1.0 || d > 16.0) {
    diag.error("NETMAP-BADPRECISION",
               std::string("'") + key +
                   "' must be an integer bit width in [1, 16]",
               lname, source);
    return;
  }
  *out = static_cast<int>(d);
}

/// Optional density member; (0, 1] (NETMAP-BADDENSITY otherwise).
void read_density(const JsonValue& layer, const char* key,
                  const std::string& lname, const std::string& source,
                  core::DiagEngine& diag, double* out) {
  const JsonValue* v = layer.find(key);
  if (v == nullptr) return;
  const double d = v->as_number(-1.0);
  if (!v->is_number() || !(d > 0.0) || d > 1.0) {
    diag.error("NETMAP-BADDENSITY",
               std::string("'") + key + "' must be a density in (0, 1]",
               lname, source);
    return;
  }
  *out = d;
}

/// Members every kind understands, plus the kind-specific shape keys.
bool known_key(LayerKind kind, const std::string& key) {
  static const std::set<std::string> common = {
      "name",        "kind",          "input_bits",
      "weight_bits", "input_density", "weight_density"};
  if (common.count(key) > 0) return true;
  switch (kind) {
    case LayerKind::kConv:
      return key == "out_pixels" || key == "kernel" || key == "in_channels" ||
             key == "out_channels";
    case LayerKind::kLinear:
      return key == "batch" || key == "in_features" || key == "out_features";
    case LayerKind::kAttention:
      return key == "seq_len" || key == "model_dim" || key == "heads";
  }
  return false;
}

}  // namespace

const char* to_string(LayerKind k) {
  switch (k) {
    case LayerKind::kConv:
      return "conv";
    case LayerKind::kLinear:
      return "linear";
    case LayerKind::kAttention:
      return "attention";
  }
  return "?";
}

long Model::total_macs() const {
  long total = 0;
  for (const Layer& l : layers) total += l.macs();
  return total;
}

Model parse_model(const std::string& json_text, core::DiagEngine& diag,
                  const std::string& source) {
  OBS_SPAN("netmap.ingest");
  Model model;
  JsonValue doc;
  std::string err;
  if (!json::json_parse(json_text, &doc, &err) || !doc.is_object()) {
    diag.error("NETMAP-BADJSON",
               err.empty() ? "model is not a JSON object" : err, "", source);
    return model;
  }

  const JsonValue* format = doc.find("format");
  const JsonValue* version = doc.find("version");
  if (format == nullptr || format->as_string() != "syndcim-model" ||
      version == nullptr || version->as_number() != 1.0) {
    diag.error("NETMAP-BADFORMAT",
               "model wants \"format\": \"syndcim-model\", \"version\": 1",
               "", source);
    return model;
  }
  if (const JsonValue* name = doc.find("name"); name && name->is_string()) {
    model.name = name->as_string();
  }

  const JsonValue* layers = doc.find("layers");
  if (layers == nullptr || !layers->is_array() || layers->size() == 0) {
    diag.error("NETMAP-NOLAYERS", "model wants a non-empty 'layers' array",
               "", source);
    return model;
  }

  std::set<std::string> names;
  for (std::size_t i = 0; i < layers->size(); ++i) {
    const JsonValue& jl = layers->at(i);
    const std::string fallback_name = "layer" + std::to_string(i);
    if (!jl.is_object()) {
      diag.error("NETMAP-BADSHAPE", "layer entry is not a JSON object",
                 fallback_name, source);
      continue;
    }
    Layer layer;
    layer.name = fallback_name;
    if (const JsonValue* n = jl.find("name"); n && n->is_string()) {
      layer.name = n->as_string();
    }
    if (!names.insert(layer.name).second) {
      diag.error("NETMAP-DUPLAYER",
                 "duplicate layer name '" + layer.name + "'", layer.name,
                 source);
      continue;
    }

    const JsonValue* kind = jl.find("kind");
    const std::string kind_s =
        kind != nullptr && kind->is_string() ? kind->as_string() : "";
    if (kind_s == "conv") {
      layer.kind = LayerKind::kConv;
    } else if (kind_s == "linear") {
      layer.kind = LayerKind::kLinear;
    } else if (kind_s == "attention") {
      layer.kind = LayerKind::kAttention;
    } else {
      diag.error("NETMAP-BADKIND",
                 "layer 'kind' must be conv|linear|attention, got '" +
                     kind_s + "'",
                 layer.name, source);
      continue;
    }

    // Kind-specific shape fields, lowered to the GEMM.
    bool shape_ok = true;
    constexpr long kDimMax = 1L << 40;
    if (layer.kind == LayerKind::kConv) {
      long pixels = 0, kernel = 0, cin = 0, cout = 0;
      shape_ok &= read_long(jl, "out_pixels", 1, kDimMax, layer.name, source,
                            diag, &pixels);
      shape_ok &=
          read_long(jl, "kernel", 1, 64, layer.name, source, diag, &kernel);
      shape_ok &= read_long(jl, "in_channels", 1, kDimMax, layer.name, source,
                            diag, &cin);
      shape_ok &= read_long(jl, "out_channels", 1, kDimMax, layer.name,
                            source, diag, &cout);
      if (shape_ok) {
        layer.m = pixels;
        layer.k = kernel * kernel * cin;
        layer.n = cout;
      }
    } else if (layer.kind == LayerKind::kLinear) {
      long batch = 1, in = 0, out = 0;
      if (jl.find("batch") != nullptr) {
        shape_ok &= read_long(jl, "batch", 1, kDimMax, layer.name, source,
                              diag, &batch);
      }
      shape_ok &= read_long(jl, "in_features", 1, kDimMax, layer.name, source,
                            diag, &in);
      shape_ok &= read_long(jl, "out_features", 1, kDimMax, layer.name,
                            source, diag, &out);
      if (shape_ok) {
        layer.m = batch;
        layer.k = in;
        layer.n = out;
      }
    } else {
      long seq = 0, dim = 0, heads = 1;
      shape_ok &= read_long(jl, "seq_len", 1, kDimMax, layer.name, source,
                            diag, &seq);
      shape_ok &= read_long(jl, "model_dim", 1, kDimMax, layer.name, source,
                            diag, &dim);
      if (jl.find("heads") != nullptr) {
        shape_ok &= read_long(jl, "heads", 1, 4096, layer.name, source, diag,
                              &heads);
        if (shape_ok && dim % heads != 0) {
          diag.error("NETMAP-BADSHAPE",
                     "'model_dim' must be divisible by 'heads'", layer.name,
                     source);
          shape_ok = false;
        }
      }
      if (shape_ok) {
        layer.m = seq;
        layer.k = dim;
        layer.n = 3 * dim;  // fused Q/K/V projection
      }
    }
    if (!shape_ok) continue;

    read_bits(jl, "input_bits", layer.name, source, diag, &layer.input_bits);
    read_bits(jl, "weight_bits", layer.name, source, diag,
              &layer.weight_bits);
    read_density(jl, "input_density", layer.name, source, diag,
                 &layer.input_density);
    read_density(jl, "weight_density", layer.name, source, diag,
                 &layer.weight_density);

    for (const auto& [key, value] : jl.members()) {
      (void)value;
      if (!known_key(layer.kind, key)) {
        diag.warning("NETMAP-UNKNOWNKEY",
                     "unknown layer member '" + key + "' ignored", layer.name,
                     source);
      }
    }
    model.layers.push_back(std::move(layer));
  }

  for (const auto& [key, value] : doc.members()) {
    (void)value;
    if (key != "format" && key != "version" && key != "name" &&
        key != "layers") {
      diag.warning("NETMAP-UNKNOWNKEY",
                   "unknown model member '" + key + "' ignored", "", source);
    }
  }
  if (model.layers.empty() && !diag.has_errors()) {
    diag.error("NETMAP-NOLAYERS", "model parsed to zero usable layers", "",
               source);
  }
  return model;
}

Model parse_model_file(const std::string& path, core::DiagEngine& diag) {
  std::ifstream f(path);
  if (!f) {
    diag.error("NETMAP-BADJSON", "cannot open model file", path, path);
    return {};
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  return parse_model(ss.str(), diag, path);
}

}  // namespace syndcim::netmap
