#pragma once
// The repository's one JSON module: a value type with a recursive-descent
// parser (untrusted request lines, model and frontier documents), plus
// the string escaper and number formatter every hand-rolled report
// writer uses, so all emitted JSON shares one escaping and one number
// format. A leaf: it depends on nothing else in src/.
//
// Scope: full JSON data model (null/bool/number/string/array/object),
// UTF-8 passthrough with \uXXXX escapes decoded, objects kept as ordered
// key/value vectors (duplicate keys: first wins on lookup). Numbers are
// doubles — protocol fields are ids, counters and milliseconds, all well
// inside the 2^53 exact-integer range.
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace syndcim::json {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  static JsonValue null() { return JsonValue(); }
  static JsonValue boolean(bool b) {
    JsonValue v;
    v.kind_ = Kind::kBool;
    v.bool_ = b;
    return v;
  }
  static JsonValue number(double d) {
    JsonValue v;
    v.kind_ = Kind::kNumber;
    v.num_ = d;
    return v;
  }
  static JsonValue string(std::string s) {
    JsonValue v;
    v.kind_ = Kind::kString;
    v.str_ = std::move(s);
    return v;
  }
  static JsonValue array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static JsonValue object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  [[nodiscard]] bool as_bool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  [[nodiscard]] double as_number(double fallback = 0.0) const {
    return is_number() ? num_ : fallback;
  }
  [[nodiscard]] const std::string& as_string() const { return str_; }
  /// String value, or the number rendered as shortest round-trip decimal
  /// — the protocol accepts `"rows": 64` and `"rows": "64"` alike.
  [[nodiscard]] std::string as_kv_string() const;

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] const JsonValue& at(std::size_t i) const {
    return items_[i].second;
  }
  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>&
  members() const {
    return items_;
  }

  void push_back(JsonValue v) { items_.emplace_back(std::string(), std::move(v)); }
  void set(std::string key, JsonValue v) {
    items_.emplace_back(std::move(key), std::move(v));
  }

  /// Compact single-line serialization (protocol lines must not contain
  /// raw newlines; the escaper handles those).
  [[nodiscard]] std::string dump() const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  /// Array elements (empty keys) or object members, in insertion order.
  std::vector<std::pair<std::string, JsonValue>> items_;
};

/// Parses one JSON document; whitespace-padded trailing garbage is an
/// error. On failure returns nullopt-semantics via `ok=false` and a
/// human-readable message in `err` (position included).
[[nodiscard]] bool json_parse(std::string_view text, JsonValue* out,
                              std::string* err);

/// JSON string-literal escaping of `s` (no surrounding quotes): quote,
/// backslash and control characters become escapes (`\b \t \n \f \r`
/// by name, the rest as `\u00XX`), everything else is passed through
/// byte-for-byte (UTF-8 stays UTF-8). Escape/parse round-trips bytes
/// exactly — what the protocol relies on to carry nested reports
/// (frontier JSON, diagnostics) byte-identically.
[[nodiscard]] std::string json_escape(std::string_view s);

/// `%.17g` rendering of a double: round-trips exactly, and integers below
/// 1e17 print without exponent or decimal point.
[[nodiscard]] std::string json_number(double v);

}  // namespace syndcim::json
