#include "json/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace syndcim::json {

namespace {

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string err;

  [[nodiscard]] bool at_end() const { return pos >= text.size(); }
  [[nodiscard]] char peek() const { return text[pos]; }

  void skip_ws() {
    while (!at_end() && (text[pos] == ' ' || text[pos] == '\t' ||
                         text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }

  bool fail(const std::string& what) {
    if (err.empty()) {
      err = what + " at offset " + std::to_string(pos);
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) {
      return fail("invalid literal");
    }
    pos += word.size();
    return true;
  }

  bool parse_hex4(std::uint32_t* out) {
    if (pos + 4 > text.size()) return fail("truncated \\u escape");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text[pos + static_cast<std::size_t>(i)];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return fail("bad \\u escape digit");
      }
    }
    pos += 4;
    *out = v;
    return true;
  }

  static void append_utf8(std::string* s, std::uint32_t cp) {
    if (cp < 0x80) {
      s->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      s->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      s->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      s->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      s->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      s->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      s->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      s->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool parse_string(std::string* out) {
    if (at_end() || peek() != '"') return fail("expected string");
    ++pos;
    out->clear();
    while (true) {
      if (at_end()) return fail("unterminated string");
      const char c = text[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (at_end()) return fail("unterminated escape");
        const char e = text[pos++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            std::uint32_t cp = 0;
            if (!parse_hex4(&cp)) return false;
            // Surrogate pair: a high surrogate must be followed by
            // \uDC00..\uDFFF; combine into one code point.
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              if (pos + 1 >= text.size() || text[pos] != '\\' ||
                  text[pos + 1] != 'u') {
                return fail("unpaired surrogate");
              }
              pos += 2;
              std::uint32_t lo = 0;
              if (!parse_hex4(&lo)) return false;
              if (lo < 0xDC00 || lo > 0xDFFF) {
                return fail("bad low surrogate");
              }
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
              return fail("unpaired surrogate");
            }
            append_utf8(out, cp);
            break;
          }
          default: return fail("unknown escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      } else {
        out->push_back(c);
      }
    }
  }

  bool parse_number(double* out) {
    const std::size_t start = pos;
    if (!at_end() && peek() == '-') ++pos;
    while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
      ++pos;
    }
    if (!at_end() && peek() == '.') {
      ++pos;
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos;
      }
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      ++pos;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos;
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos;
      }
    }
    if (pos == start) return fail("expected number");
    const std::string tok(text.substr(start, pos - start));
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(v)) {
      return fail("malformed number");
    }
    *out = v;
    return true;
  }

  bool parse_value(JsonValue* out, int depth) {
    if (depth > 64) return fail("nesting too deep");
    skip_ws();
    if (at_end()) return fail("unexpected end of input");
    const char c = peek();
    if (c == 'n') {
      if (!literal("null")) return false;
      *out = JsonValue::null();
      return true;
    }
    if (c == 't') {
      if (!literal("true")) return false;
      *out = JsonValue::boolean(true);
      return true;
    }
    if (c == 'f') {
      if (!literal("false")) return false;
      *out = JsonValue::boolean(false);
      return true;
    }
    if (c == '"') {
      std::string s;
      if (!parse_string(&s)) return false;
      *out = JsonValue::string(std::move(s));
      return true;
    }
    if (c == '[') {
      ++pos;
      JsonValue arr = JsonValue::array();
      skip_ws();
      if (!at_end() && peek() == ']') {
        ++pos;
        *out = std::move(arr);
        return true;
      }
      while (true) {
        JsonValue item;
        if (!parse_value(&item, depth + 1)) return false;
        arr.push_back(std::move(item));
        skip_ws();
        if (at_end()) return fail("unterminated array");
        if (peek() == ',') {
          ++pos;
          continue;
        }
        if (peek() == ']') {
          ++pos;
          *out = std::move(arr);
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (c == '{') {
      ++pos;
      JsonValue obj = JsonValue::object();
      skip_ws();
      if (!at_end() && peek() == '}') {
        ++pos;
        *out = std::move(obj);
        return true;
      }
      while (true) {
        skip_ws();
        std::string key;
        if (!parse_string(&key)) return false;
        skip_ws();
        if (at_end() || peek() != ':') return fail("expected ':'");
        ++pos;
        JsonValue val;
        if (!parse_value(&val, depth + 1)) return false;
        obj.set(std::move(key), std::move(val));
        skip_ws();
        if (at_end()) return fail("unterminated object");
        if (peek() == ',') {
          ++pos;
          continue;
        }
        if (peek() == '}') {
          ++pos;
          *out = std::move(obj);
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    double d = 0.0;
    if (!parse_number(&d)) return false;
    *out = JsonValue::number(d);
    return true;
  }
};

void dump_value(const JsonValue& v, std::ostringstream& os) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull: os << "null"; break;
    case JsonValue::Kind::kBool: os << (v.as_bool() ? "true" : "false"); break;
    case JsonValue::Kind::kNumber: os << json_number(v.as_number()); break;
    case JsonValue::Kind::kString:
      os << '"' << json_escape(v.as_string()) << '"';
      break;
    case JsonValue::Kind::kArray: {
      os << '[';
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (i) os << ", ";
        dump_value(v.at(i), os);
      }
      os << ']';
      break;
    }
    case JsonValue::Kind::kObject: {
      os << '{';
      bool first = true;
      for (const auto& [k, m] : v.members()) {
        if (!first) os << ", ";
        first = false;
        os << '"' << json_escape(k) << "\": ";
        dump_value(m, os);
      }
      os << '}';
      break;
    }
  }
}

}  // namespace

std::string JsonValue::as_kv_string() const {
  if (is_string()) return str_;
  if (is_number()) return json_number(num_);
  if (is_bool()) return bool_ ? "true" : "false";
  return std::string();
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : items_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string JsonValue::dump() const {
  std::ostringstream os;
  dump_value(*this, os);
  return os.str();
}

bool json_parse(std::string_view text, JsonValue* out, std::string* err) {
  Parser p;
  p.text = text;
  JsonValue v;
  bool ok = p.parse_value(&v, 0);
  if (ok) {
    p.skip_ws();
    if (!p.at_end()) {
      ok = false;
      p.err = "trailing garbage at offset " + std::to_string(p.pos);
    }
  }
  if (!ok) {
    if (err != nullptr) *err = p.err.empty() ? "parse error" : p.err;
    return false;
  }
  *out = std::move(v);
  return true;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace syndcim::json
