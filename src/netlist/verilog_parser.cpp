#include "netlist/verilog_parser.hpp"

#include <cctype>
#include <map>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"

namespace syndcim::netlist {

namespace {

struct Token {
  std::string text;
  int line = 0;
  [[nodiscard]] bool is(const char* s) const { return text == s; }
};

class Lexer {
 public:
  explicit Lexer(std::istream& is) {
    std::string src((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
    int line = 1;
    std::size_t i = 0;
    while (i < src.size()) {
      const char c = src[i];
      if (c == '\n') {
        ++line;
        ++i;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
        while (i < src.size() && src[i] != '\n') ++i;
        continue;
      }
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '\'') {
        std::size_t j = i;
        while (j < src.size() &&
               (std::isalnum(static_cast<unsigned char>(src[j])) ||
                src[j] == '_' || src[j] == '\'')) {
          ++j;
        }
        tokens_.push_back({src.substr(i, j - i), line});
        i = j;
        continue;
      }
      tokens_.push_back({std::string(1, c), line});
      ++i;
    }
  }

  [[nodiscard]] bool done() const { return pos_ >= tokens_.size(); }
  [[nodiscard]] const Token& peek() const {
    if (done()) throw std::invalid_argument("verilog: unexpected EOF");
    return tokens_[pos_];
  }
  Token next() {
    const Token t = peek();
    ++pos_;
    return t;
  }
  Token expect(const char* s) {
    const Token t = next();
    if (!t.is(s)) {
      throw std::invalid_argument("verilog line " + std::to_string(t.line) +
                                  ": expected '" + s + "', got '" + t.text +
                                  "'");
    }
    return t;
  }

 private:
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

struct RawInstance {
  std::string master;
  std::string name;
  std::vector<std::pair<std::string, std::string>> conns;  // pin -> net
  int line = 0;
};

struct RawModule {
  std::string name;
  std::vector<std::pair<std::string, PortDir>> ports;
  std::vector<std::string> wires;
  std::vector<std::pair<std::string, bool>> ties;  // net -> value
  std::vector<RawInstance> instances;
};

RawModule parse_module(Lexer& lex, core::DiagEngine* diag) {
  RawModule m;
  m.name = lex.next().text;
  lex.expect("(");
  if (!lex.peek().is(")")) {
    while (true) {
      lex.next();  // port order list; directions come from declarations
      if (lex.peek().is(",")) {
        lex.next();
        continue;
      }
      break;
    }
  }
  lex.expect(")");
  lex.expect(";");
  while (!lex.peek().is("endmodule")) {
    const Token t = lex.next();
    if (t.is("input") || t.is("output")) {
      const PortDir dir = t.is("input") ? PortDir::kIn : PortDir::kOut;
      m.ports.emplace_back(lex.next().text, dir);
      lex.expect(";");
    } else if (t.is("wire")) {
      m.wires.push_back(lex.next().text);
      lex.expect(";");
    } else if (t.is("assign")) {
      const std::string net = lex.next().text;
      lex.expect("=");
      const std::string val = lex.next().text;
      lex.expect(";");
      if (val == "1'b0") {
        m.ties.emplace_back(net, false);
      } else if (val == "1'b1") {
        m.ties.emplace_back(net, true);
      } else if (diag) {
        diag->error("VLOG-BADASSIGN",
                    "only constant assigns (1'b0/1'b1) are supported, got "
                    "'" + val + "'",
                    net, "verilog", t.line);
      } else {
        throw std::invalid_argument("verilog line " +
                                    std::to_string(t.line) +
                                    ": only constant assigns supported");
      }
    } else {
      RawInstance inst;
      inst.master = t.text;
      inst.line = t.line;
      inst.name = lex.next().text;
      lex.expect("(");
      while (!lex.peek().is(")")) {
        lex.expect(".");
        const std::string pin = lex.next().text;
        lex.expect("(");
        inst.conns.emplace_back(pin, lex.next().text);
        lex.expect(")");
        if (lex.peek().is(",")) lex.next();
      }
      lex.expect(")");
      lex.expect(";");
      m.instances.push_back(std::move(inst));
    }
  }
  lex.expect("endmodule");
  return m;
}

}  // namespace

Design parse_verilog(std::istream& is, core::DiagEngine* diag) {
  OBS_SPAN("vlog.parse");
  Lexer lex(is);
  std::vector<RawModule> raw;
  try {
    while (!lex.done()) {
      lex.expect("module");
      raw.push_back(parse_module(lex, diag));
    }
  } catch (const std::invalid_argument& e) {
    // Structural damage (truncation, token mismatch): without a
    // DiagEngine keep the legacy throw; with one, record the finding and
    // build a Design from the modules that parsed cleanly.
    if (!diag) throw;
    diag->error("VLOG-SYNTAX", e.what(), "", "verilog");
  }
  std::map<std::string, const RawModule*> by_name;
  for (const RawModule& m : raw) by_name.emplace(m.name, &m);

  Design d;
  for (const RawModule& rm : raw) {
    if (d.has_module(rm.name)) {
      if (!diag) {
        throw std::invalid_argument("verilog: duplicate module " + rm.name);
      }
      diag->error("VLOG-DUPMODULE", "duplicate module definition", rm.name,
                  "verilog");
      continue;
    }
    Module m(rm.name);
    std::map<std::string, NetId> nets;
    auto net_of = [&](const std::string& name) {
      const auto it = nets.find(name);
      if (it != nets.end()) return it->second;
      const NetId id = m.add_net(name);
      nets.emplace(name, id);
      return id;
    };
    for (const auto& [name, dir] : rm.ports) {
      nets.emplace(name, m.add_port(name, dir));
    }
    for (const std::string& w : rm.wires) (void)net_of(w);
    // Ties: re-route users of tied nets onto the module's shared
    // constant nets (the writer emitted one assign per tied net).
    std::map<std::string, NetId> tie_map;
    for (const auto& [name, val] : rm.ties) {
      tie_map[name] = val ? m.const1() : m.const0();
    }
    for (const RawInstance& ri : rm.instances) {
      std::vector<Conn> conns;
      conns.reserve(ri.conns.size());
      for (const auto& [pin, net] : ri.conns) {
        const auto tied = tie_map.find(net);
        conns.push_back(
            {pin, tied != tie_map.end() ? tied->second : net_of(net)});
      }
      if (by_name.contains(ri.master)) {
        m.add_submodule(ri.name, ri.master, std::move(conns));
      } else {
        m.add_cell(ri.name, ri.master, std::move(conns));
      }
    }
    d.add_module(std::move(m));
  }
  return d;
}

}  // namespace syndcim::netlist
