// Command-line client for a running `syndcim serve` daemon: sends one or
// many requests over the syndcim-serve v1 NDJSON protocol and prints the
// response line(s) to stdout.
//
//   syndcim_client --port N [--host H] <method> [key=value ...]
//                  [--deadline-ms N] [--netlist FILE]
//                  [--param-file KEY FILE] [--extract KEY FILE]
//                  [--concurrent K] [--batch FILE] [--out FILE]
//
//   method              compile | sweep | netmap | lint | metrics |
//                       status | shutdown
//   key=value           request params (spec keys, sweep_* grid keys,
//                       budget_macros, ...)
//   --deadline-ms N     per-request deadline (server answers 408 past it)
//   --param-file KEY FILE  ship FILE's contents as the string param KEY
//                       (how model/frontier/netlist documents travel,
//                       e.g. --param-file model examples/models/kws.json)
//   --netlist FILE      sugar for --param-file netlist FILE
//   --extract KEY FILE  write the first result's string field KEY to FILE
//                       byte-for-byte (e.g. a netmap's report_json —
//                       identical to the batch CLI's --json output)
//   --concurrent K      pipeline K copies of the request on ONE
//                       connection (the daemon computes each artifact
//                       they share once); prints K lines
//   --batch FILE        pipeline one request per line of FILE on ONE
//                       connection; a line is `method key=value ...`
//                       where `key@=FILE` loads the value from FILE
//                       (`#` starts a comment). Responses print in line
//                       order however they arrive — the daemon's workers
//                       finish out of order and the client matches on
//                       the protocol's `id` field.
//   --out FILE          also write the response line(s) to FILE
//
// Exit status: 0 every response ok, 1 any error response (code printed),
// 2 usage / transport failure.
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/spec.hpp"
#include "json/json.hpp"
#include "serve/client.hpp"

using namespace syndcim;

namespace {

void usage(std::ostream& os) {
  os << "usage: syndcim_client --port N [--host H] <method> [key=value ...]\n"
        "               [--deadline-ms N] [--netlist FILE]\n"
        "               [--param-file KEY FILE] [--extract KEY FILE]\n"
        "               [--concurrent K] [--batch FILE] [--out FILE]\n"
        "  methods: compile sweep netmap lint metrics status shutdown\n"
        "  --batch lines: method key=value ... (key@=FILE loads a file)\n"
        "  exit status: 0 ok, 1 error response, 2 usage/transport\n";
}

struct Options {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string method;
  std::map<std::string, std::string> params;
  double deadline_ms = 0;
  std::string extract_key, extract_path;
  int concurrent = 1;
  std::string batch_path;
  std::string out_path;
};

/// One request to pipeline: a method and its (already file-expanded)
/// string params.
struct BatchItem {
  std::string method;
  std::map<std::string, std::string> params;
};

bool slurp(const std::string& path, std::string* out, std::string* err) {
  std::ifstream f(path);
  if (!f) {
    *err = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  *out = ss.str();
  return true;
}

bool parse_args(int argc, char** argv, Options* opt, std::string* err) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        *err = std::string(flag) + " wants a value";
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--help" || a == "-h") {
      usage(std::cout);
      std::exit(0);
    } else if (a == "--port") {
      const char* v = next("--port");
      if (v == nullptr) return false;
      opt->port = core::parse_int(a, v);
    } else if (a == "--host") {
      const char* v = next("--host");
      if (v == nullptr) return false;
      opt->host = v;
    } else if (a == "--deadline-ms") {
      const char* v = next("--deadline-ms");
      if (v == nullptr) return false;
      opt->deadline_ms = core::parse_number(a, v);
    } else if (a == "--netlist" || a == "--param-file") {
      std::string key = "netlist";
      if (a == "--param-file") {
        const char* k = next("--param-file");
        if (k == nullptr) return false;
        key = k;
      }
      const char* p = next(a.c_str());
      if (p == nullptr) return false;
      std::string text;
      if (!slurp(p, &text, err)) return false;
      opt->params[key] = std::move(text);
    } else if (a == "--extract") {
      const char* k = next("--extract");
      if (k == nullptr) return false;
      const char* p = next("--extract");
      if (p == nullptr) return false;
      opt->extract_key = k;
      opt->extract_path = p;
    } else if (a == "--concurrent") {
      const char* v = next("--concurrent");
      if (v == nullptr) return false;
      opt->concurrent = core::parse_int(a, v);
    } else if (a == "--batch") {
      const char* v = next("--batch");
      if (v == nullptr) return false;
      opt->batch_path = v;
    } else if (a == "--out") {
      const char* v = next("--out");
      if (v == nullptr) return false;
      opt->out_path = v;
    } else if (a.find('=') != std::string::npos && a[0] != '-') {
      const auto eq = a.find('=');
      opt->params[a.substr(0, eq)] = a.substr(eq + 1);
    } else if (!a.empty() && a[0] != '-' && opt->method.empty()) {
      opt->method = a;
    } else {
      *err = "unknown argument: " + a;
      return false;
    }
  }
  if (opt->method.empty() && opt->batch_path.empty()) {
    *err = "missing method";
    return false;
  }
  if (opt->port <= 0) {
    *err = "missing --port";
    return false;
  }
  if (opt->concurrent < 1) {
    *err = "--concurrent wants a positive integer";
    return false;
  }
  return true;
}

/// Parses a --batch file: one request per non-empty, non-comment line,
/// `method key=value ...`; a `key@=FILE` pair loads the value from FILE
/// relative to the working directory.
bool parse_batch_file(const std::string& path, std::vector<BatchItem>* items,
                      std::string* err) {
  std::ifstream f(path);
  if (!f) {
    *err = "cannot open " + path;
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(f, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    BatchItem item;
    std::string tok;
    while (ls >> tok) {
      const auto at_eq = tok.find("@=");
      const auto eq = tok.find('=');
      if (item.method.empty()) {
        if (eq != std::string::npos) {
          *err = path + ":" + std::to_string(lineno) +
                 ": line must start with a method name";
          return false;
        }
        item.method = tok;
      } else if (at_eq != std::string::npos) {
        std::string text;
        if (!slurp(tok.substr(at_eq + 2), &text, err)) {
          *err = path + ":" + std::to_string(lineno) + ": " + *err;
          return false;
        }
        item.params[tok.substr(0, at_eq)] = std::move(text);
      } else if (eq != std::string::npos) {
        item.params[tok.substr(0, eq)] = tok.substr(eq + 1);
      } else {
        *err = path + ":" + std::to_string(lineno) + ": '" + tok +
               "' is neither key=value nor key@=FILE";
        return false;
      }
    }
    if (!item.method.empty()) items->push_back(std::move(item));
  }
  if (items->empty()) {
    *err = path + ": no requests";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string err;
  bool parsed = false;
  try {
    parsed = parse_args(argc, argv, &opt, &err);
  } catch (const std::invalid_argument& e) {  // a malformed number
    err = e.what();
  }
  if (!parsed) {
    std::cerr << "error: " << err << "\n";
    usage(std::cerr);
    return 2;
  }

  // The request list: a batch file, or `--concurrent` copies of the one
  // request named on the command line (default 1).
  std::vector<BatchItem> items;
  if (!opt.batch_path.empty()) {
    if (!parse_batch_file(opt.batch_path, &items, &err)) {
      std::cerr << "error: " << err << "\n";
      return 2;
    }
  } else {
    for (int i = 0; i < opt.concurrent; ++i) {
      items.push_back({opt.method, opt.params});
    }
  }

  // Everything rides ONE connection: requests pipeline back-to-back and
  // the daemon's workers answer in completion order; the client files
  // responses by the echoed `id` and reports them in request order.
  serve::MultiplexClient client;
  if (!client.connect(opt.host, opt.port, &err)) {
    std::cerr << "error: " << err << "\n";
    return 2;
  }
  std::vector<std::string> ids;
  ids.reserve(items.size());
  for (const BatchItem& item : items) {
    const std::string id =
        client.send(item.method, item.params, "", "", opt.deadline_ms, &err);
    if (id.empty()) {
      std::cerr << "error: " << err << "\n";
      return 2;
    }
    ids.push_back(id);
  }
  if (items.size() > 1) {
    std::cerr << items.size()
              << " requests pipelined on one connection; responses matched "
                 "by id\n";
  }

  std::ofstream out;
  if (!opt.out_path.empty()) {
    out.open(opt.out_path);
    if (!out) {
      std::cerr << "error: cannot write " << opt.out_path << "\n";
      return 2;
    }
  }

  int rc = 0;
  std::vector<serve::ClientResponse> resps(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!client.wait(ids[i], &resps[i], &err)) {
      std::cerr << "error: " << err << "\n";
      return 2;
    }
    const serve::ClientResponse& r = resps[i];
    std::cout << r.raw << "\n";
    if (out.is_open()) out << r.raw << "\n";
    if (!r.ok) {
      std::cerr << "error response: code " << r.code << " (" << r.reason
                << ")\n";
      if (rc == 0) rc = 1;
    }
  }

  if (rc == 0 && !opt.extract_key.empty()) {
    const json::JsonValue* field = resps[0].result.find(opt.extract_key);
    if (field == nullptr || !field->is_string()) {
      std::cerr << "error: result has no string field '" << opt.extract_key
                << "'\n";
      return 2;
    }
    std::ofstream ef(opt.extract_path, std::ios::binary);
    if (!ef) {
      std::cerr << "error: cannot write " << opt.extract_path << "\n";
      return 2;
    }
    ef << field->as_string();
    std::cerr << "wrote " << opt.extract_path << "\n";
  }
  return rc;
}
