// Tests of the src/serve subsystem: the wire-protocol JSON, cooperative
// cancellation, bounded LRU artifact caching, and a live in-process
// daemon driven over real TCP connections — mixed-tenant load,
// cross-request artifact warm hits, concurrent identical requests
// sharing work through the tier claims, deadline cancellation,
// admission-control rejects, graceful drain, request-line framing, and
// byte-identity of a served sweep frontier against the batch path.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cell/characterize.hpp"
#include "core/artifact_cache.hpp"
#include "core/cancel.hpp"
#include "core/diag.hpp"
#include "dse/sweep.hpp"
#include "json/json.hpp"
#include "lint/lint.hpp"
#include "netlist/verilog_parser.hpp"
#include "netmap/model.hpp"
#include "netmap/netmap.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "tech/tech_node.hpp"

using namespace syndcim;

namespace {

const cell::Library& test_library() {
  static const cell::Library lib =
      cell::characterize_default_library(tech::make_default_40nm());
  return lib;
}

/// Spec keys shared by the serve and batch sides of the identity tests.
std::map<std::string, std::string> small_sweep_params() {
  return {{"rows", "32"},          {"cols", "32"},
          {"input_bits", "4"},     {"weight_bits", "4"},
          {"sweep_mac_mhz", "320"}, {"sweep_mcr", "1"},
          {"sweep_pref", "balanced"}};
}

std::unique_ptr<serve::Server> start_server(serve::ServerOptions opt = {}) {
  auto server = std::make_unique<serve::Server>(test_library(), opt);
  std::string err;
  EXPECT_TRUE(server->start(&err)) << err;
  return server;
}

serve::ClientResponse call(int port, const std::string& method,
                           const std::map<std::string, std::string>& params,
                           double deadline_ms = 0) {
  serve::Client client;
  std::string err;
  EXPECT_TRUE(client.connect("127.0.0.1", port, &err)) << err;
  serve::ClientResponse resp;
  EXPECT_TRUE(client.call(method, params, deadline_ms, &resp, &err)) << err;
  return resp;
}

/// A bare TCP connection, for framing tests the line-oriented Client
/// cannot express (partial writes, packed writes, no newline at all).
class RawConn {
 public:
  explicit RawConn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ok_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0;
  }
  ~RawConn() { ::close(fd_); }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  [[nodiscard]] bool ok() const { return ok_; }

  bool send_all(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Next response line; empty on EOF or when nothing arrives within
  /// `timeout_ms`.
  std::string read_line(int timeout_ms = 30000) {
    while (true) {
      const std::size_t nl = in_.find('\n');
      if (nl != std::string::npos) {
        std::string line = in_.substr(0, nl);
        in_.erase(0, nl + 1);
        return line;
      }
      if (!fill(timeout_ms)) return {};
    }
  }

  /// True once the peer has closed (reads EOF within `timeout_ms`).
  bool closed_by_peer(int timeout_ms = 30000) {
    while (fill(timeout_ms)) {
    }
    return eof_;
  }

 private:
  bool fill(int timeout_ms) {
    pollfd pfd = {};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    if (::poll(&pfd, 1, timeout_ms) <= 0) return false;
    char buf[4096];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) {
      eof_ = true;
      return false;
    }
    in_.append(buf, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  bool ok_ = false;
  bool eof_ = false;
  std::string in_;
};

/// Parses one response line; fails the test on malformed JSON.
json::JsonValue parse_response(const std::string& line) {
  json::JsonValue v;
  std::string err;
  EXPECT_TRUE(json::json_parse(line, &v, &err)) << err << ": " << line;
  return v;
}

// ---------------------------------------------------------------------------
// Wire JSON
// ---------------------------------------------------------------------------

TEST(ServeJson, ParsesNestedValues) {
  json::JsonValue v;
  std::string err;
  ASSERT_TRUE(json::json_parse(
      R"({"a": [1, 2.5, -3e2], "b": {"c": "x", "d": true}, "e": null})", &v,
      &err))
      << err;
  ASSERT_TRUE(v.is_object());
  const json::JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->size(), 3u);
  EXPECT_DOUBLE_EQ(a->at(0).as_number(), 1.0);
  EXPECT_DOUBLE_EQ(a->at(1).as_number(), 2.5);
  EXPECT_DOUBLE_EQ(a->at(2).as_number(), -300.0);
  EXPECT_EQ(v.find("b")->find("c")->as_string(), "x");
  EXPECT_TRUE(v.find("b")->find("d")->as_bool());
  EXPECT_TRUE(v.find("e")->is_null());
}

TEST(ServeJson, RejectsMalformedInput) {
  json::JsonValue v;
  std::string err;
  EXPECT_FALSE(json::json_parse("{\"a\": }", &v, &err));
  EXPECT_FALSE(json::json_parse("{\"a\": 1} trailing", &v, &err));
  EXPECT_FALSE(json::json_parse("\"unterminated", &v, &err));
  EXPECT_FALSE(json::json_parse("", &v, &err));
}

TEST(ServeJson, EscapeRoundTripsBytes) {
  // The sweep response relies on escape/parse round-tripping the nested
  // frontier JSON byte-for-byte.
  const std::string original =
      "{\n  \"k\": \"v\\\"q\",\t\"u\": \"\xc3\xa9\"\n}\x01";
  const std::string wrapped =
      "\"" + json::json_escape(original) + "\"";
  json::JsonValue v;
  std::string err;
  ASSERT_TRUE(json::json_parse(wrapped, &v, &err)) << err;
  EXPECT_EQ(v.as_string(), original);
}

TEST(ServeProtocol, ParsesAndRejectsRequests) {
  serve::Request req;
  std::string err;
  ASSERT_TRUE(serve::parse_request(
      R"({"id": 7, "method": "sweep", "deadline_ms": 50,)"
      R"( "params": {"rows": 64, "mcr": "2"}})",
      &req, &err))
      << err;
  EXPECT_EQ(req.id, "7");
  EXPECT_EQ(req.method, "sweep");
  EXPECT_DOUBLE_EQ(req.deadline_ms, 50.0);
  const auto kv = serve::params_to_kv(req.params);
  EXPECT_EQ(kv.at("rows"), "64");
  EXPECT_EQ(kv.at("mcr"), "2");

  EXPECT_FALSE(serve::parse_request("not json", &req, &err));
  EXPECT_FALSE(serve::parse_request("{\"id\": 1}", &req, &err));  // no method
  EXPECT_FALSE(serve::parse_request(
      R"({"method": "x", "deadline_ms": -1})", &req, &err));
  serve::Request nested;
  ASSERT_TRUE(serve::parse_request(
      R"({"method": "x", "params": {"a": [1]}})", &nested, &err))
      << err;
  EXPECT_THROW((void)serve::params_to_kv(nested.params),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// CancelToken
// ---------------------------------------------------------------------------

TEST(CancelToken, FlagAndDeadline) {
  core::CancelToken tok;
  EXPECT_FALSE(tok.cancelled());
  EXPECT_NO_THROW(tok.check("here"));
  tok.cancel();
  EXPECT_TRUE(tok.cancelled());
  EXPECT_THROW(tok.check("here"), core::CancelledError);
  tok.reset();
  EXPECT_FALSE(tok.cancelled());

  tok.set_deadline_after(std::chrono::milliseconds(10));
  EXPECT_FALSE(tok.cancelled());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(tok.cancelled());
  tok.clear_deadline();
  EXPECT_FALSE(tok.cancelled());
}

// ---------------------------------------------------------------------------
// Bounded LRU artifact cache
// ---------------------------------------------------------------------------

/// A get_or_compute compute that yields `v`.
auto compute_value(int v) {
  return [v] { return v; };
}

TEST(ArtifactCacheLru, EvictsLeastRecentlyUsedPastEntryCap) {
  core::ArtifactCache<int> cache("test");
  cache.set_capacity(2);
  cache.get_or_compute("a", compute_value(1));
  cache.get_or_compute("b", compute_value(2));
  // touch: a is now most recent (a hit, so not the 0 a miss would store)
  ASSERT_EQ(*cache.get_or_compute("a", compute_value(0)), 1);
  cache.get_or_compute("c", compute_value(3));  // evicts b, the LRU entry
  EXPECT_FALSE(cache.contains("b"));
  EXPECT_TRUE(cache.contains("a"));
  EXPECT_TRUE(cache.contains("c"));
  const core::ArtifactTierStats st = cache.stats();
  EXPECT_EQ(st.entries, 2u);
  EXPECT_EQ(st.evicted, 1u);
}

TEST(ArtifactCacheLru, ByteCapEvictsButKeepsLiveReferences) {
  core::ArtifactCache<int> cache("test");
  cache.set_capacity(0, 1);  // absurdly small byte budget: one survivor
  const std::shared_ptr<const int> held =
      cache.get_or_compute("a", compute_value(1));
  cache.get_or_compute("b", compute_value(2));
  cache.get_or_compute("c", compute_value(3));
  EXPECT_LE(cache.stats().entries, 1u);
  EXPECT_GE(cache.stats().evicted, 2u);
  // Eviction drops only the cache's reference; live artifacts survive.
  EXPECT_EQ(*held, 1);
}

TEST(ArtifactCacheLru, CapacityAppliesRetroactively) {
  core::ArtifactCache<int> cache("test");
  for (int i = 0; i < 8; ++i) {
    cache.get_or_compute("k" + std::to_string(i), compute_value(i));
  }
  EXPECT_EQ(cache.stats().entries, 8u);
  cache.set_capacity(3);
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().evicted, 5u);
}

// ---------------------------------------------------------------------------
// Live daemon
// ---------------------------------------------------------------------------

TEST(ServeDaemon, StatusAndUnknownMethodAndBadLine) {
  auto server = start_server();
  const serve::ClientResponse status = call(server->port(), "status", {});
  ASSERT_TRUE(status.ok) << status.raw;
  EXPECT_EQ(status.result.find("proto")->as_string(), "syndcim-serve");
  EXPECT_EQ(static_cast<int>(status.result.find("version")->as_number()), 1);
  EXPECT_FALSE(status.result.find("draining")->as_bool(true));

  const serve::ClientResponse unknown =
      call(server->port(), "frobnicate", {});
  EXPECT_FALSE(unknown.ok);
  EXPECT_EQ(unknown.code, serve::kErrNotFound);

  serve::Client raw;
  std::string err;
  ASSERT_TRUE(raw.connect("127.0.0.1", server->port(), &err)) << err;
  serve::ClientResponse bad;
  ASSERT_TRUE(raw.call_raw("this is not json", &bad, &err)) << err;
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.code, serve::kErrBadRequest);
  server->drain();
}

TEST(ServeDaemon, ClosedConnectionsAreReaped) {
  auto server = start_server();
  // Each cycle connects, gets one reply and closes. The acceptor reaps
  // finished readers on every wake-up, its 200 ms poll timeout included,
  // so all 32 go without a further connection arriving.
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(call(server->port(), "status", {}).ok) << "cycle " << i;
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (server->tracked_connections() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server->tracked_connections(), 0u);
  server->drain();
}

TEST(ServeReader, OverlongLineGetsItsOwnErrorAndCloses) {
  auto server = start_server();
  {
    RawConn conn(server->port());
    ASSERT_TRUE(conn.ok());
    // No newline ever: the reader must give up at the cap instead of
    // buffering forever.
    ASSERT_TRUE(conn.send_all(std::string(serve::kMaxRequestLineBytes + 1,
                                          'x')));
    const std::string line = conn.read_line();
    ASSERT_FALSE(line.empty()) << "no reply to an over-long line";
    const json::JsonValue resp = parse_response(line);
    const json::JsonValue* error = resp.find("error");
    ASSERT_NE(error, nullptr) << line;
    EXPECT_EQ(static_cast<int>(error->find("code")->as_number()),
              serve::kErrLineTooLong);
    EXPECT_TRUE(conn.closed_by_peer());
  }
  // Other connections are unaffected.
  EXPECT_TRUE(call(server->port(), "status", {}).ok);
  server->drain();
}

TEST(ServeReader, OneByteWritesStillParse) {
  auto server = start_server();
  RawConn conn(server->port());
  ASSERT_TRUE(conn.ok());
  const std::string line = "{\"id\": \"byte\", \"method\": \"status\"}\n";
  for (const char c : line) {
    ASSERT_TRUE(conn.send_all(std::string(1, c)));
  }
  const json::JsonValue resp = parse_response(conn.read_line());
  EXPECT_EQ(resp.find("id")->as_string(), "byte");
  EXPECT_EQ(resp.find("status")->as_string(), "ok");
  server->drain();
}

TEST(ServeReader, TwoRequestsInOneWriteBothParse) {
  auto server = start_server();
  RawConn conn(server->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.send_all(
      "{\"id\": \"a\", \"method\": \"status\"}\n"
      "{\"id\": \"b\", \"method\": \"status\"}\n"));
  std::vector<std::string> ids;
  for (int i = 0; i < 2; ++i) {
    const json::JsonValue resp = parse_response(conn.read_line());
    EXPECT_EQ(resp.find("status")->as_string(), "ok");
    ids.push_back(resp.find("id")->as_string());
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::string>{"a", "b"}));
  server->drain();
}

TEST(ServeDaemon, LintRequest) {
  auto server = start_server();
  // An ANSI header over library cells: a clean two-gate design.
  const char* kNetlist =
      "module top(input a, input b, output y);\n"
      "  wire n1;\n"
      "  AND2X1 u1(.A(a), .B(b), .Y(n1));\n"
      "  BUFX1 u2(.A(n1), .Y(y));\n"
      "endmodule\n";
  serve::Client client;
  std::string err;
  ASSERT_TRUE(client.connect("127.0.0.1", server->port(), &err)) << err;
  serve::ClientResponse resp;
  ASSERT_TRUE(client.call_extra("lint", {}, "netlist", kNetlist, 0, &resp,
                                &err))
      << err;
  ASSERT_TRUE(resp.ok) << resp.raw;
  const json::JsonValue* diags = resp.result.find("diagnostics_json");
  ASSERT_NE(diags, nullptr);
  json::JsonValue parsed;
  EXPECT_TRUE(json::json_parse(diags->as_string(), &parsed, &err)) << err;
  const json::JsonValue* errors = resp.result.find("errors");
  ASSERT_NE(errors, nullptr);
  EXPECT_EQ(errors->as_number(), 0.0) << resp.raw;
  EXPECT_NE(resp.result.find("summary"), nullptr);

  // A top the netlist lacks gets exactly the findings `syndcim lint`
  // reports: both run the one lint::lint_top.
  const char* kDefects =
      "module lint_defects (in1, in2, out1);\n"
      "  input in1; input in2; output out1;\n"
      "  wire md;\n"
      "  INVX1 u_md_a (.A(in1), .Y(md));\n"
      "  INVX1 u_md_b (.A(in2), .Y(md));\n"
      "  INVX1 u_md_use (.A(md), .Y(out1));\n"
      "endmodule\n";
  ASSERT_TRUE(client.call_extra("lint", {{"top", "nosuch"}}, "netlist",
                                kDefects, 0, &resp, &err))
      << err;
  ASSERT_TRUE(resp.ok) << resp.raw;
  core::DiagEngine want;
  std::istringstream vf(kDefects);
  const netlist::Design design = netlist::parse_verilog(vf, &want);
  lint::lint_top(design, "nosuch", test_library(), want);
  EXPECT_EQ(want.error_count(), 1u) << "only the missing top is an error";
  EXPECT_EQ(resp.result.find("diagnostics_json")->as_string(),
            want.to_json());

  // A recursive hierarchy (mirrors examples/lint_recursive.v) is a lint
  // finding, not a daemon death: flattening it used to overflow the stack.
  const char* kRecursive =
      "module top (in1, out1);\n"
      "  input in1; output out1;\n"
      "  a u_a (.x(in1), .y(out1));\n"
      "endmodule\n"
      "module a (x, y);\n"
      "  input x; output y;\n"
      "  b u_b (.x(x), .y(y));\n"
      "endmodule\n"
      "module b (x, y);\n"
      "  input x; output y;\n"
      "  wire n;\n"
      "  INVX1 u_inv (.A(x), .Y(n));\n"
      "  a u_a (.x(n), .y(y));\n"
      "endmodule\n";
  ASSERT_TRUE(client.call_extra("lint", {{"top", "top"}}, "netlist",
                                kRecursive, 0, &resp, &err))
      << err;
  ASSERT_TRUE(resp.ok) << resp.raw;
  EXPECT_FALSE(resp.result.find("clean")->as_bool(true));
  EXPECT_NE(resp.result.find("diagnostics_json")
                ->as_string()
                .find("\"rule\": \"NET-RECURSIVE\""),
            std::string::npos)
      << resp.raw;
  const serve::ClientResponse alive = call(server->port(), "status", {});
  EXPECT_TRUE(alive.ok) << alive.raw;

  // Missing netlist param is a 400, not a crash.
  const serve::ClientResponse missing = call(server->port(), "lint", {});
  EXPECT_FALSE(missing.ok);
  EXPECT_EQ(missing.code, serve::kErrBadRequest);
  server->drain();
}

TEST(ServeDaemon, SweepMatchesBatchByteForByte) {
  auto server = start_server();
  const serve::ClientResponse resp =
      call(server->port(), "sweep", small_sweep_params());
  ASSERT_TRUE(resp.ok) << resp.raw;
  const json::JsonValue* frontier = resp.result.find("frontier_json");
  ASSERT_NE(frontier, nullptr);

  // The batch reference: a private store and cache, default threading —
  // the frontier must not depend on any of that.
  const dse::SweepGrid grid = dse::grid_from_kv(small_sweep_params());
  const dse::SweepReport rep =
      dse::run_sweep(test_library(), grid.expand(), {});
  EXPECT_EQ(frontier->as_string(), dse::sweep_frontier_json(rep));
  server->drain();
}

TEST(ServeDaemon, SecondIdenticalSweepIsWarm) {
  auto server = start_server();
  const serve::ClientResponse cold =
      call(server->port(), "sweep", small_sweep_params());
  ASSERT_TRUE(cold.ok) << cold.raw;
  const serve::ClientResponse warm =
      call(server->port(), "sweep", small_sweep_params());
  ASSERT_TRUE(warm.ok) << warm.raw;
  const json::JsonValue* skip = warm.result.find("skip_pct");
  ASSERT_NE(skip, nullptr);
  EXPECT_GE(skip->as_number(), 0.5) << warm.raw;
  EXPECT_GT(warm.result.find("eval_cache")->find("hits")->as_number(), 0.0);
  // Byte-identity also holds cold vs warm.
  EXPECT_EQ(cold.result.find("frontier_json")->as_string(),
            warm.result.find("frontier_json")->as_string());
  server->drain();
}

TEST(ServeDaemon, RestartOnStoreDirAnswersWarmFromL2) {
  const std::string root = ::testing::TempDir() + "syndcim_serve_store";
  std::filesystem::remove_all(root);
  serve::ServerOptions opt;
  opt.store_dir = root;

  // First daemon: cold sweep, then drain (which flushes every dirty
  // artifact to the durable store).
  std::string cold_frontier;
  {
    auto server = start_server(opt);
    const serve::ClientResponse cold =
        call(server->port(), "sweep", small_sweep_params());
    ASSERT_TRUE(cold.ok) << cold.raw;
    cold_frontier = cold.result.find("frontier_json")->as_string();
    server->drain();
    ASSERT_NE(server->blob_store(), nullptr);
    EXPECT_GT(server->blob_store()->stats().objects_written, 0u);
  }

  // Second daemon, same directory: a brand-new process-wide L1, so every
  // artifact hit on the repeated sweep is served from L2.
  auto server = start_server(opt);
  const serve::ClientResponse warm =
      call(server->port(), "sweep", small_sweep_params());
  ASSERT_TRUE(warm.ok) << warm.raw;
  EXPECT_EQ(warm.result.find("frontier_json")->as_string(), cold_frontier);
  EXPECT_GT(warm.result.find("artifacts")->find("hits")->as_number(), 0.0);

  std::uint64_t l2_hits = 0;
  for (const core::ArtifactTierStats& t : server->store().stats()) {
    l2_hits += t.l2_hits;
  }
  EXPECT_GT(l2_hits, 0u);

  // The status endpoint reports the durable store.
  const serve::ClientResponse status =
      call(server->port(), "status", {});
  ASSERT_TRUE(status.ok) << status.raw;
  const json::JsonValue* store = status.result.find("store");
  ASSERT_NE(store, nullptr) << status.raw;
  EXPECT_GT(store->find("l2_hits")->as_number(), 0.0) << status.raw;
  server->drain();
}

std::map<std::string, std::uint64_t> tier_misses(serve::Server& server) {
  std::map<std::string, std::uint64_t> out;
  for (const core::ArtifactTierStats& t : server.store().stats()) {
    out[t.name] = t.misses;
  }
  return out;
}

// K tenants sending the same cold compile at once share work through the
// artifact tiers alone: the first caller of each key computes it and the
// others wait for that result, so the burst computes exactly what one
// request computes, and every reply carries the same Pareto set.
TEST(ServeDaemon, ConcurrentIdenticalCompilesComputeEachArtifactOnce) {
  const std::map<std::string, std::string> params = {
      {"search_only", "true"}, {"rows", "128"}, {"cols", "64"},
      {"mac_mhz", "350"}};

  auto single = start_server();
  const serve::ClientResponse one = call(single->port(), "compile", params);
  ASSERT_TRUE(one.ok) << one.raw;
  const std::map<std::string, std::uint64_t> one_misses =
      tier_misses(*single);
  single->drain();
  for (const char* tier : {"slices", "modules", "activity"}) {
    EXPECT_GT(one_misses.at(tier), 0u) << tier;
  }

  serve::ServerOptions opt;
  opt.workers = 4;  // all K requests must be in flight simultaneously
  auto server = start_server(opt);
  constexpr int kClients = 4;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  std::vector<serve::ClientResponse> resps(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      serve::Client client;
      std::string err;
      ASSERT_TRUE(client.connect("127.0.0.1", server->port(), &err)) << err;
      ready.fetch_add(1);
      while (ready.load() < kClients) std::this_thread::yield();
      ASSERT_TRUE(client.call("compile", params, 0,
                              &resps[static_cast<std::size_t>(i)], &err))
          << err;
    });
  }
  for (std::thread& t : threads) t.join();
  const std::string pareto = one.result.find("pareto")->dump();
  for (const serve::ClientResponse& r : resps) {
    ASSERT_TRUE(r.ok) << r.raw;
    EXPECT_TRUE(r.result.find("feasible")->as_bool());
    EXPECT_EQ(r.result.find("pareto")->dump(), pareto);
  }
  EXPECT_EQ(tier_misses(*server), one_misses);
  server->drain();
}

/// A cold 12-spec grid that runs well past 300 ms.
std::map<std::string, std::string> slow_sweep_params() {
  return {{"rows", "64"},
          {"cols", "64"},
          {"sweep_mac_mhz", "250,350,450"},
          {"sweep_mcr", "1,2"},
          {"sweep_bits", "4;8"}};
}

// A request identical to one already running is still its own request:
// the first one's deadline expiring does not cancel it.
TEST(ServeDaemon, JoinerKeepsItsOwnDeadline) {
  auto server = start_server();
  serve::ClientResponse first;
  std::thread t([&] {
    first = call(server->port(), "sweep", slow_sweep_params(),
                 /*deadline_ms=*/300);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const serve::ClientResponse second =
      call(server->port(), "sweep", slow_sweep_params());
  t.join();
  EXPECT_FALSE(first.ok);
  EXPECT_EQ(first.code, serve::kErrDeadline) << first.raw;
  ASSERT_TRUE(second.ok) << second.raw;
  const dse::SweepReport rep = dse::run_sweep(
      test_library(), dse::grid_from_kv(slow_sweep_params()).expand(), {});
  EXPECT_EQ(second.result.find("frontier_json")->as_string(),
            dse::sweep_frontier_json(rep));
  server->drain();
}

// Two identical requests that fail on their input both get the 400 that
// input deserves; neither sees the other's failure as a 500.
TEST(ServeDaemon, IdenticalFailingRequestsAllGet400) {
  auto server = start_server();
  // Below the threshold voltage: the TechNode throws once the first
  // slice is characterized, tens of milliseconds in.
  std::map<std::string, std::string> params = slow_sweep_params();
  params["vdd"] = "0.1";
  serve::ClientResponse first;
  std::thread t([&] { first = call(server->port(), "sweep", params); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const serve::ClientResponse second = call(server->port(), "sweep", params);
  t.join();
  EXPECT_EQ(first.code, serve::kErrBadRequest) << first.raw;
  EXPECT_EQ(second.code, serve::kErrBadRequest) << second.raw;
  server->drain();
}

TEST(ServeDaemon, CrossRequestCompileWarmHit) {
  auto server = start_server();
  const std::map<std::string, std::string> params = {
      {"rows", "32"}, {"cols", "32"}, {"mac_mhz", "300"}};
  const serve::ClientResponse first =
      call(server->port(), "compile", params);
  ASSERT_TRUE(first.ok) << first.raw;
  // A separate connection — a different tenant — recompiling the same
  // spec splices cached stage artifacts from the shared store.
  const serve::ClientResponse second =
      call(server->port(), "compile", params);
  ASSERT_TRUE(second.ok) << second.raw;
  EXPECT_GT(second.result.find("stages_skipped")->as_number(),
            first.result.find("stages_skipped")->as_number());
  EXPECT_GE(second.result.find("skip_pct")->as_number(), 0.5) << second.raw;
  server->drain();
}

TEST(ServeDaemon, DeadlineExceededReturns408AndDaemonSurvives) {
  auto server = start_server();
  const serve::ClientResponse resp = call(
      server->port(), "sweep",
      {{"rows", "32"}, {"cols", "32"}, {"sweep_mac_mhz", "211,307,401"}},
      /*deadline_ms=*/1);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.code, serve::kErrDeadline) << resp.raw;
  const serve::ClientResponse status = call(server->port(), "status", {});
  EXPECT_TRUE(status.ok) << status.raw;
  server->drain();
}

TEST(ServeDaemon, AdmissionControlRejectsWith429) {
  serve::ServerOptions opt;
  opt.workers = 1;
  opt.queue_capacity = 1;
  auto server = start_server(opt);

  constexpr int kClients = 6;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  std::vector<serve::ClientResponse> resps(kClients);
  std::vector<char> transported(kClients, 0);  // not vector<bool>: bit-packed
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      serve::Client client;
      std::string err;
      if (!client.connect("127.0.0.1", server->port(), &err)) return;
      ready.fetch_add(1);
      while (ready.load() < kClients) std::this_thread::yield();
      // Distinct grids, so no request finds another's work in the store.
      const std::map<std::string, std::string> params = {
          {"rows", "32"},
          {"cols", "32"},
          {"sweep_mac_mhz", std::to_string(220 + 10 * i)}};
      transported[static_cast<std::size_t>(i)] = client.call(
          "sweep", params, 0, &resps[static_cast<std::size_t>(i)], &err);
    });
  }
  for (std::thread& t : threads) t.join();
  int ok = 0, rejected = 0;
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(transported[static_cast<std::size_t>(i)]);
    const serve::ClientResponse& r = resps[static_cast<std::size_t>(i)];
    if (r.ok) {
      ++ok;
    } else {
      EXPECT_EQ(r.code, serve::kErrOverloaded) << r.raw;
      ++rejected;
    }
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(rejected, 1);
  server->drain();
}

TEST(ServeDaemon, MixedTenantLoad) {
  auto server = start_server();
  std::thread t1([&] {
    const serve::ClientResponse r =
        call(server->port(), "compile",
             {{"search_only", "true"}, {"rows", "64"}, {"cols", "32"}});
    EXPECT_TRUE(r.ok) << r.raw;
  });
  std::thread t2([&] {
    const serve::ClientResponse r =
        call(server->port(), "sweep", small_sweep_params());
    EXPECT_TRUE(r.ok) << r.raw;
  });
  std::thread t3([&] {
    serve::Client client;
    std::string err;
    ASSERT_TRUE(client.connect("127.0.0.1", server->port(), &err)) << err;
    serve::ClientResponse r;
    ASSERT_TRUE(client.call_extra(
        "lint", {}, "netlist",
        "module top(input a, output y);\n  BUF_X1 u(.A(a), .Y(y));\n"
        "endmodule\n",
        0, &r, &err))
        << err;
    EXPECT_TRUE(r.ok) << r.raw;
  });
  t1.join();
  t2.join();
  t3.join();
  const serve::ClientResponse metrics = call(server->port(), "metrics", {});
  ASSERT_TRUE(metrics.ok) << metrics.raw;
  json::JsonValue parsed;
  std::string err;
  ASSERT_TRUE(json::json_parse(
      metrics.result.find("metrics_json")->as_string(), &parsed, &err))
      << err;
  server->drain();
}

TEST(ServeDaemon, ShutdownRequestDrainsGracefully) {
  auto server = start_server();
  const serve::ClientResponse resp = call(server->port(), "shutdown", {});
  ASSERT_TRUE(resp.ok) << resp.raw;
  EXPECT_TRUE(resp.result.find("draining")->as_bool());
  // The drain flag flips just after the shutdown response is written.
  for (int i = 0; i < 200 && !server->drain_requested(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(server->drain_requested());
  // New requests are refused while draining.
  const serve::ClientResponse refused = call(server->port(), "status", {});
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.code, serve::kErrDraining);
  server->drain();
  // Listener is gone after the drain.
  serve::Client client;
  std::string err;
  EXPECT_FALSE(client.connect("127.0.0.1", server->port(), &err));
}

/// The two-layer model the netmap serve tests ship (4-bit to match
/// small_sweep_params' candidate pool).
constexpr const char* kModelDoc = R"({
  "format": "syndcim-model", "version": 1, "name": "serve_model",
  "layers": [
    {"name": "a", "kind": "linear", "batch": 16, "in_features": 100,
     "out_features": 12, "input_bits": 4, "weight_bits": 4},
    {"name": "b", "kind": "linear", "batch": 16, "in_features": 12,
     "out_features": 4, "input_bits": 4, "weight_bits": 4}
  ]})";

TEST(ServeDaemon, NetmapMatchesBatchByteForByte) {
  auto server = start_server();
  std::map<std::string, std::string> params = small_sweep_params();
  params["budget_macros"] = "2";
  serve::Client client;
  std::string err;
  ASSERT_TRUE(client.connect("127.0.0.1", server->port(), &err)) << err;
  serve::ClientResponse resp;
  ASSERT_TRUE(
      client.call_extra("netmap", params, "model", kModelDoc, 0, &resp, &err))
      << err;
  ASSERT_TRUE(resp.ok) << resp.raw;
  const json::JsonValue* report = resp.result.find("report_json");
  ASSERT_NE(report, nullptr);
  EXPECT_NE(resp.result.find("total_energy_pj"), nullptr);

  // The batch reference: private store/cache, default threading, inline
  // sweep with the frontier lint skipped — exactly the CLI's path. The
  // served report must not depend on any of the daemon's sharing.
  core::DiagEngine diag;
  const netmap::Model model = netmap::parse_model(kModelDoc, diag);
  ASSERT_FALSE(diag.has_errors()) << diag.summary();
  dse::SweepOptions sopt;
  sopt.lint_frontier = false;
  const dse::SweepReport rep = dse::run_sweep(
      test_library(), dse::grid_from_kv(small_sweep_params()).expand(), sopt);
  netmap::Budget budget;
  budget.max_macros = 2;
  const netmap::NetmapResult res =
      netmap::run_netmap(model, netmap::candidates_from_frontier(rep), budget);
  EXPECT_EQ(report->as_string(), netmap::netmap_report_json(res));

  // A missing model param is a 400, not a crash.
  const serve::ClientResponse missing =
      call(server->port(), "netmap", small_sweep_params());
  EXPECT_FALSE(missing.ok);
  EXPECT_EQ(missing.code, serve::kErrBadRequest);
  server->drain();
}

// `threads` is not a request param: --sweep-threads alone sets how many
// threads a served sweep or netmap starts. A request naming it is a 400
// (an unknown spec key) before any worker thread starts, and the daemon
// keeps answering. So are the other keys outside the request vocabulary,
// numbers that do not parse and a compile of a spec no design point meets.
TEST(ServeDaemon, ThreadsAboveSweepThreadsIsA400) {
  serve::ServerOptions opt;
  opt.sweep_threads = 2;
  auto server = start_server(opt);
  std::map<std::string, std::string> params = small_sweep_params();
  params["threads"] = "3";
  const serve::ClientResponse sweep = call(server->port(), "sweep", params);
  EXPECT_FALSE(sweep.ok);
  EXPECT_EQ(sweep.code, serve::kErrBadRequest) << sweep.raw;

  serve::Client client;
  std::string err;
  ASSERT_TRUE(client.connect("127.0.0.1", server->port(), &err)) << err;
  serve::ClientResponse netmap;
  ASSERT_TRUE(client.call_extra("netmap", params, "model", kModelDoc, 0,
                                &netmap, &err))
      << err;
  EXPECT_FALSE(netmap.ok);
  EXPECT_EQ(netmap.code, serve::kErrBadRequest) << netmap.raw;

  std::map<std::string, std::string> lint_frontier = small_sweep_params();
  lint_frontier["lint_frontier"] = "false";
  const std::vector<
      std::pair<std::string, std::map<std::string, std::string>>>
      rejected = {
          {"compile",
           {{"rows", "32"}, {"cols", "32"}, {"mac_mhz", "300"},
            {"sim_lanes", "4"}}},
          {"sweep", lint_frontier},
          {"compile", {{"search_only", "true"}, {"rows", "99999999999"}}},
          {"sweep", {{"rows", "32"}, {"sweep_mac_mhz", "250,1e999"}}},
          // Infeasible at the default 800 MHz: the caller's error.
          {"compile", {{"rows", "32"}, {"cols", "32"}}},
      };
  for (const auto& [method, bad] : rejected) {
    const serve::ClientResponse resp = call(server->port(), method, bad);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.code, serve::kErrBadRequest) << method << ": " << resp.raw;
  }

  const serve::ClientResponse status = call(server->port(), "status", {});
  EXPECT_TRUE(status.ok) << status.raw;
  server->drain();
}

TEST(ServeDaemon, MultiplexClientMatchesOutOfOrderResponses) {
  serve::ServerOptions opt;
  opt.workers = 2;  // the slow and fast requests run concurrently
  auto server = start_server(opt);
  serve::MultiplexClient mc;
  std::string err;
  ASSERT_TRUE(mc.connect("127.0.0.1", server->port(), &err)) << err;

  // Slow request first (a netmap with an inline sweep), then a burst of
  // fast ones: their responses overtake the netmap's on the shared
  // connection, and wait() must pair every line with its request id.
  std::map<std::string, std::string> params = small_sweep_params();
  params["budget_macros"] = "2";
  const std::string slow =
      mc.send("netmap", params, "model", kModelDoc, 0, &err);
  ASSERT_FALSE(slow.empty()) << err;
  std::vector<std::string> fast_ids;
  for (int i = 0; i < 3; ++i) {
    const std::string id = mc.send("status", {}, "", "", 0, &err);
    ASSERT_FALSE(id.empty()) << err;
    fast_ids.push_back(id);
  }
  // The fast responses resolve while the slow request is still running.
  for (const std::string& id : fast_ids) {
    serve::ClientResponse r;
    ASSERT_TRUE(mc.wait(id, &r, &err)) << err;
    EXPECT_TRUE(r.ok) << r.raw;
    EXPECT_EQ(r.id, id);
    EXPECT_NE(r.result.find("requests_total"), nullptr);
  }
  serve::ClientResponse sr;
  ASSERT_TRUE(mc.wait(slow, &sr, &err)) << err;
  EXPECT_TRUE(sr.ok) << sr.raw;
  EXPECT_EQ(sr.id, slow);
  EXPECT_NE(sr.result.find("report_json"), nullptr);
  mc.close();
  server->drain();
}

}  // namespace
