// `serve` workload: an in-process daemon on loopback, warmed by one pass
// over every distinct request, then driven by closed-loop tenant
// connections with no think time (every client in the repository waits
// for its reply), each replaying the requests of the repository's own
// documented client calls (see request_mix). Its caches are warm, so it measures
// warm lookups and keys, JSON handling, admission and queueing, large
// request lines and the uncached frontier lint of served sweeps — and
// should stay flat under cold-path gains.
#include <malloc.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "cell/characterize.hpp"
#include "dse/sweep.hpp"
#include "netlist/verilog.hpp"
#include "rtlgen/macro.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "tech/tech_node.hpp"

namespace perfbench {
namespace {

using namespace syndcim;
using Params = std::vector<std::pair<std::string, std::string>>;

constexpr int kSetupReps = 3;
/// Traced runs alternate untraced and traced bursts of this many.
constexpr int kTracedBursts = 6;

/// One distinct request of the mix.
struct RequestType {
  std::string name;    ///< distinct request
  std::string method;  ///< wire method
  std::string group;   ///< serve.<group>.p50_ms
  int share = 0;       ///< copies in each tenant's deck
  Params params;
  std::string tail;    ///< request line minus its leading `{"id": "<id>`
};

std::string params_json(const Params& p) {
  std::string s = "{";
  for (const auto& [k, v] : p) {
    if (s.size() > 1) s += ", ";
    s += "\"" + serve::json_escape(k) + "\": \"" + serve::json_escape(v) +
         "\"";
  }
  return s + "}";
}

/// The request mix. The repository has no daemon traffic logs; what it
/// has are the client calls it documents and runs: the README's
/// `syndcim serve` quick-start and the syndcim_client calls of the CI
/// `persistence`, `netmap` and `serve` jobs. The mix is every request
/// those calls send that the daemon answers ok, with its parameters,
/// as many times as they send it (`--concurrent 4` sends four). Left out
/// are `shutdown`, the request CI sends with an already-expired deadline,
/// and two that fail at the default 800 MHz MAC clock: the README's four
/// `compile rows=64 cols=64` (infeasible spec) and the CI netmap batch's
/// `kws.json` netmap (no candidate macro). Each tenant shuffles the
/// resulting 20-request deck with its own seeded RNG.
/// The shares come from that census, not from traffic, so the
/// mix-weighted figures (p50, p99, throughput) forecast no real load: a
/// claim about one method belongs on its serve.<group>.p50_ms.
std::vector<RequestType> request_mix(const std::string& tiny_cnn_json,
                                     const std::string& macro_verilog) {
  const Params sweep32 = {{"rows", "32"},        {"cols", "32"},
                          {"input_bits", "4"},   {"weight_bits", "4"},
                          {"sweep_mac_mhz", "250,400"}};
  std::vector<RequestType> mix = {
      // README 1, CI persistence 1, CI netmap batch 1, CI serve 2.
      {"status", "status", "status", 5, {}},
      // CI serve.
      {"metrics", "metrics", "metrics", 1, {}},
      // CI serve.
      {"compile_32",
       "compile",
       "compile",
       1,
       {{"rows", "32"},
        {"cols", "32"},
        {"input_bits", "4"},
        {"weight_bits", "4"},
        {"mac_mhz", "300"}}},
      // README.
      {"compile_64",
       "compile",
       "compile",
       1,
       {{"rows", "64"}, {"cols", "64"}, {"mac_mhz", "400"}}},
      // CI serve, --concurrent 4.
      {"search_128",
       "compile",
       "search",
       4,
       {{"search_only", "true"},
        {"rows", "128"},
        {"cols", "64"},
        {"mac_mhz", "350"}}},
      // CI persistence 2, CI netmap batch 1, CI serve 2.
      {"sweep_32", "sweep", "sweep", 5, sweep32},
      // README.
      {"sweep_64", "sweep", "sweep", 1, {{"sweep_mac_mhz", "250,350"}}},
      // CI netmap.
      {"netmap_cnn",
       "netmap",
       "netmap",
       1,
       {{"model", tiny_cnn_json},
        {"rows", "32"},
        {"cols", "32"},
        {"input_bits", "4,8"},
        {"weight_bits", "4,8"},
        {"sweep_mac_mhz", "250,400"},
        {"sweep_mcr", "1,2"},
        {"budget_macros", "4"}}},
      // README.
      {"lint_macro", "lint", "lint", 1, {{"netlist", macro_verilog}}},
  };
  for (RequestType& t : mix) {
    t.tail = "\", \"method\": \"" + t.method +
             "\", \"params\": " + params_json(t.params) + "}";
  }
  return mix;
}

/// The part of a reply that must not change between identical requests:
/// the served frontier for sweeps, the design outcome (not the
/// stage-cache counters) for compiles, everything for netmap and lint;
/// status and metrics replies are live daemon state and only have to be
/// ok.
std::string stable_part(const std::string& method,
                        const serve::JsonValue& result) {
  if (method == "status" || method == "metrics") return {};
  if (method == "sweep") {
    const serve::JsonValue* f = result.find("frontier_json");
    return f != nullptr ? f->as_string() : std::string();
  }
  if (method == "compile") {
    std::string s;
    for (const auto& [k, v] : result.members()) {
      if (k == "stages_run" || k == "stages_skipped" || k == "skip_pct") continue;
      s += k + "=" + v.dump() + ";";
    }
    return s;
  }
  return result.dump();
}

/// One daemon with its library and connected tenants. Members are
/// destroyed in reverse order: tenants disconnect, the server drains,
/// then the library it references goes.
struct Daemon {
  std::unique_ptr<cell::Library> lib;
  std::unique_ptr<serve::Server> server;
  std::vector<std::unique_ptr<serve::Client>> tenants;
  std::vector<std::string> reference;  ///< stable_part of warm-up replies
  double characterize_s = 0;
};

std::string request_line(const std::string& id, const std::string& tail) {
  return "{\"id\": \"" + id + tail;
}

/// Starts a daemon with every concurrency setting pinned, connects the
/// tenants and sends each distinct request once.
void start_daemon(Daemon& d, const std::vector<RequestType>& mix) {
  const double t0 = now_s();
  d.lib = std::make_unique<cell::Library>(
      cell::characterize_default_library(tech::make_default_40nm()));
  d.characterize_s = now_s() - t0;
  serve::ServerOptions so;
  so.host = "127.0.0.1";
  so.port = 0;
  so.workers = kServeWorkers;
  so.sweep_threads = kServeSweepThreads;
  so.queue_capacity = kServeQueue;
  d.server = std::make_unique<serve::Server>(*d.lib, so);
  std::string err;
  if (!d.server->start(&err)) throw std::runtime_error("serve: " + err);
  for (int t = 0; t < kServeTenants; ++t) {
    d.tenants.push_back(std::make_unique<serve::Client>());
    if (!d.tenants.back()->connect("127.0.0.1", d.server->port(), &err)) {
      throw std::runtime_error("connect: " + err);
    }
  }
  for (const RequestType& t : mix) {
    serve::ClientResponse resp;
    if (!d.tenants[0]->call_raw(request_line("warmup." + t.name, t.tail),
                                &resp, &err) ||
        !resp.ok) {
      throw std::runtime_error("warm-up " + t.name + " failed: " +
                               (err.empty() ? resp.reason : err));
    }
    d.reference.push_back(stable_part(t.method, resp.result));
  }
}

struct Sample {
  std::size_t type = 0;
  std::string id;
  double ms = 0;
  bool ok = false;
  bool traced = false;
  double queue_depth = -1;  ///< status replies only
};

/// One closed-loop connection and its seeded order of request types.
struct Tenant {
  int index = 0;
  serve::Client* client = nullptr;
  std::mt19937 rng;
  std::vector<std::size_t> deck;  ///< each type `share` times
  std::size_t pos = 0;            ///< next deck slot; reshuffled at the end
  std::uint64_t seq = 0;          ///< request ids t<index>.<seq>
};

/// Runs one tenant until `deadline`: next request type from its shuffled
/// deck, send, wait for the reply, check it.
void run_tenant(Tenant& t, const Daemon& d,
                const std::vector<RequestType>& mix, double deadline,
                bool traced, std::vector<Sample>& out) {
  while (now_s() < deadline) {
    if (t.pos == t.deck.size()) {
      std::shuffle(t.deck.begin(), t.deck.end(), t.rng);
      t.pos = 0;
    }
    Sample s;
    s.type = t.deck[t.pos++];
    s.traced = traced;
    s.id = "t" + std::to_string(t.index) + "." + std::to_string(t.seq++);
    const RequestType& type = mix[s.type];
    const std::string line = request_line(s.id, type.tail);
    serve::ClientResponse resp;
    std::string err;
    const double t0 = now_s();
    const bool sent = t.client->call_raw(line, &resp, &err);
    s.ms = (now_s() - t0) * 1e3;
    s.ok = sent && resp.ok && resp.id == s.id &&
           stable_part(type.method, resp.result) == d.reference[s.type];
    if (sent && resp.ok && type.method == "status") {
      if (const serve::JsonValue* q = resp.result.find("queue_depth")) {
        s.queue_depth = q->as_number();
      }
    }
    if (!s.ok) {
      std::fprintf(stderr, "serve %s %s failed: %s\n", type.name.c_str(),
                   s.id.c_str(),
                   !sent ? err.c_str()
                         : (!resp.ok ? resp.reason.c_str()
                                     : "reply differs from the warm-up reply"));
    }
    out.push_back(std::move(s));
    if (!sent) return;  // the connection is gone
  }
}

/// Daemon-side cumulative counts, read between bursts.
std::map<std::string, double> read_counters(serve::Server& server) {
  std::map<std::string, double> c;
  for (const auto& t : server.store().stats()) {
    c["artifact.hits"] += static_cast<double>(t.hits);
    c["artifact.misses"] += static_cast<double>(t.misses);
  }
  for (const char* name :
       {"dse.cache.hit", "dse.cache.miss", "dse.cache.inflight_wait",
        "dse.pool.steal", "serve.singleflight.coalesced",
        "serve.request.rejected", "sta.plan.builds", "sim.gate_evals",
        "sim.events_skipped"}) {
    c[name] = static_cast<double>(counter_value(name));
  }
  return c;
}

double ratio(double part, double whole) { return whole > 0 ? part / whole : 0; }

}  // namespace

RunResult run_serve_workload(const Args& args) {
  RunResult rr;
  // Workload inputs (not set-up): the model document a client reads
  // from disk, and the Verilog of the 64x64 MCR2 INT4/8 macro at its
  // default architecture for inline lint.
  std::ostringstream verilog;
  {
    const rtlgen::MacroDesign md = rtlgen::gen_macro(rtlgen::MacroConfig{});
    netlist::write_verilog(md.design, md.top, verilog);
  }
  const std::vector<RequestType> mix =
      request_mix(read_file(args.root + "/examples/models/tiny_cnn.json"),
                  verilog.str());
  for (const RequestType& t : mix) {
    if (t.method == "lint") {
      rr.info["lint_request_bytes"] = std::to_string(t.tail.size());
    }
  }

  // Set-up: daemon start, tenant connections and the warm-up pass,
  // repeated; the last daemon serves the timed phase.
  std::vector<double> setup_s, characterize_ms;
  std::unique_ptr<Daemon> d;
  for (int i = 0; i < kSetupReps; ++i) {
    // A real process runs one daemon: hand the previous one's freed heap
    // back so its residue does not inflate this process's peak RSS.
    d.reset();
    malloc_trim(0);
    auto fresh = std::make_unique<Daemon>();
    const double t0 = now_s();
    start_daemon(*fresh, mix);
    setup_s.push_back(now_s() - t0);
    characterize_ms.push_back(fresh->characterize_s * 1e3);
    d = std::move(fresh);
  }

  std::vector<Tenant> tenants(kServeTenants);
  for (int i = 0; i < kServeTenants; ++i) {
    Tenant& t = tenants[i];
    t.index = i;
    t.client = d->tenants[i].get();
    t.rng.seed(args.seed * 1000003u + static_cast<unsigned>(i));
    for (std::size_t type = 0; type < mix.size(); ++type) {
      t.deck.insert(t.deck.end(), mix[type].share, type);
    }
    t.pos = t.deck.size();  // shuffle before the first request
  }

  // Untraced runs are one burst; traced runs alternate untraced and
  // traced bursts with the tenants stopped at every switch.
  const int bursts = args.trace ? kTracedBursts : 1;
  std::vector<Sample> samples;
  std::map<std::string, double> traced_counts;  // deltas over traced bursts
  double wall_s = 0;
  for (int b = 0; b < bursts; ++b) {
    const bool traced = args.trace && b % 2 == 1;
    obs::set_enabled(traced);
    const std::map<std::string, double> before = read_counters(*d->server);
    const double t0 = now_s();
    const double deadline = t0 + args.seconds / bursts;
    std::vector<std::vector<Sample>> per_tenant(kServeTenants);
    std::vector<std::thread> threads;
    for (int t = 0; t < kServeTenants; ++t) {
      threads.emplace_back([&, t] {
        try {
          run_tenant(tenants[t], *d, mix, deadline, traced, per_tenant[t]);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "serve tenant %d stopped: %s\n", t, e.what());
          per_tenant[t].push_back(Sample{});  // counts as one failed request
        }
      });
    }
    for (std::thread& th : threads) th.join();
    wall_s += now_s() - t0;
    obs::set_enabled(false);
    if (traced) {
      for (const auto& [name, v] : read_counters(*d->server)) {
        traced_counts[name] += v - before.at(name);
      }
    }
    for (auto& v : per_tenant) {
      for (Sample& s : v) samples.push_back(std::move(s));
    }
  }

  // Each served frontier must equal an in-process batch sweep of the
  // same grid, byte for byte.
  bool sweeps_equal_batch = true;
  for (std::size_t type = 0; type < mix.size(); ++type) {
    if (mix[type].method != "sweep") continue;
    const Params& p = mix[type].params;
    dse::SweepOptions opt;
    opt.threads = kServeSweepThreads;
    const std::string batch = dse::sweep_frontier_json(dse::run_sweep(
        *d->lib, dse::grid_from_kv({p.begin(), p.end()}).expand(), opt));
    if (batch == d->reference[type]) continue;
    sweeps_equal_batch = false;
    std::fprintf(stderr, "serve: served %s frontier differs from batch\n",
                 mix[type].name.c_str());
    for (Sample& s : samples) {
      if (s.type == type) s.ok = false;
    }
  }
  rr.info["served_sweeps_equal_batch"] = sweeps_equal_batch ? "true" : "false";

  // Drain before reading spans: every server worker has then finished.
  const std::size_t store_entries = d->server->store().total_entries();
  d->tenants.clear();
  d->server->drain();

  rr.attempted = samples.size();
  for (const Sample& s : samples) rr.failed += s.ok ? 0 : 1;
  rr.info["requests"] = std::to_string(samples.size());
  rr.info["tenants"] = std::to_string(kServeTenants);

  if (!args.trace) {
    std::vector<double> ms;
    for (const Sample& s : samples) ms.push_back(s.ms);
    rr.metrics["setup_s"] = median(setup_s);
    rr.metrics["latency_p50_ms"] = median(ms);
    rr.metrics["latency_tail_ms"] = quantile(ms, 0.99);
    rr.metrics["throughput_per_s"] = static_cast<double>(ms.size()) / wall_s;
    rr.metrics["peak_rss_mb"] =
        static_cast<double>(obs::peak_rss_kb()) / 1024.0;
    rr.info["latency_tail"] = "p99";
    return rr;
  }

  // Tie each traced client request to the server's serve.<method>#<id>
  // span through its id, which is unique across connections.
  const std::vector<obs::RecordedSpan> spans = obs::tracer().snapshot();
  std::map<std::string, double> server_ms;  // request id -> span ms
  for (const obs::RecordedSpan& s : spans) {
    const auto hash = s.ev.name.find('#');
    if (s.ev.name.rfind("serve.", 0) == 0 && hash != std::string::npos) {
      server_ms[s.ev.name.substr(hash + 1)] =
          static_cast<double>(s.ev.dur_ns) * 1e-6;
    }
  }
  std::vector<double> traced_ms, untraced_ms, queue_depths;
  std::map<std::string, std::vector<double>> by_group;
  double exec_ms = 0, wait_ms = 0, rt_ms = 0;
  std::uint64_t tied = 0;
  for (const Sample& s : samples) {
    (s.traced ? traced_ms : untraced_ms).push_back(s.ms);
    if (!s.traced) continue;
    rt_ms += s.ms;
    by_group[mix[s.type].group].push_back(s.ms);
    if (s.queue_depth >= 0) queue_depths.push_back(s.queue_depth);
    const auto it = server_ms.find(s.id);
    if (it != server_ms.end()) {
      ++tied;
      exec_ms += it->second;
      wait_ms += s.ms - it->second;
    }
  }
  const double n = traced_ms.empty() ? 1.0 : static_cast<double>(traced_ms.size());
  rr.info["traced_requests"] = std::to_string(traced_ms.size());
  rr.info["tied_to_server_spans"] = std::to_string(tied);

  const LayerTimes lt = reduce_spans(spans, "");
  for (const auto& [metric, ms] : lt.self_ms) rr.metrics[metric] = ms / n;
  for (const RequestType& t : mix) {
    rr.metrics["serve." + t.group + ".p50_ms"] = median(by_group[t.group]);
  }
  auto count = [&](const char* name) { return traced_counts[name]; };
  rr.metrics["trace.op_ms"] = rt_ms / n;
  rr.metrics["serve.exec_ms"] = tied > 0 ? exec_ms / tied : 0;
  rr.metrics["serve.wait_ms"] = tied > 0 ? wait_ms / tied : 0;
  rr.metrics["serve.queue_depth"] =
      queue_depths.empty()
          ? 0
          : std::accumulate(queue_depths.begin(), queue_depths.end(), 0.0) /
                static_cast<double>(queue_depths.size());
  rr.metrics["serve.coalesced"] = count("serve.singleflight.coalesced") / n;
  rr.metrics["serve.rejected"] = count("serve.request.rejected") / n;
  rr.metrics["cell.characterize_ms"] = median(characterize_ms);
  rr.metrics["scl.slices"] = (lt.count("scl.slice.flatten") +
                              lt.count("scl.slice.flatten.skip")) / n;
  rr.metrics["sta.plan_builds"] = count("sta.plan.builds") / n;
  rr.metrics["implement.count"] = lt.count("compile.rtlgen") / n;
  rr.metrics["sim.skip_ratio"] =
      ratio(count("sim.events_skipped"),
            count("sim.gate_evals") + count("sim.events_skipped"));
  rr.metrics["artifact.hit_ratio"] =
      ratio(count("artifact.hits"),
            count("artifact.hits") + count("artifact.misses"));
  rr.metrics["artifact.entries"] = static_cast<double>(store_entries);
  rr.metrics["dse.eval.hit_ratio"] =
      ratio(count("dse.cache.hit"),
            count("dse.cache.hit") + count("dse.cache.miss"));
  rr.metrics["dse.eval.misses"] = count("dse.cache.miss") / n;
  rr.metrics["dse.eval.inflight_waits"] = count("dse.cache.inflight_wait") / n;
  rr.metrics["dse.pool.stolen"] = count("dse.pool.steal") / n;
  rr.metrics["obs.overhead_pct"] = overhead_pct(traced_ms, untraced_ms);
  return rr;
}

}  // namespace perfbench
