#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/compiler.hpp"
#include "core/spec.hpp"
#include "dse/sweep.hpp"
#include "json/json.hpp"
#include "lint/lint.hpp"
#include "netlist/verilog_parser.hpp"
#include "netmap/model.hpp"
#include "netmap/netmap.hpp"
#include "obs/obs.hpp"

namespace syndcim::serve {

using json::JsonValue;
using json::json_escape;
using json::json_number;

namespace {

std::string bool_json(bool b) { return b ? "true" : "false"; }

bool kv_flag(std::map<std::string, std::string>& kv, const std::string& key,
             bool fallback) {
  const auto it = kv.find(key);
  if (it == kv.end()) return fallback;
  const bool on = it->second == "1" || it->second == "true";
  const bool off = it->second == "0" || it->second == "false";
  if (!on && !off) {
    throw std::invalid_argument("param '" + key + "' must be a boolean, got '" +
                                it->second + "'");
  }
  kv.erase(it);
  return on;
}

int kv_int(std::map<std::string, std::string>& kv, const std::string& key,
           int fallback) {
  const auto it = kv.find(key);
  if (it == kv.end()) return fallback;
  const int v = core::parse_int(key, it->second);
  kv.erase(it);
  return v;
}

double kv_double(std::map<std::string, std::string>& kv,
                 const std::string& key, double fallback) {
  const auto it = kv.find(key);
  if (it == kv.end()) return fallback;
  const double v = core::parse_number(key, it->second);
  kv.erase(it);
  return v;
}

std::string kv_string(std::map<std::string, std::string>& kv,
                      const std::string& key) {
  const auto it = kv.find(key);
  if (it == kv.end()) return "";
  std::string v = std::move(it->second);
  kv.erase(it);
  return v;
}

}  // namespace

Server::Server(const cell::Library& lib, ServerOptions opt)
    : lib_(lib), opt_(std::move(opt)) {
  // The library's fingerprint is computed lazily and its first call is
  // not thread-safe; every request worker reads it, so force it here.
  (void)lib_.fingerprint();
  store_ = std::make_shared<core::ArtifactStore>();
  if (opt_.artifact_max_entries > 0 || opt_.artifact_max_bytes > 0) {
    store_->set_capacity(opt_.artifact_max_entries, opt_.artifact_max_bytes);
  }
  if (!opt_.store_dir.empty()) {
    disk_ = std::make_unique<core::DiskBlobStore>(opt_.store_dir);
    store_->attach_blob_store(disk_.get());
  }
}

Server::~Server() {
  if (started_.load()) drain();
}

bool Server::start(std::string* err) {
  auto fail = [&](const std::string& what) {
    const std::string reason = what + ": " + std::strerror(errno);
    if (err != nullptr) *err = reason;
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  };

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(opt_.port));
  if (::inet_pton(AF_INET, opt_.host.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return fail("inet_pton(" + opt_.host + ")");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, 64) < 0) return fail("listen");

  sockaddr_in bound = {};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) <
      0) {
    return fail("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  start_ns_ = obs::now_ns();
  pool_ = std::make_unique<dse::WorkStealingPool>(
      opt_.workers < 1 ? 1 : opt_.workers);
  started_.store(true);
  acceptor_ = std::thread([this] { acceptor_loop(); });
  return true;
}

void Server::close_listener() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::acceptor_loop() {
  obs::tracer().set_thread_name("serve.acceptor");
  while (!draining_.load()) {
    pollfd pfd = {};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int r = ::poll(&pfd, 1, 200);
    if (draining_.load()) break;
    {
      // Reap connections whose reader has finished on every wake-up, the
      // poll timeout included, so a long-running daemon keeps no thread
      // or buffer per closed connection even when no new one arrives.
      std::lock_guard<std::mutex> lock(conns_mu_);
      std::erase_if(conns_, [](const std::shared_ptr<Connection>& c) {
        if (!c->finished.load()) return false;
        c->reader.join();
        return true;
      });
    }
    if (r <= 0) continue;  // timeout / EINTR
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;

    std::lock_guard<std::mutex> lock(conns_mu_);
    std::size_t open = 0;
    for (const auto& c : conns_) {
      if (c->open.load()) ++open;
    }
    if (static_cast<int>(open) >= opt_.max_connections) {
      const std::string line =
          error_response("", kErrOverloaded, "connection limit reached") +
          "\n";
      (void)::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
      ::close(fd);
      obs::metrics().counter("serve.conn.rejected").inc();
      continue;
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conns_.push_back(conn);
    obs::metrics().counter("serve.conn.accepted").inc();
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
  }
}

void Server::reader_loop(const std::shared_ptr<Connection>& conn) {
  obs::tracer().set_thread_name("serve.reader#" + std::to_string(conn->id));
  std::string buf;
  std::size_t scanned = 0;  // prefix of buf already searched for '\n'
  // Up to 64 KiB per recv: a request line of a few hundred KiB (a served
  // netlist) arrives in a handful of reads and appends.
  char chunk[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or hard error: the client is done sending
    buf.append(chunk, static_cast<std::size_t>(n));
    bool too_long = false;
    std::size_t nl;
    while ((nl = buf.find('\n', scanned)) != std::string::npos) {
      if (nl > kMaxRequestLineBytes) {
        too_long = true;
        break;
      }
      std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      scanned = 0;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      Request req;
      std::string perr;
      if (!parse_request(line, &req, &perr)) {
        send_line(conn, error_response("", kErrBadRequest, perr));
        obs::metrics().counter("serve.request.bad").inc();
        continue;
      }
      admit(conn, std::move(req));
    }
    scanned = buf.size();
    if (too_long || buf.size() > kMaxRequestLineBytes) {
      send_line(conn, error_response("", kErrLineTooLong,
                                     "request line exceeds " +
                                         std::to_string(kMaxRequestLineBytes) +
                                         " bytes"));
      obs::metrics().counter("serve.request.too_long").inc();
      break;
    }
  }
  conn->open.store(false);
  // The client may still be reading responses for requests it already
  // sent — close only once no worker can write here anymore.
  while (conn->pending.load() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    if (conn->fd >= 0) {
      ::close(conn->fd);
      conn->fd = -1;
    }
  }
  conn->finished.store(true);
}

std::size_t Server::tracked_connections() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_.size();
}

void Server::admit(const std::shared_ptr<Connection>& conn, Request req) {
  if (draining_.load() || drain_requested_.load()) {
    send_line(conn,
              error_response(req.id, kErrDraining, "daemon is draining"));
    obs::metrics().counter("serve.request.draining").inc();
    return;
  }
  auto token = std::make_shared<core::CancelToken>();
  const double dl =
      req.deadline_ms > 0 ? req.deadline_ms : opt_.default_deadline_ms;
  if (dl > 0) {
    token->set_deadline_after(
        std::chrono::nanoseconds(std::llround(dl * 1e6)));
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (static_cast<int>(queue_.size()) >= opt_.queue_capacity) {
      obs::metrics().counter("serve.request.rejected").inc();
      send_line(conn, error_response(req.id, kErrOverloaded,
                                     "request queue full (capacity " +
                                         std::to_string(opt_.queue_capacity) +
                                         ")"));
      return;
    }
    conn->pending.fetch_add(1);
    queue_.push_back(Pending{conn, std::move(req), std::move(token)});
    obs::metrics().gauge("serve.queue.depth").set(
        static_cast<double>(queue_.size()));
  }
  obs::metrics().counter("serve.request.accepted").inc();
  pool_->submit([this] { process_one(); });
}

void Server::process_one() {
  Pending pr;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (queue_.empty()) return;
    pr = std::move(queue_.front());
    queue_.pop_front();
    obs::metrics().gauge("serve.queue.depth").set(
        static_cast<double>(queue_.size()));
  }
  in_flight_.fetch_add(1);
  requests_total_.fetch_add(1);
  obs::tracer().set_thread_name("serve.req#" + pr.req.id);
  {
    obs::SpanGuard span("serve." + pr.req.method + "#" + pr.req.id);
    std::string line;
    try {
      pr.token->check("serve.queue");  // expired while waiting for a worker
      const std::string payload = dispatch(pr.req, pr.token);
      line = ok_response(pr.req.id, payload);
      obs::metrics().counter("serve.request.ok").inc();
    } catch (const core::CancelledError& e) {
      line = error_response(pr.req.id, kErrDeadline, e.what());
      obs::metrics().counter("serve.request.deadline").inc();
    } catch (const NotFoundError& e) {
      line = error_response(pr.req.id, kErrNotFound, e.what());
      obs::metrics().counter("serve.request.not_found").inc();
    } catch (const std::invalid_argument& e) {
      line = error_response(pr.req.id, kErrBadRequest, e.what());
      obs::metrics().counter("serve.request.bad").inc();
    } catch (const std::exception& e) {
      line = error_response(pr.req.id, kErrInternal, e.what());
      obs::metrics().counter("serve.request.error").inc();
    }
    send_line(pr.conn, line);
  }
  if (pr.req.method == "shutdown") request_drain();
  pr.conn->pending.fetch_sub(1);
  in_flight_.fetch_sub(1);
}

std::string Server::dispatch(const Request& req,
                             const std::shared_ptr<core::CancelToken>& token) {
  if (req.method == "compile") return handle_compile(req, token.get());
  if (req.method == "sweep") return handle_sweep(req, token.get());
  if (req.method == "netmap") return handle_netmap(req, token.get());
  if (req.method == "lint") return handle_lint(req);
  if (req.method == "metrics") return handle_metrics();
  if (req.method == "status") return handle_status();
  if (req.method == "shutdown") return "{\"draining\": true}";
  // 404 is distinct from 400: the line was well-formed, the verb is not
  // part of protocol v1.
  throw NotFoundError("unknown method '" + req.method + "'");
}

std::string Server::handle_compile(const Request& req,
                                   const core::CancelToken* token) {
  std::map<std::string, std::string> kv = params_to_kv(req.params);
  const bool search_only = kv_flag(kv, "search_only", false);
  const core::PerfSpec spec = core::spec_from_kv(kv);
  core::SynDcimCompiler compiler(lib_, store_);
  std::ostringstream os;
  if (search_only) {
    token->check("compile.search");
    const core::SearchResult res = compiler.search(spec);
    os << "{\"search_only\": true, \"feasible\": " << bool_json(res.feasible())
       << ", \"pareto_size\": " << res.pareto.size() << ", \"pareto\": [";
    for (std::size_t i = 0; i < res.pareto.size(); ++i) {
      const auto& p = res.pareto[i];
      if (i) os << ", ";
      os << "{\"label\": \"" << json_escape(p.label)
         << "\", \"feasible\": " << bool_json(p.feasible)
         << ", \"power_uw\": " << json_number(p.ppa.power_uw)
         << ", \"area_um2\": " << json_number(p.ppa.area_um2)
         << ", \"fmax_mhz\": " << json_number(p.ppa.fmax_mhz) << "}";
    }
    os << "]}";
    return os.str();
  }
  const core::CompileResult result =
      compiler.compile(spec, core::Workload{}, token);
  std::size_t runs = 0, skips = 0;
  for (const core::StageRecord& s : result.impl.stages) {
    (s.skipped ? skips : runs) += 1;
  }
  const double total = static_cast<double>(runs + skips);
  os << "{\"search_only\": false, \"selected\": \""
     << json_escape(result.selected.label)
     << "\", \"pareto_size\": " << result.search.pareto.size()
     << ", \"fmax_mhz\": " << json_number(result.impl.fmax_mhz)
     << ", \"area_mm2\": " << json_number(result.impl.macro_area_mm2)
     << ", \"power_uw\": " << json_number(result.impl.total_power_uw)
     << ", \"tops_1b\": " << json_number(result.impl.tops_1b)
     << ", \"signoff_clean\": " << bool_json(result.impl.signoff_clean())
     << ", \"stages_run\": " << runs << ", \"stages_skipped\": " << skips
     << ", \"skip_pct\": "
     << json_number(total > 0 ? static_cast<double>(skips) / total : 0.0)
     << "}";
  return os.str();
}

std::string Server::handle_sweep(const Request& req,
                                 const core::CancelToken* token) {
  const dse::SweepGrid grid = dse::grid_from_kv(params_to_kv(req.params));
  const std::vector<core::PerfSpec> specs = grid.expand();
  dse::SweepOptions sopt;
  sopt.threads = opt_.sweep_threads;
  sopt.shared_store = store_.get();
  sopt.cancel = token;
  const dse::SweepReport rep = dse::run_sweep(lib_, specs, sopt);
  if (rep.cancelled) throw core::CancelledError("sweep");

  // `eval_cache` is the slices tier, which the artifact totals already
  // include: skip_pct counts every lookup once.
  const std::uint64_t eh = rep.cache.hits, em = rep.cache.misses;
  const std::uint64_t ah = rep.artifact_hits(), am = rep.artifact_misses();
  const double skip_pct =
      ah + am > 0 ? static_cast<double>(ah) / static_cast<double>(ah + am)
                  : 0.0;
  std::ostringstream os;
  os << "{\"n_specs\": " << specs.size() << ", \"n_tasks\": " << rep.n_tasks
     << ", \"frontier_size\": " << rep.frontier.size()
     << ", \"wall_ms\": " << json_number(rep.wall_ms)
     << ", \"eval_cache\": {\"hits\": " << eh << ", \"misses\": " << em
     << "}, \"artifacts\": {\"hits\": " << ah << ", \"misses\": " << am
     << ", \"evicted\": " << store_->total_evicted()
     << "}, \"skip_pct\": " << json_number(skip_pct)
     << ", \"frontier_json\": \"" << json_escape(dse::sweep_frontier_json(rep))
     << "\", \"report_json\": \"" << json_escape(dse::sweep_report_json(rep))
     << "\"}";
  return os.str();
}

std::string Server::handle_netmap(const Request& req,
                                  const core::CancelToken* token) {
  std::map<std::string, std::string> kv = params_to_kv(req.params);
  const std::string model_text = kv_string(kv, "model");
  if (model_text.empty()) {
    throw std::invalid_argument(
        "netmap wants params.model (syndcim-model v1 JSON as a string)");
  }
  const std::string frontier_text = kv_string(kv, "frontier_json");
  netmap::Budget budget;
  budget.max_macros = kv_int(kv, "budget_macros", 8);
  budget.max_area_um2 = kv_double(kv, "budget_area_um2", 0.0);

  core::DiagEngine diag;
  const netmap::Model model =
      netmap::parse_model(model_text, diag, "params.model");
  if (diag.has_errors()) {
    throw std::invalid_argument("model: " + diag.summary() + " — " +
                                diag.diags().front().message);
  }
  std::vector<netmap::MacroCandidate> cands;
  if (!frontier_text.empty()) {
    cands = netmap::candidates_from_frontier_json(frontier_text, diag,
                                                  "params.frontier_json");
    if (diag.has_errors()) {
      throw std::invalid_argument("frontier: " + diag.summary() + " — " +
                                  diag.diags().front().message);
    }
  } else {
    const dse::SweepGrid grid = dse::grid_from_kv(std::move(kv));
    dse::SweepOptions sopt;
    sopt.threads = opt_.sweep_threads;
    // Candidates only need the frontier points themselves; the lint
    // annotations never reach the netmap report, so skip the frontier
    // lint.
    sopt.lint_frontier = false;
    sopt.shared_store = store_.get();
    sopt.cancel = token;
    const dse::SweepReport rep = dse::run_sweep(lib_, grid.expand(), sopt);
    if (rep.cancelled) throw core::CancelledError("netmap.sweep");
    cands = netmap::candidates_from_frontier(rep);
  }
  token->check("netmap.map");
  const netmap::NetmapResult res = netmap::run_netmap(model, cands, budget);
  std::ostringstream os;
  os << "{\"layers\": " << res.layers.size()
     << ", \"candidates\": " << res.candidates.size()
     << ", \"fleet_macros\": " << res.fleet_macros
     << ", \"total_time_us\": " << json_number(res.total_time_us)
     << ", \"total_energy_pj\": " << json_number(res.total_energy_pj)
     << ", \"utilization\": " << json_number(res.utilization)
     << ", \"homog_valid\": " << bool_json(res.homog.valid)
     << ", \"homog_energy_pj\": " << json_number(res.homog.energy_pj)
     << ", \"report_json\": \""
     << json_escape(netmap::netmap_report_json(res)) << "\"}";
  return os.str();
}

std::string Server::handle_lint(const Request& req) {
  const JsonValue* netlist_v =
      req.params.is_object() ? req.params.find("netlist") : nullptr;
  if (netlist_v == nullptr || !netlist_v->is_string()) {
    throw std::invalid_argument("lint wants params.netlist (Verilog source)");
  }
  std::string top, write_clock;
  if (const JsonValue* t = req.params.find("top")) top = t->as_kv_string();
  if (const JsonValue* w = req.params.find("write_clock")) {
    write_clock = w->as_kv_string();
  }

  core::DiagEngine diag;
  std::istringstream vf(netlist_v->as_string());
  const netlist::Design design = netlist::parse_verilog(vf, &diag);

  // Top inference mirrors the CLI: the unique module that is never
  // instantiated as a submodule.
  if (top.empty()) {
    const std::vector<std::string> roots = design.root_modules();
    if (roots.size() == 1) {
      top = roots.front();
    } else if (design.module_names().empty()) {
      diag.error("LINT-STRUCT", "netlist contains no modules", "<request>",
                 "lint");
    } else {
      throw std::invalid_argument(
          "cannot infer top module; pass params.top");
    }
  }

  if (!top.empty()) lint::lint_top(design, top, lib_, diag, write_clock);

  std::ostringstream os;
  os << "{\"errors\": " << diag.error_count()
     << ", \"warnings\": " << diag.warning_count()
     << ", \"clean\": " << bool_json(!diag.has_errors()) << ", \"summary\": \""
     << json_escape(diag.summary()) << "\", \"diagnostics_json\": \""
     << json_escape(diag.to_json()) << "\"}";
  return os.str();
}

std::string Server::handle_metrics() {
  obs::metrics().gauge("serve.inflight").set(
      static_cast<double>(in_flight_.load()));
  store_->publish_metrics("serve.artifact");
  std::ostringstream os;
  os << "{\"metrics_json\": \"" << json_escape(obs::metrics().to_json())
     << "\", \"artifact_store_json\": \"" << json_escape(store_->stats_json())
     << "\", \"blob_store_json\": \""
     << json_escape(disk_ != nullptr ? disk_->stats_json() : std::string())
     << "\"}";
  return os.str();
}

std::string Server::handle_status() {
  std::size_t queue_depth;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_depth = queue_.size();
  }
  std::size_t open_conns = 0;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& c : conns_) {
      if (c->open.load()) ++open_conns;
    }
  }
  const double uptime_ms =
      static_cast<double>(obs::now_ns() - start_ns_) / 1e6;
  std::uint64_t l2_hits = 0, l2_misses = 0, l2_writes = 0;
  for (const core::ArtifactTierStats& t : store_->stats()) {
    l2_hits += t.l2_hits;
    l2_misses += t.l2_misses;
    l2_writes += t.l2_writes;
  }
  std::ostringstream store_json;
  store_json << "{\"attached\": " << bool_json(disk_ != nullptr)
             << ", \"l2_hits\": " << l2_hits << ", \"l2_misses\": " << l2_misses
             << ", \"l2_writes\": " << l2_writes;
  if (disk_ != nullptr) {
    const core::DiskStoreStats ds = disk_->stats();
    store_json << ", \"root\": \"" << json_escape(disk_->root())
               << "\", \"usable\": " << bool_json(disk_->usable())
               << ", \"objects_read\": " << ds.objects_read
               << ", \"objects_written\": " << ds.objects_written
               << ", \"bytes_read\": " << ds.bytes_read
               << ", \"bytes_written\": " << ds.bytes_written;
  }
  store_json << "}";
  std::ostringstream os;
  os << "{\"proto\": \"" << kProtoName << "\", \"version\": " << kProtoVersion
     << ", \"uptime_ms\": " << json_number(uptime_ms)
     << ", \"draining\": " << bool_json(draining_.load() ||
                                        drain_requested_.load())
     << ", \"in_flight\": " << in_flight_.load()
     << ", \"queue_depth\": " << queue_depth
     << ", \"queue_capacity\": " << opt_.queue_capacity
     << ", \"connections\": " << open_conns
     << ", \"requests_total\": " << requests_total_.load()
     << ", \"workers\": " << (pool_ ? pool_->size() : 0)
     << ", \"artifact_entries\": " << store_->total_entries()
     << ", \"artifact_hits\": " << store_->total_hits()
     << ", \"artifact_misses\": " << store_->total_misses()
     << ", \"artifact_evicted\": " << store_->total_evicted()
     << ", \"eval_entries\": " << store_->slices.stats().entries
     << ", \"store\": " << store_json.str() << "}";
  return os.str();
}

void Server::send_line(const std::shared_ptr<Connection>& conn,
                       const std::string& line) {
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->fd < 0) return;
  std::string out = line;
  out.push_back('\n');
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = ::send(conn->fd, out.data() + off, out.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // peer gone; the request itself still completed
    }
    off += static_cast<std::size_t>(n);
  }
}

void Server::drain() {
  if (!started_.load()) return;
  if (drained_.exchange(true)) return;
  drain_requested_.store(true);
  draining_.store(true);

  // 1. Stop accepting: the poll loop observes draining_ within 200 ms;
  //    closing the listen fd makes a racing accept fail immediately.
  close_listener();
  if (acceptor_.joinable()) acceptor_.join();

  // 2. Finish everything admitted. A request admitted between the drain
  //    flag flip and wait_idle() is still tracked by the pool; any
  //    stragglers left in the queue are processed inline.
  pool_->wait_idle();
  while (true) {
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (queue_.empty()) break;
    }
    process_one();
  }
  pool_->wait_idle();

  // 3. Wake every reader (recv returns 0) and let it close its fd once
  //    its last response is written, then join.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& c : conns_) {
      std::lock_guard<std::mutex> wlock(c->write_mu);
      if (c->fd >= 0) ::shutdown(c->fd, SHUT_RDWR);
    }
  }
  for (const auto& c : conns_) {
    if (c->reader.joinable()) c->reader.join();
  }

  // 4. Flush every dirty artifact to the durable store — no worker runs
  //    anymore, so this is the single-threaded write-back point that
  //    makes the next daemon start warm.
  if (disk_ != nullptr) (void)store_->flush_l2();

  // 5. Flush observability artifacts — the drain path shared with the
  //    batch CLI's signal handling.
  if (!opt_.trace_path.empty()) (void)obs::tracer().save(opt_.trace_path);
  if (!opt_.metrics_path.empty()) {
    store_->publish_metrics("serve.artifact");
    (void)obs::metrics().save(opt_.metrics_path);
  }
}

int Server::serve_forever(const core::CancelToken* interrupt) {
  while (!drain_requested_.load() &&
         (interrupt == nullptr || !interrupt->cancelled())) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  drain();
  return 0;
}

}  // namespace syndcim::serve
