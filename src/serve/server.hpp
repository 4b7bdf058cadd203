#pragma once
// syndcim serve: a persistent compiler-as-a-service daemon. One process
// holds one ArtifactStore; every request — from any connection, i.e. any
// tenant — characterizes through it, so tenant B's compile warm-hits the
// slice characterizations and subcircuit artifacts tenant A's sweep
// produced seconds earlier.
//
// Threading model:
//   - one acceptor thread (poll + accept on the listen socket),
//   - one reader thread per connection (parses NDJSON lines, performs
//     admission control inline: 503 while draining, 429 when the bounded
//     request queue is full; a line longer than kMaxRequestLineBytes gets
//     a 413 and closes the connection),
//   - a WorkStealingPool of request workers that pop the queue, run the
//     handler under a per-request CancelToken (deadline armed at
//     admission, so time spent queued counts), and write the response
//     under the connection's write mutex.
//
// Graceful drain: stop accepting, answer new requests with 503, finish
// everything in flight, flush trace/metrics artifacts, close connections.
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cell/library.hpp"
#include "core/cancel.hpp"
#include "core/diskstore.hpp"
#include "core/stage.hpp"
#include "dse/pool.hpp"
#include "serve/protocol.hpp"
#include "serve/singleflight.hpp"

namespace syndcim::serve {

/// Longest request line a reader accepts (16 MiB, far above the largest
/// inline netlist a client sends). A longer line — or a client that
/// never sends a newline — is answered with kErrLineTooLong and the
/// connection is closed, so one client cannot grow daemon memory
/// without bound.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{16} << 20;

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;             ///< 0: ephemeral (read back via Server::port())
  int workers = 2;          ///< request worker threads (clamped to >= 1)
  int queue_capacity = 32;  ///< admitted-but-unfinished request cap
  /// Threads each in-request sweep runs on (<= 0: hardware concurrency);
  /// no request param changes it. Kept small by default so concurrent
  /// tenants share the machine.
  int sweep_threads = 2;
  int max_connections = 64;
  /// Per-tier artifact store bounds (0 = unlimited); see
  /// ArtifactStore::set_capacity.
  std::size_t artifact_max_entries = 0;
  std::size_t artifact_max_bytes = 0;
  /// Default request deadline when the request carries none (0 = none).
  double default_deadline_ms = 0;
  std::string trace_path;    ///< Chrome trace JSON flushed on drain
  std::string metrics_path;  ///< metrics registry JSON flushed on drain
  /// Durable artifact store directory (core::DiskBlobStore). When set,
  /// the process-wide ArtifactStore reads through and writes back to it:
  /// a restarted daemon answers its first repeated request from L2
  /// instead of recomputing. Drain flushes every dirty artifact before
  /// exit. Empty = in-memory only (restarts are cold).
  std::string store_dir;
};

class Server {
 public:
  Server(const cell::Library& lib, ServerOptions opt);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the acceptor + worker pool. False (with a
  /// reason) when the socket setup fails.
  [[nodiscard]] bool start(std::string* err);

  /// The bound port (after start(); resolves port 0 to the actual one).
  [[nodiscard]] int port() const { return port_; }

  /// Asks the serve loop to drain (used by the `shutdown` method and by
  /// signal handlers via serve_forever's polling). Safe from any thread;
  /// does not block.
  void request_drain() { drain_requested_.store(true); }
  [[nodiscard]] bool drain_requested() const {
    return drain_requested_.load();
  }
  [[nodiscard]] bool draining() const { return draining_.load(); }

  /// Graceful shutdown: stop accepting, fail new requests with 503,
  /// finish in-flight work, flush observability artifacts, close every
  /// connection and join all threads. Idempotent. Must not be called
  /// from a request worker (it waits for the pool to go idle).
  void drain();

  /// Runs until request_drain() or `interrupt` trips, then drains.
  /// Returns 0.
  int serve_forever(const core::CancelToken* interrupt = nullptr);

  /// The process-wide artifact store (test/introspection hook).
  [[nodiscard]] core::ArtifactStore& store() { return *store_; }
  /// The durable L2 blob store, or nullptr when no store_dir was given
  /// (test/introspection hook).
  [[nodiscard]] core::DiskBlobStore* blob_store() { return disk_.get(); }
  /// Connections still tracked: open ones, plus closed ones the acceptor
  /// has not reaped yet (test/introspection hook).
  [[nodiscard]] std::size_t tracked_connections();

 private:
  struct Connection {
    int fd = -1;  ///< closed (and set to -1) under write_mu
    std::uint64_t id = 0;
    std::mutex write_mu;
    std::atomic<bool> open{true};
    /// Requests admitted from this connection whose response is not yet
    /// written; the reader defers close() until it reaches zero.
    std::atomic<int> pending{0};
    /// Set by the reader as its last action; the acceptor then joins it.
    std::atomic<bool> finished{false};
    std::thread reader;
  };

  struct Pending {
    std::shared_ptr<Connection> conn;
    Request req;
    std::shared_ptr<core::CancelToken> token;
  };

  void acceptor_loop();
  void reader_loop(const std::shared_ptr<Connection>& conn);
  /// Admission control + enqueue; answers 429/503 inline on the reader.
  void admit(const std::shared_ptr<Connection>& conn, Request req);
  void process_one();
  /// Method dispatch; returns the single-line `result` JSON payload.
  /// Throws CancelledError (-> 408), std::invalid_argument (-> 400) or
  /// anything else (-> 500).
  std::string dispatch(const Request& req,
                       const std::shared_ptr<core::CancelToken>& token);

  std::string handle_compile(const Request& req,
                             const core::CancelToken* token);
  std::string handle_sweep(const Request& req, const core::CancelToken* token);
  std::string handle_netmap(const Request& req,
                            const core::CancelToken* token);
  std::string handle_lint(const Request& req);
  std::string handle_metrics();
  std::string handle_status();

  void send_line(const std::shared_ptr<Connection>& conn,
                 const std::string& line);
  void close_listener();

  const cell::Library& lib_;
  ServerOptions opt_;
  std::shared_ptr<core::ArtifactStore> store_;
  std::unique_ptr<core::DiskBlobStore> disk_;
  SingleFlight flight_;
  std::unique_ptr<dse::WorkStealingPool> pool_;

  /// Bounded request queue: try_push fails when full (-> 429).
  std::mutex queue_mu_;
  std::deque<Pending> queue_;

  /// Atomic: drain() closes-and-resets it while the acceptor reads it.
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::thread acceptor_;
  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::uint64_t next_conn_id_ = 1;  ///< guarded by conns_mu_

  std::atomic<bool> started_{false};
  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> drained_{false};
  std::atomic<std::uint64_t> in_flight_{0};
  std::atomic<std::uint64_t> requests_total_{0};
  std::uint64_t start_ns_ = 0;
};

}  // namespace syndcim::serve
