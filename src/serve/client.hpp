#pragma once
// syndcim-serve clients. `Client` is the blocking one-request-at-a-time
// connection; `MultiplexClient` keeps many requests in flight on a
// single connection, matching responses to pending requests by the
// protocol's `id` field on a dedicated reader thread — responses may
// arrive in any order relative to the sends (the daemon's workers finish
// whenever they finish).
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "json/json.hpp"
#include "serve/protocol.hpp"

namespace syndcim::serve {

/// One parsed response line.
struct ClientResponse {
  bool ok = false;
  int code = 0;            ///< error code when !ok (400/404/408/429/500/503)
  std::string reason;      ///< error reason when !ok
  std::string id;          ///< echoed request id
  json::JsonValue result;  ///< `result` object when ok
  std::string raw;         ///< the full response line, verbatim
};

class Client {
 public:
  Client() = default;
  ~Client() { close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] bool connect(const std::string& host, int port,
                             std::string* err);
  void close();
  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// Sends one request and blocks for its response line. `params` values
  /// are sent as JSON strings; `deadline_ms` <= 0 omits the field. False
  /// only on transport/parse failure (an error *response* returns true
  /// with out->ok == false).
  [[nodiscard]] bool call(const std::string& method,
                          const std::map<std::string, std::string>& params,
                          double deadline_ms, ClientResponse* out,
                          std::string* err);

  /// Like call(), with one raw JSON value spliced in as an extra param —
  /// how the lint tool ships a Verilog source string.
  [[nodiscard]] bool call_extra(
      const std::string& method,
      const std::map<std::string, std::string>& params,
      const std::string& extra_key, const std::string& extra_string_value,
      double deadline_ms, ClientResponse* out, std::string* err);

  /// Sends a fully-formed request line (no trailing newline) verbatim.
  [[nodiscard]] bool call_raw(const std::string& request_line,
                              ClientResponse* out, std::string* err);

 private:
  [[nodiscard]] bool send_all(const std::string& data, std::string* err);
  [[nodiscard]] bool read_line(std::string* line, std::string* err);

  int fd_ = -1;
  int next_id_ = 1;
  std::string buf_;
};

/// Parses one response line into a ClientResponse (shared with tests).
[[nodiscard]] bool parse_response(const std::string& line, ClientResponse* out,
                                  std::string* err);

/// One connection, many requests in flight. send() returns immediately
/// with the assigned request id; a reader thread files every response
/// line under its echoed id, and wait() blocks until the one you ask for
/// has arrived. Thread-safe: any thread may send() or wait() — pipeline
/// depth is bounded only by the daemon's admission control. Responses
/// with an empty id (pre-parse 400s) are filed under "".
class MultiplexClient {
 public:
  MultiplexClient() = default;
  ~MultiplexClient();
  MultiplexClient(const MultiplexClient&) = delete;
  MultiplexClient& operator=(const MultiplexClient&) = delete;

  [[nodiscard]] bool connect(const std::string& host, int port,
                             std::string* err);
  void close();
  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// Fires one request without waiting and returns its id ("" on
  /// transport failure, with `err` set). `extra_key`, when non-empty,
  /// ships one more string param (how model/frontier documents travel).
  [[nodiscard]] std::string send(
      const std::string& method,
      const std::map<std::string, std::string>& params,
      const std::string& extra_key = "",
      const std::string& extra_string_value = "", double deadline_ms = 0,
      std::string* err = nullptr);

  /// Blocks until the response for `id` arrives. False when the
  /// connection died first (reason in `err`).
  [[nodiscard]] bool wait(const std::string& id, ClientResponse* out,
                          std::string* err);

 private:
  void reader_loop();

  int fd_ = -1;
  int next_id_ = 1;  ///< guarded by send_mu_
  std::mutex send_mu_;
  std::mutex mu_;  ///< guards done_, dead_, dead_reason_
  std::condition_variable cv_;
  std::map<std::string, std::deque<ClientResponse>> done_;
  bool dead_ = false;
  std::string dead_reason_;
  std::thread reader_;
};

}  // namespace syndcim::serve
