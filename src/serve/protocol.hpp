#pragma once
// "syndcim-serve" v1 wire protocol: newline-delimited JSON over a byte
// stream. One request per line, one response line per request, responses
// may arrive out of order relative to other requests on the same
// connection (match on `id`). See DESIGN.md for the full specification.
//
// Request line:
//   {"id": <string|number>, "method": "compile"|"sweep"|"netmap"|"lint"|
//    "metrics"|"status"|"shutdown", "deadline_ms": <number, optional>,
//    "params": {<string|number values>, optional}}
//
// `netmap` maps a layer-graph model onto a macro fleet: params.model is
// the "syndcim-model" v1 JSON document as a string, params.frontier_json
// optionally a persisted sweep frontier (otherwise the remaining params
// form an inline sweep grid exactly like `sweep`), plus budget_macros /
// budget_area_um2. The result's report_json member is byte-identical to
// the batch `syndcim netmap --json` output for the same inputs.
//
// Response line:
//   {"proto": "syndcim-serve", "version": 1, "id": "<echoed>",
//    "status": "ok", "result": {...}}
//   {"proto": "syndcim-serve", "version": 1, "id": "<echoed>",
//    "status": "error", "error": {"code": <int>, "reason": "..."}}
#include <map>
#include <stdexcept>
#include <string>

#include "serve/json.hpp"

namespace syndcim::serve {

/// Thrown by the dispatcher for a well-formed request naming a method
/// that is not part of protocol v1 (mapped to a 404 response — distinct
/// from 400, which means the line itself was malformed).
class NotFoundError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr const char* kProtoName = "syndcim-serve";
inline constexpr int kProtoVersion = 1;

/// HTTP-flavoured error codes (the protocol is not HTTP; the numbers
/// reuse the well-known meanings so clients need no new vocabulary).
inline constexpr int kErrBadRequest = 400;  ///< malformed line / params
inline constexpr int kErrNotFound = 404;    ///< unknown method
inline constexpr int kErrDeadline = 408;    ///< deadline exceeded
inline constexpr int kErrLineTooLong = 413;  ///< request line over the cap
inline constexpr int kErrOverloaded = 429;  ///< admission-control reject
inline constexpr int kErrInternal = 500;    ///< handler threw
inline constexpr int kErrDraining = 503;    ///< daemon is shutting down

/// One parsed request line.
struct Request {
  std::string id;          ///< echoed verbatim in the response ("" ok)
  std::string method;
  double deadline_ms = 0;  ///< <= 0: server default (which may be none)
  JsonValue params;        ///< object; kNull when the line had none
};

/// Parses one request line. On failure returns false with a reason in
/// `err` (the server answers those with a 400 carrying the reason).
[[nodiscard]] bool parse_request(const std::string& line, Request* out,
                                 std::string* err);

/// Flattens `params` members into string key/values (numbers and bools
/// are rendered — `"rows": 64` and `"rows": "64"` are equivalent on the
/// wire). Throws std::invalid_argument on nested arrays/objects.
[[nodiscard]] std::map<std::string, std::string> params_to_kv(
    const JsonValue& params);

/// `result_json` is spliced verbatim as the `result` member — it must be
/// one self-contained single-line JSON value.
[[nodiscard]] std::string ok_response(const std::string& id,
                                      const std::string& result_json);
[[nodiscard]] std::string error_response(const std::string& id, int code,
                                         const std::string& reason);

}  // namespace syndcim::serve
