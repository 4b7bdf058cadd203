#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

namespace syndcim::serve {

using json::JsonValue;
using json::json_escape;
using json::json_number;
using json::json_parse;

namespace {

/// One request line (no trailing newline) — shared by both clients.
std::string build_request(int id, const std::string& method,
                          const std::map<std::string, std::string>& params,
                          const std::string& extra_key,
                          const std::string& extra_string_value,
                          double deadline_ms) {
  std::ostringstream os;
  os << "{\"id\": \"" << id << "\", \"method\": \"" << json_escape(method)
     << "\"";
  if (deadline_ms > 0) {
    os << ", \"deadline_ms\": " << json_number(deadline_ms);
  }
  os << ", \"params\": {";
  bool first = true;
  for (const auto& [k, v] : params) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << json_escape(k) << "\": \"" << json_escape(v) << "\"";
  }
  if (!extra_key.empty()) {
    if (!first) os << ", ";
    os << "\"" << json_escape(extra_key) << "\": \""
       << json_escape(extra_string_value) << "\"";
  }
  os << "}}";
  return os.str();
}

/// Blocking connect of a fresh TCP socket; -1 with `err` set on failure.
int connect_fd(const std::string& host, int port, std::string* err) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (err != nullptr) *err = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (err != nullptr) *err = "bad host address: " + host;
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (err != nullptr) {
      *err = "connect " + host + ":" + std::to_string(port) + ": " +
             std::strerror(errno);
    }
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all_fd(int fd, const std::string& data, std::string* err) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (err != nullptr) *err = std::string("send: ") + std::strerror(errno);
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

bool parse_response(const std::string& line, ClientResponse* out,
                    std::string* err) {
  JsonValue v;
  if (!json_parse(line, &v, err)) return false;
  if (!v.is_object()) {
    if (err != nullptr) *err = "response is not a JSON object";
    return false;
  }
  const JsonValue* proto = v.find("proto");
  const JsonValue* version = v.find("version");
  if (proto == nullptr || proto->as_string() != kProtoName ||
      version == nullptr ||
      static_cast<int>(version->as_number()) != kProtoVersion) {
    if (err != nullptr) *err = "not a syndcim-serve v1 response";
    return false;
  }
  ClientResponse resp;
  resp.raw = line;
  if (const JsonValue* id = v.find("id")) resp.id = id->as_kv_string();
  const JsonValue* status = v.find("status");
  if (status == nullptr || !status->is_string()) {
    if (err != nullptr) *err = "response has no 'status'";
    return false;
  }
  if (status->as_string() == "ok") {
    resp.ok = true;
    if (const JsonValue* result = v.find("result")) resp.result = *result;
  } else {
    resp.ok = false;
    if (const JsonValue* e = v.find("error")) {
      if (const JsonValue* code = e->find("code")) {
        resp.code = static_cast<int>(code->as_number());
      }
      if (const JsonValue* reason = e->find("reason")) {
        resp.reason = reason->as_string();
      }
    }
  }
  *out = std::move(resp);
  return true;
}

bool Client::connect(const std::string& host, int port, std::string* err) {
  close();
  fd_ = connect_fd(host, port, err);
  return fd_ >= 0;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buf_.clear();
}

bool Client::send_all(const std::string& data, std::string* err) {
  return send_all_fd(fd_, data, err);
}

bool Client::read_line(std::string* line, std::string* err) {
  char chunk[4096];
  while (true) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      *line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      if (!line->empty() && line->back() == '\r') line->pop_back();
      return true;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buf_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (err != nullptr) {
      *err = n == 0 ? "connection closed by daemon"
                    : std::string("recv: ") + std::strerror(errno);
    }
    return false;
  }
}

bool Client::call_raw(const std::string& request_line, ClientResponse* out,
                      std::string* err) {
  if (fd_ < 0) {
    if (err != nullptr) *err = "not connected";
    return false;
  }
  if (!send_all(request_line + "\n", err)) return false;
  std::string line;
  if (!read_line(&line, err)) return false;
  return parse_response(line, out, err);
}

bool Client::call(const std::string& method,
                  const std::map<std::string, std::string>& params,
                  double deadline_ms, ClientResponse* out, std::string* err) {
  return call_extra(method, params, std::string(), std::string(), deadline_ms,
                    out, err);
}

bool Client::call_extra(const std::string& method,
                        const std::map<std::string, std::string>& params,
                        const std::string& extra_key,
                        const std::string& extra_string_value,
                        double deadline_ms, ClientResponse* out,
                        std::string* err) {
  return call_raw(build_request(next_id_++, method, params, extra_key,
                                extra_string_value, deadline_ms),
                  out, err);
}

MultiplexClient::~MultiplexClient() { close(); }

bool MultiplexClient::connect(const std::string& host, int port,
                              std::string* err) {
  close();
  fd_ = connect_fd(host, port, err);
  if (fd_ < 0) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dead_ = false;
    dead_reason_.clear();
    done_.clear();
  }
  reader_ = std::thread([this] { reader_loop(); });
  return true;
}

void MultiplexClient::close() {
  if (fd_ >= 0) {
    // Wake the reader (recv returns 0/err), then join before the fd goes
    // away under it.
    ::shutdown(fd_, SHUT_RDWR);
  }
  if (reader_.joinable()) reader_.join();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void MultiplexClient::reader_loop() {
  std::string buf;
  char chunk[4096];
  std::string reason = "connection closed by daemon";
  while (true) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buf.append(chunk, static_cast<std::size_t>(n));
      std::size_t nl;
      while ((nl = buf.find('\n')) != std::string::npos) {
        std::string line = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.empty()) continue;
        ClientResponse resp;
        std::string perr;
        if (!parse_response(line, &resp, &perr)) continue;  // not protocol
        std::lock_guard<std::mutex> lock(mu_);
        done_[resp.id].push_back(std::move(resp));
        cv_.notify_all();
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) reason = std::string("recv: ") + std::strerror(errno);
    break;
  }
  std::lock_guard<std::mutex> lock(mu_);
  dead_ = true;
  dead_reason_ = reason;
  cv_.notify_all();
}

std::string MultiplexClient::send(
    const std::string& method,
    const std::map<std::string, std::string>& params,
    const std::string& extra_key, const std::string& extra_string_value,
    double deadline_ms, std::string* err) {
  std::lock_guard<std::mutex> lock(send_mu_);
  if (fd_ < 0) {
    if (err != nullptr) *err = "not connected";
    return "";
  }
  const int id = next_id_++;
  const std::string line = build_request(id, method, params, extra_key,
                                         extra_string_value, deadline_ms);
  if (!send_all_fd(fd_, line + "\n", err)) return "";
  return std::to_string(id);
}

bool MultiplexClient::wait(const std::string& id, ClientResponse* out,
                           std::string* err) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] {
    const auto it = done_.find(id);
    return (it != done_.end() && !it->second.empty()) || dead_;
  });
  const auto it = done_.find(id);
  if (it != done_.end() && !it->second.empty()) {
    *out = std::move(it->second.front());
    it->second.pop_front();
    if (it->second.empty()) done_.erase(it);
    return true;
  }
  if (err != nullptr) *err = dead_reason_;
  return false;
}

}  // namespace syndcim::serve
