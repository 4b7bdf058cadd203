#pragma once
// Single-flight request batching: concurrent calls with the same key
// share one execution. The first caller (the leader) runs `fn`; callers
// that arrive while it is in flight block and receive the leader's
// result — the daemon-side answer to K tenants submitting the identical
// compile at once, which must cost exactly one evaluation.
//
// The key is erased once the leader finishes, so sequential identical
// calls each execute (the artifact store makes those warm — single-flight
// only deduplicates *overlapping* work).
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/cancel.hpp"

namespace syndcim::serve {

class SingleFlight {
 public:
  /// Runs `fn` for `key`, or waits for an in-flight execution of the same
  /// key and returns its result. `*was_leader` reports which happened.
  /// A waiting follower polls `cancel` (when given) every ~50 ms and
  /// unwinds with CancelledError on its *own* deadline — it does not
  /// inherit the leader's. A leader failure is replayed to every
  /// follower: CancelledError when the leader was cancelled, otherwise
  /// std::runtime_error carrying the leader's message.
  std::string run(const std::string& key,
                  const std::function<std::string()>& fn, bool* was_leader,
                  const core::CancelToken* cancel = nullptr) {
    std::shared_ptr<Call> call;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = calls_.find(key);
      if (it != calls_.end()) {
        call = it->second;
      } else {
        call = std::make_shared<Call>();
        calls_.emplace(key, call);
      }
    }
    if (call->leader_claimed.exchange(true)) {
      if (was_leader != nullptr) *was_leader = false;
      return wait_for(*call, cancel);
    }
    if (was_leader != nullptr) *was_leader = true;
    try {
      std::string result = fn();
      finish(key, *call, [&](Call& c) { c.result = std::move(result); });
      return call->result;
    } catch (const core::CancelledError& e) {
      finish(key, *call, [&](Call& c) {
        c.cancelled = true;
        c.error = e.what();
      });
      throw;
    } catch (const std::exception& e) {
      finish(key, *call, [&](Call& c) {
        c.failed = true;
        c.error = e.what();
      });
      throw;
    }
  }

 private:
  struct Call {
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<bool> leader_claimed{false};
    bool done = false;
    bool failed = false;
    bool cancelled = false;
    std::string result;
    std::string error;
  };

  template <typename F>
  void finish(const std::string& key, Call& call, F&& fill) {
    {
      std::lock_guard<std::mutex> lock(call.mu);
      fill(call);
      call.done = true;
    }
    call.cv.notify_all();
    std::lock_guard<std::mutex> lock(mu_);
    calls_.erase(key);
  }

  static std::string wait_for(Call& call, const core::CancelToken* cancel) {
    std::unique_lock<std::mutex> lock(call.mu);
    while (!call.done) {
      call.cv.wait_for(lock, std::chrono::milliseconds(50));
      if (!call.done && cancel != nullptr) cancel->check("singleflight.wait");
    }
    if (call.cancelled) {
      // call.error is the leader's what() — already "cancelled: "-prefixed.
      constexpr std::string_view kPrefix = "cancelled: ";
      std::string where = call.error;
      if (where.rfind(kPrefix, 0) == 0) where.erase(0, kPrefix.size());
      throw core::CancelledError(where);
    }
    if (call.failed) {
      throw std::runtime_error("coalesced request failed: " + call.error);
    }
    return call.result;
  }

  std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Call>> calls_;
};

}  // namespace syndcim::serve
