#pragma once
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/blob_store.hpp"
#include "obs/obs.hpp"

// Header-only: included from rtlgen/netlist/power/layout as well as
// core, without adding link edges between those libraries. Only
// get_or_compute's wait span reaches into syn_obs, which every library
// that instantiates it already links.

namespace syndcim::core {

/// 64-bit FNV-1a over raw bytes (artifact content keys).
[[nodiscard]] inline std::uint64_t artifact_fnv1a64(
    const void* data, std::size_t n,
    std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Incremental structural hasher for artifact keys. Doubles are hashed
/// bitwise so keys are exact (no decimal rounding); a tag byte separates
/// fields so concatenations cannot alias.
class ArtifactHasher {
 public:
  void bytes(const void* data, std::size_t n) {
    h_ = artifact_fnv1a64(data, n, h_);
    h2_ = artifact_fnv1a64(data, n, h2_ * 0x9e3779b97f4a7c15ULL + 1);
  }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void u32(std::uint32_t v) { bytes(&v, sizeof(v)); }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void i32(std::int32_t v) { bytes(&v, sizeof(v)); }
  void b(bool v) {
    const unsigned char c = v ? 1 : 0;
    bytes(&c, 1);
  }
  void dbl(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  /// 32-hex-digit digest (two independent FNV streams, so single-stream
  /// collisions cannot alias two different artifacts).
  [[nodiscard]] std::string hex() const {
    static const char* kHex = "0123456789abcdef";
    std::string out(32, '0');
    std::uint64_t a = h_, b = h2_;
    for (int i = 15; i >= 0; --i) {
      out[static_cast<std::size_t>(i)] = kHex[a & 0xf];
      out[static_cast<std::size_t>(16 + i)] = kHex[b & 0xf];
      a >>= 4;
      b >>= 4;
    }
    return out;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
  std::uint64_t h2_ = 0x84222325cbf29ce4ULL;
};

/// Hit/miss/occupancy snapshot of one artifact tier.
struct ArtifactTierStats {
  std::string name;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t entries = 0;
  /// Entries dropped by the LRU capacity bound (0 on unbounded tiers).
  std::uint64_t evicted = 0;
  /// Approximate resident bytes: sizeof(T) + key length per entry, plus
  /// the payload's deep heap footprint when a deep_bytes hook is
  /// installed (see set_deep_bytes) — with the hook, --cache-cap-bytes
  /// bounds real memory, not struct shells.
  std::size_t bytes = 0;
  // --- L2 (durable blob store) traffic, zero when no L2 is attached ---
  std::uint64_t l2_hits = 0;    ///< L1 misses served by decoding from L2
  std::uint64_t l2_misses = 0;  ///< absent from both layers
  std::uint64_t l2_writes = 0;  ///< dirty entries encoded and stored
  std::uint64_t l2_write_fails = 0;
  /// L2 payloads that decoded unsuccessfully (foreign codec version);
  /// distinct from the blob store's own corrupt-object counters.
  std::uint64_t l2_rejects = 0;
  /// get_or_compute callers that found their key being computed by
  /// another caller and waited for that result instead of recomputing.
  std::uint64_t inflight_waits = 0;
  [[nodiscard]] std::uint64_t lookups() const { return hits + misses; }
  [[nodiscard]] double hit_rate() const {
    return lookups() > 0 ? static_cast<double>(hits) / lookups() : 0.0;
  }
};

/// One content-addressed artifact tier: immutable values keyed by a
/// content key. Thread-safe; values are shared_ptr<const T> so a hit is a
/// pointer copy and entries never mutate after insertion (a prerequisite
/// for the cold-path == warm-path byte-identity guarantee). Disabling a
/// tier turns every lookup into a silent bypass — the cold reference path
/// runs the exact same code with `set_enabled(false)`.
///
/// One way in: `get_or_compute` is the only lookup. A missing key is
/// computed once, by the first caller, and concurrent callers of that
/// key wait for its result, so a tier's hits, misses and entries do not
/// depend on how callers are scheduled. A compute may look up keys of
/// other tiers, never of its own, and the tiers nest acyclically
/// (slices -> modules/activity, lints -> modules/flats, powers ->
/// act_models): a claim only ever waits on claims further down that
/// order, which is what keeps waiting deadlock-free.
///
/// Unbounded by default (the batch CLI dies before growth matters); a
/// long-running daemon calls `set_capacity` to bound the tier, after
/// which the least-recently-touched entries are evicted past either cap.
/// Eviction only drops the cache's reference — readers holding the
/// shared_ptr keep their artifact alive, so a hit can never dangle.
///
/// Layered persistence: `attach_l2` plugs a durable BlobStore underneath
/// as L2, with a per-type binary codec. Lookups read through (an L1 miss
/// decodes the L2 object and installs it clean), inserts are write-back
/// (marked dirty, encoded to L2 by `flush_l2` — the drain/end-of-run
/// flush — or when LRU eviction would otherwise lose them). A decode
/// failure counts as a miss and falls back to recomputing, so a stale or
/// foreign store degrades to cold, never to wrong.
template <typename T>
class ArtifactCache {
 public:
  using value_type = T;
  using DeepBytesFn = std::function<std::size_t(const T&)>;
  using EncodeFn = std::function<std::string(const T&)>;
  /// nullptr = malformed payload (the L2 entry is treated as a miss).
  using DecodeFn =
      std::function<std::shared_ptr<const T>(std::string_view)>;

  explicit ArtifactCache(std::string name) : name_(std::move(name)) {}

  /// Whether L1 holds `key`. Counts nothing and leaves the LRU order and
  /// L2 alone.
  [[nodiscard]] bool contains(const std::string& key) const {
    const std::lock_guard<std::mutex> lock(mu_);
    return enabled_ && map_.contains(key);
  }

  /// Returns the artifact for `key`, computing it with `fn` on a miss.
  /// The first caller of a missing key claims it; concurrent callers of
  /// the same key wait for that caller (counted in
  /// stats().inflight_waits, traced as `artifact.<tier>.wait`) and get
  /// the same pointer. If the claiming caller throws, its claim is
  /// dropped and one waiter recomputes. With an L2 attached the claimant
  /// reads through before computing. A disabled tier computes every call.
  template <typename Fn>
  std::shared_ptr<const T> get_or_compute(const std::string& key, Fn&& fn) {
    std::shared_ptr<Flight> flight;
    bool read_l2 = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (!enabled_) {
        lock.unlock();
        return std::make_shared<const T>(std::forward<Fn>(fn)());
      }
      while (true) {
        if (auto hit = hit_l1(key)) return hit;
        const auto fl = inflight_.find(key);
        if (fl == inflight_.end()) break;
        const std::shared_ptr<Flight> other = fl->second;
        ++inflight_waits_;
        {
          const obs::SpanGuard wait_span("artifact." + name_ + ".wait");
          done_cv_.wait(lock, [&] { return other->done; });
        }
        if (other->value != nullptr) {
          ++hits_;
          return other->value;
        }
        // The claimant threw: look again, and claim the key if no other
        // waiter did first.
      }
      flight = std::make_shared<Flight>();
      inflight_.emplace(key, flight);
      read_l2 = l2_ != nullptr;
      if (!read_l2) ++misses_;  // find_l2 counts its own outcome
    }
    std::shared_ptr<const T> out;
    try {
      if (read_l2) out = find_l2(key);
      if (out == nullptr) {
        auto sp = std::make_shared<const T>(std::forward<Fn>(fn)());
        const std::lock_guard<std::mutex> lock(mu_);
        out = install(key, std::move(sp), /*dirty=*/l2_ != nullptr);
      }
    } catch (...) {
      land(key, *flight, nullptr);
      throw;
    }
    land(key, *flight, out);
    return out;
  }

  void set_enabled(bool on) {
    const std::lock_guard<std::mutex> lock(mu_);
    enabled_ = on;
  }

  /// Installs the deep-payload-bytes hook used by the byte accounting
  /// (and therefore the --cache-cap-bytes LRU bound). Applies to entries
  /// inserted after the call; install before populating.
  void set_deep_bytes(DeepBytesFn fn) {
    const std::lock_guard<std::mutex> lock(mu_);
    deep_bytes_ = std::move(fn);
  }

  /// Attaches the durable L2 under this tier. `store` must outlive the
  /// cache (or a detach_l2 call); the codec pair must round-trip values
  /// bit-exactly. Not owned.
  void attach_l2(BlobStore* store, EncodeFn encode, DecodeFn decode) {
    const std::lock_guard<std::mutex> lock(mu_);
    l2_ = store;
    l2_encode_ = std::move(encode);
    l2_decode_ = std::move(decode);
  }
  void detach_l2() {
    const std::lock_guard<std::mutex> lock(mu_);
    l2_ = nullptr;
    l2_encode_ = nullptr;
    l2_decode_ = nullptr;
  }

  /// Write-back flush: encodes every dirty entry into L2 and marks it
  /// clean. Returns the number of entries written. Encoding runs off-lock
  /// from a snapshot (entries are immutable), so lookups keep flowing
  /// while a drain flushes.
  std::size_t flush_l2() {
    std::vector<std::pair<std::string, std::shared_ptr<const T>>> dirty;
    BlobStore* l2 = nullptr;
    EncodeFn encode;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (l2_ == nullptr) return 0;
      l2 = l2_;
      encode = l2_encode_;
      for (auto& [key, slot] : map_) {
        if (slot.dirty) dirty.emplace_back(key, slot.value);
      }
    }
    std::size_t written = 0;
    for (auto& [key, value] : dirty) {
      const bool ok = l2->put(name_, key, encode(*value));
      const std::lock_guard<std::mutex> lock(mu_);
      if (ok) {
        ++l2_writes_;
        ++written;
        const auto it = map_.find(key);
        if (it != map_.end()) it->second.dirty = false;
      } else {
        ++l2_write_fails_;
      }
    }
    return written;
  }

  /// Bounds the tier: at most `max_entries` entries / `max_bytes`
  /// approximate bytes (0 = unlimited for either knob). Applies
  /// immediately — a shrinking cap evicts the LRU tail on the spot.
  void set_capacity(std::size_t max_entries, std::size_t max_bytes = 0) {
    const std::lock_guard<std::mutex> lock(mu_);
    max_entries_ = max_entries;
    max_bytes_ = max_bytes;
    evict_over_capacity();
  }

  [[nodiscard]] ArtifactTierStats stats() const {
    const std::lock_guard<std::mutex> lock(mu_);
    ArtifactTierStats s;
    s.name = name_;
    s.hits = hits_;
    s.misses = misses_;
    s.entries = map_.size();
    s.evicted = evicted_;
    s.bytes = bytes_;
    s.l2_hits = l2_hits_;
    s.l2_misses = l2_misses_;
    s.l2_writes = l2_writes_;
    s.l2_write_fails = l2_write_fails_;
    s.l2_rejects = l2_rejects_;
    s.inflight_waits = inflight_waits_;
    return s;
  }

  void clear() {
    const std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
    lru_.clear();
    hits_ = misses_ = evicted_ = inflight_waits_ = 0;
    l2_hits_ = l2_misses_ = l2_writes_ = l2_write_fails_ = l2_rejects_ = 0;
    bytes_ = 0;
  }

 private:
  struct Slot {
    std::shared_ptr<const T> value;
    std::list<std::string>::iterator lru;
    std::size_t bytes = 0;  ///< this entry's accounted footprint
    bool dirty = false;     ///< inserted since the last L2 flush
  };

  /// L1 lookup under mu_: a hit is counted and moved to the LRU front.
  std::shared_ptr<const T> hit_l1(const std::string& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return it->second.value;
  }

  /// One claimed get_or_compute key; guarded by mu_.
  struct Flight {
    bool done = false;
    std::shared_ptr<const T> value;  ///< nullptr when the claimant threw
  };

  /// Releases a claimed key and wakes its waiters.
  void land(const std::string& key, Flight& flight,
            std::shared_ptr<const T> value) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      inflight_.erase(key);
      flight.value = std::move(value);
      flight.done = true;
    }
    done_cv_.notify_all();
  }

  /// Per-entry footprint: the payload shell plus the key stored twice
  /// (map node and LRU list node), plus the deep payload bytes when the
  /// hook is installed.
  std::size_t entry_bytes(const std::string& key, const T& value) const {
    std::size_t n = sizeof(T) + sizeof(Slot) + 2 * key.size();
    if (deep_bytes_) n += deep_bytes_(value);
    return n;
  }

  /// Inserts a claimed key under mu_ (first writer wins); shared by the
  /// compute and the L2 read-through install.
  std::shared_ptr<const T> install(const std::string& key,
                                   std::shared_ptr<const T> sp, bool dirty) {
    const auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      return it->second.value;
    }
    lru_.push_front(key);
    Slot slot{std::move(sp), lru_.begin(), 0, dirty};
    slot.bytes = entry_bytes(key, *slot.value);
    bytes_ += slot.bytes;
    auto out = slot.value;
    map_.emplace(key, std::move(slot));
    evict_over_capacity();
    return out;
  }

  std::shared_ptr<const T> find_l2(const std::string& key) {
    const auto payload = l2_->get(name_, key);
    if (!payload.has_value()) {
      const std::lock_guard<std::mutex> lock(mu_);
      ++misses_;
      ++l2_misses_;
      return nullptr;
    }
    std::shared_ptr<const T> sp = l2_decode_(*payload);
    if (sp == nullptr) {
      const std::lock_guard<std::mutex> lock(mu_);
      ++misses_;
      ++l2_misses_;
      ++l2_rejects_;
      return nullptr;
    }
    const std::lock_guard<std::mutex> lock(mu_);
    ++hits_;
    ++l2_hits_;
    // Clean install: the object is already durable, a flush must not
    // rewrite it.
    return install(key, std::move(sp), /*dirty=*/false);
  }

  /// Drops LRU-tail entries until both caps hold. Caller holds mu_. A
  /// dirty victim is flushed to L2 first — write-back eviction — so a
  /// bounded daemon never silently loses an unfetched artifact.
  void evict_over_capacity() {
    while (!lru_.empty() &&
           ((max_entries_ > 0 && map_.size() > max_entries_) ||
            (max_bytes_ > 0 && bytes_ > max_bytes_ && map_.size() > 1))) {
      const std::string& victim = lru_.back();
      const auto it = map_.find(victim);
      if (it->second.dirty && l2_ != nullptr) {
        if (l2_->put(name_, victim, l2_encode_(*it->second.value))) {
          ++l2_writes_;
        } else {
          ++l2_write_fails_;
        }
      }
      bytes_ -= it->second.bytes;
      map_.erase(it);
      lru_.pop_back();
      ++evicted_;
    }
  }

  mutable std::mutex mu_;
  std::string name_;
  bool enabled_ = true;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evicted_ = 0;
  std::uint64_t l2_hits_ = 0;
  std::uint64_t l2_misses_ = 0;
  std::uint64_t l2_writes_ = 0;
  std::uint64_t l2_write_fails_ = 0;
  std::uint64_t l2_rejects_ = 0;
  std::uint64_t inflight_waits_ = 0;
  std::size_t bytes_ = 0;
  std::size_t max_entries_ = 0;  ///< 0 = unlimited
  std::size_t max_bytes_ = 0;    ///< 0 = unlimited
  DeepBytesFn deep_bytes_;
  BlobStore* l2_ = nullptr;  ///< not owned; see attach_l2
  EncodeFn l2_encode_;
  DecodeFn l2_decode_;
  std::unordered_map<std::string, Slot> map_;
  std::list<std::string> lru_;  ///< front = most recently touched
  /// Keys claimed by a computing get_or_compute caller.
  std::unordered_map<std::string, std::shared_ptr<Flight>> inflight_;
  std::condition_variable done_cv_;  ///< a Flight landed
};

}  // namespace syndcim::core
