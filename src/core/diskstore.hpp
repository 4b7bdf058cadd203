#pragma once
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/blob_store.hpp"
#include "core/diag.hpp"

namespace syndcim::core {

/// Cumulative traffic counters of one DiskBlobStore (monotone since
/// open; a restarted process starts from zero even on a warm dir).
struct DiskStoreStats {
  std::uint64_t objects_read = 0;
  std::uint64_t objects_written = 0;
  std::uint64_t bytes_read = 0;     ///< verified payload bytes served
  std::uint64_t bytes_written = 0;  ///< payload bytes durably stored
  std::uint64_t read_misses = 0;    ///< object file absent
  std::uint64_t corrupt = 0;        ///< checksum / header mismatch
  std::uint64_t truncated = 0;      ///< file shorter than its header says
  std::uint64_t write_fails = 0;
};

/// Crash-safe on-disk content-addressed blob store — the durable L2
/// under the in-memory artifact tiers, and the shared cache of
/// multi-process sharded sweeps.
///
/// Layout: `root/objects/<tier>/<2-hex-prefix>/<digest>` where `digest`
/// is the 32-hex ArtifactHasher digest of (tier, key). Artifact keys
/// carry `|` and interior hex runs, so the digest — not the key — names
/// the file; the full key is stored in the object header and verified on
/// read, which also demotes a digest collision to a plain miss.
///
/// Each object is self-verifying:
///   magic "SYA1" · format version u32 · tier str · key str ·
///   payload len u64 · FNV-1a64 payload checksum · payload bytes
/// Writes go to `root/tmp/<pid>-<seq>` and are published with rename(),
/// which is atomic on POSIX — readers (same process or another sweep
/// shard) see either nothing or a complete object, never a torn write.
/// A crash mid-write leaves only a dead tmp file, swept on next open.
///
/// Corrupt, truncated, or foreign objects are skipped as misses and
/// reported as CACHE-TRUNC / CACHE-CORRUPT diagnostics. DiagEngine is not
/// thread-safe, so findings are buffered internally under the store's
/// mutex and handed over via drain_diags().
class DiskBlobStore final : public BlobStore {
 public:
  /// Opens (creating if needed) a store rooted at `root`. Never throws:
  /// an unusable root degrades every get to a miss and every put to a
  /// counted failure, reported through drain_diags().
  explicit DiskBlobStore(std::string root);

  [[nodiscard]] std::optional<std::string> get(const std::string& tier,
                                               const std::string& key) override;
  bool put(const std::string& tier, const std::string& key,
           std::string_view payload) override;

  [[nodiscard]] const std::string& root() const { return root_; }
  /// False when the root could not be created/used; the store still
  /// answers calls (as misses/failures).
  [[nodiscard]] bool usable() const;

  [[nodiscard]] DiskStoreStats stats() const;
  /// {"root": ..., "objects_read": N, ...} for status/metrics endpoints.
  [[nodiscard]] std::string stats_json() const;

  /// Moves buffered CACHE-* findings into `diag` (oldest first) and
  /// clears the buffer. Call from a single-threaded section.
  void drain_diags(DiagEngine& diag);
  /// Number of findings currently buffered.
  [[nodiscard]] std::size_t pending_diags() const;

  /// Filesystem path an object for (tier, key) would live at (exists or
  /// not) — exposed for tests and tooling.
  [[nodiscard]] std::string object_path(const std::string& tier,
                                        const std::string& key) const;

  /// Walks objects/ and returns (object count, total object file bytes —
  /// headers included) of what is durably on disk right now. O(objects);
  /// meant for status endpoints and store-stats dumps, not hot paths.
  struct DiskUsage {
    std::uint64_t objects = 0;
    std::uint64_t file_bytes = 0;
  };
  [[nodiscard]] DiskUsage disk_usage() const;

 private:
  void note(Severity sev, std::string rule, std::string message,
            std::string object);
  bool write_object(const std::string& tier, const std::string& key,
                    const std::string& path, std::string_view payload);

  std::string root_;
  bool usable_ = false;
  mutable std::mutex mu_;
  std::uint64_t tmp_seq_ = 0;
  DiskStoreStats stats_;
  std::vector<Diagnostic> diags_;
};

}  // namespace syndcim::core
