#include "core/diskstore.hpp"

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "core/artifact_cache.hpp"
#include "core/binio.hpp"
#include "json/json.hpp"

namespace syndcim::core {
namespace fs = std::filesystem;

namespace {

constexpr char kMagic[4] = {'S', 'Y', 'A', '1'};
constexpr std::uint32_t kFormatVersion = 1;

/// Digest naming the object file for (tier, key). Keys carry '|' and
/// arbitrary hex, so they never appear in paths directly.
std::string object_digest(const std::string& tier, const std::string& key) {
  ArtifactHasher h;
  h.str(tier);
  h.str(key);
  return h.hex();
}

/// True when tmp file `name` (`<pid>-<seq>`) names a running process, whose
/// writer may still rename it into place.
bool writer_alive(const std::string& name) {
  const char* const end = name.data() + name.size();
  pid_t pid = 0;
  const auto [rest, err] = std::from_chars(name.data(), end, pid);
  if (err != std::errc() || rest == end || *rest != '-' || pid <= 0) {
    return false;
  }
  return ::kill(pid, 0) == 0 || errno == EPERM;
}

std::string read_file(const std::string& path, bool& found) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    found = false;
    return {};
  }
  found = true;
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return data;
}

}  // namespace

DiskBlobStore::DiskBlobStore(std::string root) : root_(std::move(root)) {
  std::error_code ec;
  fs::create_directories(fs::path(root_) / "objects", ec);
  if (!ec) fs::create_directories(fs::path(root_) / "tmp", ec);
  usable_ = !ec;
  if (!usable_) {
    note(Severity::kWarning, "CACHE-OPENFAIL",
         "cannot create artifact store directories: " + ec.message(), root_);
    return;
  }
  // Sweep tmp files left by a crashed writer. Every writer embeds its pid
  // in the name, so a file whose pid is running may belong to a write in
  // flight in this or another process, and stays for its rename.
  for (const auto& entry : fs::directory_iterator(fs::path(root_) / "tmp", ec)) {
    if (!writer_alive(entry.path().filename().string())) {
      fs::remove(entry.path(), ec);
    }
  }
}

bool DiskBlobStore::usable() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return usable_;
}

std::string DiskBlobStore::object_path(const std::string& tier,
                                       const std::string& key) const {
  const std::string digest = object_digest(tier, key);
  return (fs::path(root_) / "objects" / tier / digest.substr(0, 2) / digest)
      .string();
}

std::optional<std::string> DiskBlobStore::get(const std::string& tier,
                                              const std::string& key) {
  const std::string path = object_path(tier, key);
  bool found = false;
  const std::string raw = read_file(path, found);
  if (!found) {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.read_misses;
    return std::nullopt;
  }
  try {
    BinReader r(raw);
    char magic[4];
    for (char& c : magic) c = static_cast<char>(r.u8());
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
      note(Severity::kWarning, "CACHE-CORRUPT",
           "bad magic in artifact object, skipping", path);
      const std::lock_guard<std::mutex> lock(mu_);
      ++stats_.corrupt;
      return std::nullopt;
    }
    if (const std::uint32_t ver = r.u32(); ver != kFormatVersion) {
      // A foreign (newer) format is not corruption — just unusable here.
      const std::lock_guard<std::mutex> lock(mu_);
      ++stats_.read_misses;
      return std::nullopt;
    }
    const std::string obj_tier = r.str();
    const std::string obj_key = r.str();
    if (obj_tier != tier || obj_key != key) {
      // Digest collision or a misfiled object: treat as a miss, the
      // caller recomputes and may overwrite the slot.
      const std::lock_guard<std::mutex> lock(mu_);
      ++stats_.read_misses;
      return std::nullopt;
    }
    const std::uint64_t payload_len = r.u64();
    const std::uint64_t checksum = r.u64();
    if (payload_len != r.remaining()) {
      note(Severity::kWarning, "CACHE-TRUNC",
           "artifact object shorter than its header claims, skipping", path);
      const std::lock_guard<std::mutex> lock(mu_);
      ++stats_.truncated;
      return std::nullopt;
    }
    std::string payload(raw.substr(raw.size() - payload_len));
    if (artifact_fnv1a64(payload.data(), payload.size()) != checksum) {
      note(Severity::kWarning, "CACHE-CORRUPT",
           "artifact payload checksum mismatch, skipping", path);
      const std::lock_guard<std::mutex> lock(mu_);
      ++stats_.corrupt;
      return std::nullopt;
    }
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.objects_read;
    stats_.bytes_read += payload.size();
    return payload;
  } catch (const BinDecodeError&) {
    note(Severity::kWarning, "CACHE-TRUNC",
         "truncated artifact object header, skipping", path);
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.truncated;
    return std::nullopt;
  }
}

bool DiskBlobStore::put(const std::string& tier, const std::string& key,
                        std::string_view payload) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!usable_) {
      ++stats_.write_fails;
      return false;
    }
  }
  const std::string path = object_path(tier, key);
  std::error_code ec;
  if (fs::exists(path, ec)) {
    // Content-addressed: an existing object holds these exact bytes
    // (racing writers encode the same value), so the put is a no-op hit.
    return true;
  }
  if (write_object(tier, key, path, payload)) {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.objects_written;
    stats_.bytes_written += payload.size();
    return true;
  }
  note(Severity::kWarning, "CACHE-WRITEFAIL",
       "failed to persist artifact object", path);
  const std::lock_guard<std::mutex> lock(mu_);
  ++stats_.write_fails;
  return false;
}

bool DiskBlobStore::write_object(const std::string& tier,
                                 const std::string& key,
                                 const std::string& path,
                                 std::string_view payload) {
  BinWriter w;
  w.bytes(kMagic, sizeof(kMagic));
  w.u32(kFormatVersion);
  w.str(tier);
  w.str(key);
  w.u64(payload.size());
  w.u64(artifact_fnv1a64(payload.data(), payload.size()));
  w.bytes(payload.data(), payload.size());

  std::uint64_t seq = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    seq = ++tmp_seq_;
  }
  const fs::path tmp =
      fs::path(root_) / "tmp" /
      (std::to_string(static_cast<long long>(::getpid())) + "-" +
       std::to_string(seq));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(w.data().data(),
              static_cast<std::streamsize>(w.data().size()));
    out.flush();
    if (!out) {
      std::error_code ec;
      fs::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  // rename() is atomic within a filesystem: concurrent readers and other
  // sweep shards see either no object or the complete object.
  fs::rename(tmp, path, ec);
  if (ec) {
    std::error_code ec2;
    fs::remove(tmp, ec2);
    // Another process may have published the same object first; that is
    // a success (identical bytes by content-addressing).
    return fs::exists(path, ec2);
  }
  return true;
}

DiskStoreStats DiskBlobStore::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::string DiskBlobStore::stats_json() const {
  const DiskStoreStats s = stats();
  std::string j = "{";
  j += "\"root\": \"" + json::json_escape(root_) + "\"";
  j += ", \"usable\": ";
  j += usable() ? "true" : "false";
  j += ", \"objects_read\": " + std::to_string(s.objects_read);
  j += ", \"objects_written\": " + std::to_string(s.objects_written);
  j += ", \"bytes_read\": " + std::to_string(s.bytes_read);
  j += ", \"bytes_written\": " + std::to_string(s.bytes_written);
  j += ", \"read_misses\": " + std::to_string(s.read_misses);
  j += ", \"corrupt\": " + std::to_string(s.corrupt);
  j += ", \"truncated\": " + std::to_string(s.truncated);
  j += ", \"write_fails\": " + std::to_string(s.write_fails);
  j += "}";
  return j;
}

void DiskBlobStore::note(Severity sev, std::string rule, std::string message,
                         std::string object) {
  Diagnostic d;
  d.severity = sev;
  d.rule = std::move(rule);
  d.message = std::move(message);
  d.object = std::move(object);
  d.source = root_;
  const std::lock_guard<std::mutex> lock(mu_);
  diags_.push_back(std::move(d));
}

void DiskBlobStore::drain_diags(DiagEngine& diag) {
  std::vector<Diagnostic> pending;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    pending.swap(diags_);
  }
  for (auto& d : pending) diag.report(std::move(d));
}

std::size_t DiskBlobStore::pending_diags() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return diags_.size();
}

DiskBlobStore::DiskUsage DiskBlobStore::disk_usage() const {
  DiskUsage u;
  std::error_code ec;
  const fs::path objects = fs::path(root_) / "objects";
  for (auto it = fs::recursive_directory_iterator(objects, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    ++u.objects;
    u.file_bytes += it->file_size(ec);
  }
  return u;
}

}  // namespace syndcim::core
