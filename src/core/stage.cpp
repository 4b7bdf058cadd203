#include "core/stage.hpp"

#include <sstream>

#include "core/artifact_codec.hpp"

namespace syndcim::core {

void replay_diags(const std::vector<Diagnostic>& diags, DiagEngine& sink) {
  for (const Diagnostic& d : diags) sink.report(d);
}

ArtifactStore::ArtifactStore() { install_deep_bytes(*this); }

void ArtifactStore::attach_blob_store(BlobStore* l2) {
  core::attach_blob_store(*this, l2);
}

std::size_t ArtifactStore::flush_l2() {
  std::size_t n = 0;
  n += modules.flush_l2();
  n += blocks.flush_l2();
  n += flats.flush_l2();
  n += activity.flush_l2();
  n += lints.flush_l2();
  n += placed.flush_l2();
  n += routes.flush_l2();
  n += timings.flush_l2();
  n += powers.flush_l2();
  n += act_models.flush_l2();
  n += slices.flush_l2();
  return n;
}

void ArtifactStore::set_enabled(bool on) {
  modules.set_enabled(on);
  blocks.set_enabled(on);
  flats.set_enabled(on);
  activity.set_enabled(on);
  lints.set_enabled(on);
  placed.set_enabled(on);
  routes.set_enabled(on);
  timings.set_enabled(on);
  powers.set_enabled(on);
  act_models.set_enabled(on);
  slices.set_enabled(on);
}

void ArtifactStore::set_capacity(std::size_t max_entries,
                                 std::size_t max_bytes) {
  modules.set_capacity(max_entries, max_bytes);
  blocks.set_capacity(max_entries, max_bytes);
  flats.set_capacity(max_entries, max_bytes);
  activity.set_capacity(max_entries, max_bytes);
  lints.set_capacity(max_entries, max_bytes);
  placed.set_capacity(max_entries, max_bytes);
  routes.set_capacity(max_entries, max_bytes);
  timings.set_capacity(max_entries, max_bytes);
  powers.set_capacity(max_entries, max_bytes);
  act_models.set_capacity(max_entries, max_bytes);
  slices.set_capacity(max_entries, max_bytes);
}

std::vector<ArtifactTierStats> ArtifactStore::stats() const {
  return {modules.stats(), blocks.stats(),  flats.stats(),
          activity.stats(), lints.stats(),  placed.stats(),
          routes.stats(),  timings.stats(), powers.stats(),
          act_models.stats(), slices.stats()};
}

std::uint64_t ArtifactStore::total_hits() const {
  std::uint64_t n = 0;
  for (const ArtifactTierStats& t : stats()) n += t.hits;
  return n;
}

std::uint64_t ArtifactStore::total_misses() const {
  std::uint64_t n = 0;
  for (const ArtifactTierStats& t : stats()) n += t.misses;
  return n;
}

std::size_t ArtifactStore::total_entries() const {
  std::size_t n = 0;
  for (const ArtifactTierStats& t : stats()) n += t.entries;
  return n;
}

std::uint64_t ArtifactStore::total_evicted() const {
  std::uint64_t n = 0;
  for (const ArtifactTierStats& t : stats()) n += t.evicted;
  return n;
}

std::string ArtifactStore::stats_json() const {
  std::ostringstream os;
  os << "{\"format\": \"syndcim-artifact-store\", \"tiers\": [";
  bool first = true;
  for (const ArtifactTierStats& t : stats()) {
    if (!first) os << ", ";
    first = false;
    os << "{\"name\": \"" << json_escape_string(t.name)
       << "\", \"hits\": " << t.hits << ", \"misses\": " << t.misses
       << ", \"entries\": " << t.entries << ", \"evicted\": " << t.evicted
       << ", \"bytes\": " << t.bytes << ", \"l2_hits\": " << t.l2_hits
       << ", \"l2_misses\": " << t.l2_misses
       << ", \"l2_writes\": " << t.l2_writes
       << ", \"l2_write_fails\": " << t.l2_write_fails
       << ", \"l2_rejects\": " << t.l2_rejects << "}";
  }
  os << "]}";
  return os.str();
}

void ArtifactStore::publish_metrics(const std::string& prefix) const {
  if (!obs::enabled()) return;
  auto& reg = obs::metrics();
  for (const ArtifactTierStats& t : stats()) {
    const std::string base = prefix + "." + t.name;
    reg.gauge(base + ".hits").set(static_cast<double>(t.hits));
    reg.gauge(base + ".misses").set(static_cast<double>(t.misses));
    reg.gauge(base + ".entries").set(static_cast<double>(t.entries));
    reg.gauge(base + ".evicted").set(static_cast<double>(t.evicted));
    reg.gauge(base + ".l2_hits").set(static_cast<double>(t.l2_hits));
    reg.gauge(base + ".l2_writes").set(static_cast<double>(t.l2_writes));
  }
  reg.gauge(prefix + ".evicted").set(static_cast<double>(total_evicted()));
}

std::size_t StagePipeline::runs() const {
  std::size_t n = 0;
  for (const StageRecord& r : records_) n += r.skipped ? 0 : 1;
  return n;
}

std::size_t StagePipeline::skips() const {
  std::size_t n = 0;
  for (const StageRecord& r : records_) n += r.skipped ? 1 : 0;
  return n;
}

void StagePipeline::note(const std::string& stage, const std::string& key,
                         bool skipped, std::uint64_t t0) {
  const std::uint64_t now = obs::now_ns();
  StageRecord rec;
  rec.stage = stage;
  rec.key = key;
  rec.skipped = skipped;
  rec.wall_ms = static_cast<double>(now - t0) * 1e-6;
  if (obs::enabled()) {
    obs::metrics()
        .counter(skipped ? "pipeline.stage.skips" : "pipeline.stage.runs")
        .inc();
    if (skipped) {
      obs::tracer().record(name_ + "." + stage + ".skip", t0, now - t0);
    }
  }
  records_.push_back(std::move(rec));
}

}  // namespace syndcim::core
