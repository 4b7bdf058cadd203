// Tests of the durable artifact persistence layer: DiskBlobStore object
// integrity (atomic publish, corrupt/truncated rejection with CACHE-*
// diagnostics, cross-process sharing), round-trip bit-identity of every
// tier payload codec, the ArtifactStore L1/L2 read-through + write-back
// protocol, the evaluation cache (`slices` tier) on disk, warm-restart
// sweep equivalence (cold frontier JSON == warm frontier JSON), and
// shard-merge byte-identity against a single-process sweep.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cell/characterize.hpp"
#include "core/artifact_codec.hpp"
#include "core/binio.hpp"
#include "core/diag.hpp"
#include "core/diskstore.hpp"
#include "core/scl.hpp"
#include "core/stage.hpp"
#include "dse/shard.hpp"
#include "dse/sweep.hpp"
#include "layout/floorplan.hpp"
#include "layout/serialize.hpp"
#include "lint/lint.hpp"
#include "lint/serialize.hpp"
#include "netlist/flatten.hpp"
#include "netlist/serialize.hpp"
#include "power/activity.hpp"
#include "power/power.hpp"
#include "power/serialize.hpp"
#include "rtlgen/content_key.hpp"
#include "rtlgen/macro.hpp"
#include "sta/serialize.hpp"
#include "sta/sta.hpp"
#include "tech/tech_node.hpp"

using namespace syndcim;

namespace {

const cell::Library& test_library() {
  static const cell::Library lib =
      cell::characterize_default_library(tech::make_default_40nm());
  return lib;
}

rtlgen::MacroConfig small_cfg() {
  rtlgen::MacroConfig cfg;
  cfg.rows = 16;
  cfg.cols = 8;
  cfg.mcr = 1;
  cfg.input_bits = {4};
  cfg.weight_bits = {4};
  return cfg;
}

core::PerfSpec small_spec() {
  core::PerfSpec spec;
  spec.rows = 32;
  spec.cols = 32;
  spec.mcr = 2;
  spec.input_bits = {4};
  spec.weight_bits = {4};
  spec.mac_freq_mhz = 300.0;
  spec.wupdate_freq_mhz = 300.0;
  return spec;
}

/// Fresh (removed + recreated-on-open) store root under the test temp dir.
std::string fresh_root(const std::string& name) {
  const std::string root = ::testing::TempDir() + "syndcim_" + name;
  std::filesystem::remove_all(root);
  return root;
}

/// Every payload type the tiers persist, built through the same pipeline
/// calls the compiler's stages make.
struct PipelinePayloads {
  rtlgen::MacroDesign macro;
  netlist::FlatNetlist flat;
  core::LintArtifact lint;
  core::PlacedArtifact placed;
  core::RouteArtifact route;
  core::TimingArtifact timing;
  core::PowerArtifact power;
  power::ActivityModel activity;
  core::SliceEval slice;
};

const PipelinePayloads& payloads() {
  static const PipelinePayloads p = [] {
    PipelinePayloads out;
    const cell::Library& lib = test_library();
    const rtlgen::MacroConfig cfg = small_cfg();
    out.macro = rtlgen::gen_macro(cfg);
    out.flat = netlist::flatten(out.macro.design, out.macro.top);
    {
      core::DiagEngine dg;
      dg.warning("TEST-RULE", "synthetic finding", "obj", "src");
      out.lint.summary = lint::lint_netlist(out.flat, lib, dg);
      out.lint.diags = dg.diags();
    }
    {
      core::DiagEngine dg;
      out.placed.floorplan = layout::sdp_place(out.flat, lib, cfg, &dg);
      out.placed.diags = dg.diags();
    }
    out.route.drc = layout::run_drc(out.flat, lib, out.placed.floorplan);
    out.route.lvs = layout::run_lvs(out.flat, lib, out.placed.floorplan);
    out.route.wire =
        layout::extract_wire_model(out.flat, lib, out.placed.floorplan);
    {
      sta::StaEngine sta(out.flat, lib);
      sta::StaOptions topt;
      topt.clock_period_ps = 3000.0;
      topt.wire = out.route.wire;
      topt.collect_group_interfaces = true;
      core::DiagEngine dg;
      topt.diag = &dg;
      out.timing.timing = sta.analyze(topt);
      out.timing.diags = dg.diags();
    }
    out.activity = power::propagate_activity(out.flat, lib, {});
    {
      power::PowerOptions popt;
      popt.freq_mhz = 300.0;
      popt.wire = out.route.wire;
      out.power.power = power::analyze_power(out.flat, lib, out.activity, popt);
      out.power.area = power::analyze_area(out.flat, lib);
    }
    out.slice = *core::SubcircuitLibrary(lib).slice(cfg);
    return out;
  }();
  return p;
}

std::uint64_t sum_l2_hits(const std::vector<core::ArtifactTierStats>& tiers) {
  std::uint64_t n = 0;
  for (const auto& t : tiers) n += t.l2_hits;
  return n;
}

/// Three configurations with pairwise distinct slices.
std::vector<rtlgen::MacroConfig> slice_variants() {
  rtlgen::MacroConfig tree = small_cfg();
  tree.tree.fa_fraction = 1.0;
  rtlgen::MacroConfig regs = small_cfg();
  regs.ofu.pipeline_regs = 1;
  return {small_cfg(), tree, regs};
}

/// The `slices` tier key SubcircuitLibrary::slice looks `cfg` up under.
std::string slice_key(const rtlgen::MacroConfig& cfg) {
  return "slice1|" + rtlgen::slice_content_key(cfg) + "|" +
         test_library().fingerprint();
}

/// A library over a fresh in-memory store that reads through to `disk`.
core::SubcircuitLibrary disk_library(core::DiskBlobStore& disk) {
  auto store = std::make_shared<core::ArtifactStore>();
  store->attach_blob_store(&disk);
  return core::SubcircuitLibrary(test_library(), store);
}

std::string slice_bytes(const core::SubcircuitLibrary& scl,
                        const rtlgen::MacroConfig& cfg) {
  return core::encode_slice_eval(*scl.slice(cfg));
}

}  // namespace

// ---------------------------------------------------------------------------
// Round-trip bit-identity of every tier payload codec: encode -> decode ->
// re-encode must reproduce the exact same bytes, which is what makes a
// warm (L2-decoded) artifact indistinguishable from a computed one.
// ---------------------------------------------------------------------------

TEST(ArtifactCodec, ModuleRoundTripsBitIdentical) {
  const auto& p = payloads();
  const netlist::Module& m = p.macro.design.module(p.macro.top);
  const std::string bytes = netlist::encode_module(m);
  const netlist::Module back = netlist::decode_module(bytes);
  EXPECT_EQ(netlist::encode_module(back), bytes);
  EXPECT_GT(netlist::deep_bytes(m), 0u);
}

TEST(ArtifactCodec, FlatNetlistRoundTripsBitIdentical) {
  const auto& p = payloads();
  const std::string bytes = netlist::encode_flat_netlist(p.flat);
  const netlist::FlatNetlist back = netlist::decode_flat_netlist(bytes);
  EXPECT_EQ(netlist::encode_flat_netlist(back), bytes);
  EXPECT_EQ(back.gates().size(), p.flat.gates().size());
  EXPECT_GT(netlist::deep_bytes(p.flat), 0u);
}

TEST(ArtifactCodec, ActivityModelRoundTripsBitIdentical) {
  const auto& p = payloads();
  const std::string bytes = power::encode_activity_model(p.activity);
  const power::ActivityModel back = power::decode_activity_model(bytes);
  EXPECT_EQ(power::encode_activity_model(back), bytes);
  EXPECT_EQ(back.toggle_rate, p.activity.toggle_rate);
  EXPECT_EQ(back.p_one, p.activity.p_one);
}

TEST(ArtifactCodec, GroupActivityRoundTripsBitIdentical) {
  power::GroupActivityArtifact g;
  g.driven = {{0.9, 0.125}, {0.5, 0.25}, {1.0 / 3.0, 2.0 / 7.0}};
  const std::string bytes = power::encode_group_activity(g);
  const power::GroupActivityArtifact back =
      power::decode_group_activity(bytes);
  EXPECT_EQ(power::encode_group_activity(back), bytes);
  EXPECT_EQ(back.driven, g.driven);
}

TEST(ArtifactCodec, LintArtifactRoundTripsBitIdentical) {
  const auto& p = payloads();
  const std::string bytes = core::encode_lint_artifact(p.lint);
  const core::LintArtifact back = core::decode_lint_artifact(bytes);
  EXPECT_EQ(core::encode_lint_artifact(back), bytes);
  ASSERT_EQ(back.diags.size(), p.lint.diags.size());
  ASSERT_FALSE(back.diags.empty());
  EXPECT_EQ(back.diags.front().rule, "TEST-RULE");
}

TEST(ArtifactCodec, PlacedArtifactRoundTripsBitIdentical) {
  const auto& p = payloads();
  const std::string bytes = core::encode_placed_artifact(p.placed);
  const core::PlacedArtifact back = core::decode_placed_artifact(bytes);
  EXPECT_EQ(core::encode_placed_artifact(back), bytes);
  EXPECT_EQ(back.floorplan.gate_rects.size(),
            p.placed.floorplan.gate_rects.size());
}

TEST(ArtifactCodec, RouteArtifactRoundTripsBitIdentical) {
  const auto& p = payloads();
  const std::string bytes = core::encode_route_artifact(p.route);
  const core::RouteArtifact back = core::decode_route_artifact(bytes);
  EXPECT_EQ(core::encode_route_artifact(back), bytes);
  EXPECT_EQ(back.wire.per_net_cap_ff, p.route.wire.per_net_cap_ff);
}

TEST(ArtifactCodec, TimingArtifactRoundTripsBitIdentical) {
  const auto& p = payloads();
  const std::string bytes = core::encode_timing_artifact(p.timing);
  const core::TimingArtifact back = core::decode_timing_artifact(bytes);
  EXPECT_EQ(core::encode_timing_artifact(back), bytes);
  EXPECT_EQ(back.timing.fmax_mhz, p.timing.timing.fmax_mhz);
  EXPECT_EQ(back.timing.wns_ps, p.timing.timing.wns_ps);
}

TEST(ArtifactCodec, PowerArtifactRoundTripsBitIdentical) {
  const auto& p = payloads();
  const std::string bytes = core::encode_power_artifact(p.power);
  const core::PowerArtifact back = core::decode_power_artifact(bytes);
  EXPECT_EQ(core::encode_power_artifact(back), bytes);
  EXPECT_EQ(back.power.total_uw(), p.power.power.total_uw());
}

TEST(ArtifactCodec, SliceEvalRoundTripsBitIdentical) {
  const auto& p = payloads();
  ASSERT_FALSE(p.slice.groups.empty());
  const std::string bytes = core::encode_slice_eval(p.slice);
  const core::SliceEval back = core::decode_slice_eval(bytes);
  EXPECT_EQ(core::encode_slice_eval(back), bytes);
  EXPECT_EQ(back.min_period_ps, p.slice.min_period_ps);
  EXPECT_EQ(back.slice_cols, p.slice.slice_cols);
  ASSERT_EQ(back.groups.size(), p.slice.groups.size());
  EXPECT_EQ(back.groups.back().group, p.slice.groups.back().group);
  EXPECT_EQ(back.groups.back().area_um2, p.slice.groups.back().area_um2);
  EXPECT_GT(core::deep_bytes(p.slice), 0u);
}

TEST(ArtifactCodec, DecodersRejectTruncatedAndTrailingBytes) {
  const auto& p = payloads();
  using Decode = void (*)(std::string_view);
  const std::vector<std::tuple<const char*, std::string, Decode>> codecs = {
      {"timing", core::encode_timing_artifact(p.timing),
       [](std::string_view b) { (void)core::decode_timing_artifact(b); }},
      {"slice", core::encode_slice_eval(p.slice),
       [](std::string_view b) { (void)core::decode_slice_eval(b); }},
  };
  for (const auto& [name, bytes, decode] : codecs) {
    for (const std::size_t cut : {std::size_t{0}, std::size_t{1},
                                  bytes.size() / 2, bytes.size() - 1}) {
      EXPECT_THROW(decode(std::string_view(bytes).substr(0, cut)),
                   core::BinDecodeError)
          << name << " cut at " << cut;
    }
    EXPECT_THROW(decode(bytes + "x"), core::BinDecodeError) << name;
  }
}

// ---------------------------------------------------------------------------
// DiskBlobStore object integrity
// ---------------------------------------------------------------------------

TEST(DiskBlobStore, PutGetRoundTripAndIdempotentPut) {
  const std::string root = fresh_root("store_basic");
  core::DiskBlobStore store(root);
  ASSERT_TRUE(store.usable());

  const std::string payload = std::string("hello artifact \0 bytes", 22);
  EXPECT_FALSE(store.get("flats", "k|1").has_value());
  EXPECT_TRUE(store.put("flats", "k|1", payload));
  // Re-putting an existing object is a cheap no-op success (the racing
  // writer of a content-addressed store wrote identical bytes).
  EXPECT_TRUE(store.put("flats", "k|1", payload));
  const auto got = store.get("flats", "k|1");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);

  const core::DiskStoreStats s = store.stats();
  EXPECT_EQ(s.objects_written, 1u);
  EXPECT_EQ(s.objects_read, 1u);
  EXPECT_EQ(s.read_misses, 1u);
  EXPECT_EQ(store.pending_diags(), 0u);

  const auto usage = store.disk_usage();
  EXPECT_EQ(usage.objects, 1u);
  EXPECT_GT(usage.file_bytes, payload.size());  // header + payload
}

TEST(DiskBlobStore, TruncatedObjectIsMissWithDiagAndStoreStaysUsable) {
  const std::string root = fresh_root("store_trunc");
  core::DiskBlobStore store(root);
  ASSERT_TRUE(store.put("timings", "key-a", std::string(256, 'x')));
  ASSERT_TRUE(store.put("timings", "key-b", "intact"));

  const std::string path = store.object_path("timings", "key-a");
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 64);

  EXPECT_FALSE(store.get("timings", "key-a").has_value());
  EXPECT_GE(store.stats().truncated, 1u);
  EXPECT_GE(store.pending_diags(), 1u);
  core::DiagEngine diag;
  store.drain_diags(diag);
  ASSERT_FALSE(diag.diags().empty());
  EXPECT_EQ(diag.diags().front().rule, "CACHE-TRUNC");
  EXPECT_EQ(store.pending_diags(), 0u);

  // The store keeps serving other objects — a bad entry degrades to a
  // recompute, never poisons the store.
  const auto ok = store.get("timings", "key-b");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(*ok, "intact");
}

TEST(DiskBlobStore, BitFlippedPayloadIsMissWithCorruptDiag) {
  const std::string root = fresh_root("store_flip");
  core::DiskBlobStore store(root);
  ASSERT_TRUE(store.put("powers", "key-c", std::string(128, 'p')));

  const std::string path = store.object_path("powers", "key-c");
  {
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(-1, std::ios::end);  // last payload byte
    f.put('q');
  }
  EXPECT_FALSE(store.get("powers", "key-c").has_value());
  EXPECT_GE(store.stats().corrupt, 1u);
  core::DiagEngine diag;
  store.drain_diags(diag);
  ASSERT_FALSE(diag.diags().empty());
  EXPECT_EQ(diag.diags().front().rule, "CACHE-CORRUPT");
}

TEST(DiskBlobStore, UnusableRootDegradesToMissesNotCrashes) {
  // A path under a regular file can never become a directory.
  const std::string file = fresh_root("store_notadir");
  { std::ofstream f(file); f << "occupied"; }
  core::DiskBlobStore store(file + "/sub");
  EXPECT_FALSE(store.usable());
  EXPECT_FALSE(store.put("flats", "k", "v"));
  EXPECT_FALSE(store.get("flats", "k").has_value());
  EXPECT_GE(store.stats().write_fails, 1u);
  EXPECT_GE(store.pending_diags(), 1u);
}

// Opening a store sweeps only dead writers' tmp files: a tmp file whose pid
// is running may be mid-write in another process, and removing it would
// fail that writer's rename.
TEST(DiskBlobStore, OpenSweepsOnlyDeadWritersTmpFiles) {
  const std::string root = fresh_root("store_tmp_sweep");
  std::filesystem::create_directories(root + "/tmp");
  const pid_t dead = fork();
  ASSERT_GE(dead, 0) << "fork failed";
  if (dead == 0) _exit(0);
  ASSERT_EQ(::waitpid(dead, nullptr, 0), dead);

  const std::string live_tmp =
      root + "/tmp/" + std::to_string(::getpid()) + "-7";
  const std::string dead_tmp = root + "/tmp/" + std::to_string(dead) + "-7";
  const std::string junk_tmp = root + "/tmp/junk";
  for (const std::string& path : {live_tmp, dead_tmp, junk_tmp}) {
    std::ofstream(path) << "partial";
  }
  core::DiskBlobStore store(root);
  ASSERT_TRUE(store.usable());
  EXPECT_TRUE(std::filesystem::exists(live_tmp));
  EXPECT_FALSE(std::filesystem::exists(dead_tmp));
  EXPECT_FALSE(std::filesystem::exists(junk_tmp));
}

TEST(DiskBlobStore, TwoProcessesShareOneStore) {
  const std::string root = fresh_root("store_fork");
  auto payload_for = [](int i) {
    return std::string(64 + i, static_cast<char>('a' + i % 23));
  };
  const int kKeys = 32;

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: its own store handle over the same root, racing the parent
    // on every key (content-addressed => identical bytes per key).
    core::DiskBlobStore child(root);
    bool ok = child.usable();
    for (int i = 0; i < kKeys; ++i) {
      ok = child.put("flats", "key" + std::to_string(i), payload_for(i)) && ok;
    }
    _exit(ok ? 0 : 1);
  }
  core::DiskBlobStore parent(root);
  for (int i = 0; i < kKeys; ++i) {
    EXPECT_TRUE(parent.put("flats", "key" + std::to_string(i),
                           payload_for(i)));
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  for (int i = 0; i < kKeys; ++i) {
    const auto got = parent.get("flats", "key" + std::to_string(i));
    ASSERT_TRUE(got.has_value()) << "key" << i;
    EXPECT_EQ(*got, payload_for(i)) << "key" << i;
  }
  EXPECT_EQ(parent.stats().corrupt, 0u);
  EXPECT_EQ(parent.stats().truncated, 0u);
}

// ---------------------------------------------------------------------------
// ArtifactStore L1/L2 protocol
// ---------------------------------------------------------------------------

TEST(ArtifactStoreL2, FlushThenWarmFindServesDecodedPayload) {
  const std::string root = fresh_root("store_l1l2");
  const auto& p = payloads();
  const std::string key = "flatm1|test-key";

  {
    core::DiskBlobStore disk(root);
    core::ArtifactStore as;
    as.attach_blob_store(&disk);
    (void)as.flats.get_or_compute(key, [&] { return p.flat; });
    EXPECT_EQ(as.flush_l2(), 1u);
    // A second flush has nothing dirty left.
    EXPECT_EQ(as.flush_l2(), 0u);
  }

  // "Restarted process": fresh L1, same disk root.
  core::DiskBlobStore disk(root);
  core::ArtifactStore as;
  as.attach_blob_store(&disk);
  const auto stored = [] {
    ADD_FAILURE() << "recomputed a stored key";
    return netlist::FlatNetlist{};
  };
  const auto hit = as.flats.get_or_compute(key, stored);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(netlist::encode_flat_netlist(*hit),
            netlist::encode_flat_netlist(p.flat));
  EXPECT_EQ(sum_l2_hits(as.stats()), 1u);
  // L2-served entries are clean: nothing to write back.
  EXPECT_EQ(as.flush_l2(), 0u);
  // Second lookup is a pure L1 hit.
  ASSERT_TRUE(as.flats.contains(key));
  ASSERT_NE(as.flats.get_or_compute(key, stored), nullptr);
  EXPECT_EQ(sum_l2_hits(as.stats()), 1u);
}

TEST(ArtifactStoreL2, CorruptObjectFallsBackToRecompute) {
  const std::string root = fresh_root("store_l2corrupt");
  const auto& p = payloads();
  const std::string flat_key = "flatm1|will-corrupt";
  const std::string slice_key = "slice1|will-corrupt";

  core::DiskBlobStore disk(root);
  {
    core::ArtifactStore as;
    as.attach_blob_store(&disk);
    (void)as.flats.get_or_compute(flat_key, [&] { return p.flat; });
    (void)as.slices.get_or_compute(slice_key, [&] { return p.slice; });
    as.flush_l2();
  }
  for (const auto& [tier, key] : {std::pair<const char*, std::string>{
                                      "flats", flat_key},
                                  {"slices", slice_key}}) {
    std::fstream f(disk.object_path(tier, key),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good()) << tier;
    f.seekp(-5, std::ios::end);
    f.put('\xff');
  }
  core::DiskBlobStore disk2(root);
  core::ArtifactStore as;
  as.attach_blob_store(&disk2);
  // get_or_compute reads through, rejects the flipped object and
  // recomputes instead: a miss, not garbage.
  bool flat_recomputed = false;
  (void)as.flats.get_or_compute(flat_key, [&] {
    flat_recomputed = true;
    return p.flat;
  });
  EXPECT_TRUE(flat_recomputed);
  const auto slice = as.slices.get_or_compute(slice_key, [&] {
    core::SliceEval e = p.slice;
    e.slice_cols += 1;
    return e;
  });
  EXPECT_EQ(slice->slice_cols, p.slice.slice_cols + 1);
  for (const auto& t : as.stats()) {
    if (t.name != "flats" && t.name != "slices") continue;
    EXPECT_EQ(t.hits, 0u) << t.name;
    EXPECT_TRUE(t.l2_rejects > 0 || t.l2_misses > 0) << t.name;
  }
}

// ---------------------------------------------------------------------------
// The evaluation cache on disk: the `slices` tier under a store directory
// ---------------------------------------------------------------------------

TEST(EvalCache, DiskRoundTrip) {
  const std::string root = fresh_root("evalcache_roundtrip");
  const core::PerfSpec spec = small_spec();
  const std::vector<rtlgen::MacroConfig> cfgs = slice_variants();
  std::vector<core::EvalOutcome> cold;
  std::vector<std::string> cold_bytes;
  {
    core::DiskBlobStore disk(root);
    const core::SubcircuitLibrary scl = disk_library(disk);
    for (const rtlgen::MacroConfig& c : cfgs) {
      cold.push_back(scl.evaluate(c, spec));
      cold_bytes.push_back(slice_bytes(scl, c));
    }
    // Only the slices tier goes to disk: the warm library below must
    // answer from it without any stage artifact.
    ASSERT_EQ(scl.artifact_store()->slices.flush_l2(), cfgs.size());
  }

  core::DiskBlobStore disk(root);
  const core::SubcircuitLibrary scl = disk_library(disk);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const core::EvalOutcome got = scl.evaluate(cfgs[i], spec);
    EXPECT_EQ(got.ppa.fmax_mhz, cold[i].ppa.fmax_mhz) << "config " << i;
    EXPECT_EQ(got.ppa.power_uw, cold[i].ppa.power_uw) << "config " << i;
    EXPECT_EQ(got.ppa.area_um2, cold[i].ppa.area_um2) << "config " << i;
    EXPECT_EQ(got.timing.mac_period_ps, cold[i].timing.mac_period_ps)
        << "config " << i;
    EXPECT_EQ(got.timing.all_ok(), cold[i].timing.all_ok()) << "config " << i;
    EXPECT_EQ(slice_bytes(scl, cfgs[i]), cold_bytes[i]) << "config " << i;
  }
  const core::ArtifactStore& as = *scl.artifact_store();
  EXPECT_EQ(as.slices.stats().l2_hits, cfgs.size());
  EXPECT_EQ(as.slices.stats().misses, 0u);
  EXPECT_EQ(as.flats.stats().lookups(), 0u) << "no slice stage may run";

  // An empty store directory serves nothing.
  core::DiskBlobStore empty(fresh_root("evalcache_empty"));
  const core::SubcircuitLibrary fresh = disk_library(empty);
  (void)fresh.slice(cfgs.front());
  EXPECT_EQ(fresh.artifact_store()->slices.stats().l2_misses, 1u);
  EXPECT_EQ(fresh.artifact_store()->slices.stats().l2_hits, 0u);
}

TEST(EvalCache, CorruptedEntryIsRejectedAndCountedNotInstalled) {
  const std::string root = fresh_root("evalcache_corrupt");
  const std::vector<rtlgen::MacroConfig> cfgs = slice_variants();
  std::vector<std::string> cold;
  {
    core::DiskBlobStore disk(root);
    const core::SubcircuitLibrary scl = disk_library(disk);
    for (const rtlgen::MacroConfig& c : cfgs) {
      cold.push_back(slice_bytes(scl, c));
    }
    ASSERT_EQ(scl.artifact_store()->slices.flush_l2(), cfgs.size());
  }
  // Replace the middle entry with an intact object whose payload is not
  // a slice characterization: only the codec can tell.
  const std::string victim = slice_key(cfgs[1]);
  {
    core::DiskBlobStore disk(root);
    ASSERT_TRUE(std::filesystem::remove(disk.object_path("slices", victim)));
    const std::string_view cut_short =
        std::string_view(cold[1]).substr(0, cold[1].size() / 2);
    ASSERT_TRUE(disk.put("slices", victim, cut_short));
  }

  core::DiskBlobStore disk(root);
  const core::SubcircuitLibrary scl = disk_library(disk);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    EXPECT_EQ(slice_bytes(scl, cfgs[i]), cold[i]) << "config " << i;
  }
  const core::ArtifactTierStats st = scl.artifact_store()->slices.stats();
  EXPECT_EQ(st.l2_rejects, 1u);
  EXPECT_EQ(st.l2_hits, 2u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.entries, cfgs.size());
  EXPECT_EQ(disk.stats().corrupt + disk.stats().truncated, 0u);
}

TEST(EvalCache, TruncatedEntriesNeverInstallGarbage) {
  // Chop the persisted slice object at many points: whatever a cut leaves
  // is a miss that recomputes the exact bytes, never a half-read entry.
  const std::string root = fresh_root("evalcache_truncate");
  const rtlgen::MacroConfig cfg = small_cfg();
  std::string want;
  {
    core::DiskBlobStore disk(root);
    const core::SubcircuitLibrary scl = disk_library(disk);
    want = slice_bytes(scl, cfg);
    // Every tier goes to disk, so a recompute below is decode-only.
    scl.artifact_store()->flush_l2();
  }
  core::DiskBlobStore disk(root);
  const std::string path = disk.object_path("slices", slice_key(cfg));
  std::string text;
  {
    std::ifstream f(path, std::ios::binary);
    ASSERT_TRUE(f.good());
    text.assign(std::istreambuf_iterator<char>(f),
                std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(text.empty());

  std::uint64_t cuts = 0;
  for (long cut = static_cast<long>(text.size()) - 1; cut > 0; cut -= 17) {
    {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f.write(text.data(), cut);
    }
    ++cuts;
    const core::SubcircuitLibrary scl = disk_library(disk);
    EXPECT_EQ(slice_bytes(scl, cfg), want) << "cut=" << cut;
    EXPECT_EQ(scl.artifact_store()->slices.stats().l2_hits, 0u)
        << "cut=" << cut;
  }
  EXPECT_EQ(disk.stats().truncated + disk.stats().corrupt, cuts);

  // The whole object, put back, is served again.
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(text.data(), static_cast<std::streamsize>(text.size()));
  }
  const core::SubcircuitLibrary scl = disk_library(disk);
  EXPECT_EQ(slice_bytes(scl, cfg), want);
  EXPECT_EQ(scl.artifact_store()->slices.stats().l2_hits, 1u);
}

TEST(EvalCache, MissingFormatMarkerIsReported) {
  // Slice objects without the store's format marker are skipped, reported
  // through the sweep's diagnostics and recomputed to the same frontier.
  const std::string root = fresh_root("evalcache_badmagic");
  const std::vector<core::PerfSpec> specs = {small_spec()};
  dse::SweepOptions opt;
  opt.threads = 2;
  opt.lint_frontier = false;
  opt.store_dir = root;
  const dse::SweepReport cold = dse::run_sweep(test_library(), specs, opt);

  std::uint64_t n = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(
           root + "/objects/slices")) {
    if (!e.is_regular_file()) continue;
    std::fstream f(e.path(), std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.write("JUNK", 4);
    ++n;
  }
  ASSERT_GT(n, 0u);
  ASSERT_EQ(n, cold.cache.misses);

  core::DiagEngine diag;
  opt.diag = &diag;
  const dse::SweepReport warm = dse::run_sweep(test_library(), specs, opt);
  EXPECT_EQ(diag.count_rule("CACHE-CORRUPT"), n);
  EXPECT_EQ(warm.cache.misses, n);
  EXPECT_EQ(warm.cache.l2_hits, 0u);
  EXPECT_NE(warm.store_json.find("\"corrupt\": " + std::to_string(n)),
            std::string::npos);
  EXPECT_EQ(dse::sweep_frontier_json(warm), dse::sweep_frontier_json(cold));
}

TEST(EvalCachePersistence, SaveIsAtomicAndLeavesNoTempFile) {
  // Slice characterizations reach disk through tmp + rename: after each
  // flush the tmp directory is empty and every object reads back whole.
  const std::string root = fresh_root("evalcache_atomic");
  const std::vector<rtlgen::MacroConfig> cfgs = slice_variants();
  core::DiskBlobStore disk(root);
  const core::SubcircuitLibrary scl = disk_library(disk);
  core::ArtifactCache<core::SliceEval>& slices = scl.artifact_store()->slices;
  (void)scl.slice(cfgs[0]);
  EXPECT_EQ(slices.flush_l2(), 1u);
  EXPECT_TRUE(std::filesystem::is_empty(root + "/tmp"));
  // A later flush publishes only the new entries, the same way.
  (void)scl.slice(cfgs[1]);
  (void)scl.slice(cfgs[2]);
  EXPECT_EQ(slices.flush_l2(), 2u);
  EXPECT_TRUE(std::filesystem::is_empty(root + "/tmp"));
  core::DiskBlobStore reader(root);
  for (const rtlgen::MacroConfig& c : cfgs) {
    const auto payload = reader.get("slices", slice_key(c));
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(*payload, slice_bytes(scl, c));
  }
  EXPECT_EQ(reader.stats().corrupt + reader.stats().truncated, 0u);

  // An unwritable destination fails cleanly: counted, nothing created.
  const std::string file = fresh_root("evalcache_notadir");
  { std::ofstream f(file); f << "occupied"; }
  core::DiskBlobStore bad(file + "/sub");
  core::ArtifactStore lost;
  lost.attach_blob_store(&bad);
  (void)lost.slices.get_or_compute(slice_key(cfgs[0]),
                                   [&] { return *scl.slice(cfgs[0]); });
  EXPECT_EQ(lost.slices.flush_l2(), 0u);
  EXPECT_EQ(lost.slices.stats().l2_write_fails, 1u);
  EXPECT_FALSE(std::filesystem::exists(file + "/sub"));
}

// ---------------------------------------------------------------------------
// Warm restarts and sharded sweeps
// ---------------------------------------------------------------------------

TEST(SweepPersistence, WarmRestartIsByteIdenticalAndServedFromL2) {
  const std::string root = fresh_root("sweep_warm");
  const std::vector<core::PerfSpec> specs = {small_spec()};
  dse::SweepOptions opt;
  opt.threads = 2;
  opt.store_dir = root;

  const dse::SweepReport cold = dse::run_sweep(test_library(), specs, opt);
  EXPECT_FALSE(cold.store_json.empty());

  // "Restart": a fresh run_sweep call builds a new private ArtifactStore
  // and a new DiskBlobStore over the same directory.
  const dse::SweepReport warm = dse::run_sweep(test_library(), specs, opt);
  EXPECT_EQ(dse::sweep_frontier_json(warm), dse::sweep_frontier_json(cold));
  EXPECT_GT(sum_l2_hits(warm.artifacts), 0u);
  EXPECT_GT(warm.artifact_hits(), 0u);
  // The slice characterizations themselves persist: the warm run answers
  // every evaluation from the slices tier and runs no slice stage.
  EXPECT_EQ(warm.cache.misses, 0u);
  EXPECT_GT(warm.cache.hits, 0u);
  for (const core::ArtifactTierStats& t : warm.artifacts) {
    if (t.name == "flats") {
      EXPECT_EQ(t.lookups(), 0u);
    } else if (t.name == "slices") {
      EXPECT_GT(t.l2_hits, 0u);
    }
  }

  // And the persisted path changes nothing about the results themselves:
  // a plain in-memory sweep has the same frontier bytes.
  dse::SweepOptions mem;
  mem.threads = 2;
  const dse::SweepReport plain = dse::run_sweep(test_library(), specs, mem);
  EXPECT_EQ(dse::sweep_frontier_json(plain), dse::sweep_frontier_json(cold));
}

TEST(SweepPersistence, CacheSaveFailureIsCountedAndDiagnosed) {
  const std::vector<core::PerfSpec> specs = {small_spec()};
  dse::SweepOptions opt;
  opt.threads = 2;
  opt.lint_frontier = false;
  // A store directory under a regular file can never be created: every
  // write-back of the run fails.
  const std::string file = fresh_root("sweep_not_a_dir");
  { std::ofstream f(file); f << "occupied"; }
  opt.store_dir = file + "/store";
  core::DiagEngine diag;
  opt.diag = &diag;

  const dse::SweepReport rep = dse::run_sweep(test_library(), specs, opt);
  EXPECT_EQ(diag.count_rule("CACHE-OPENFAIL"), 1u);
  EXPECT_GT(rep.cache.misses, 0u);
  EXPECT_EQ(rep.cache.l2_write_fails, rep.cache.misses)
      << "every characterized slice must count its failed write-back";
  std::uint64_t fails = 0;
  for (const core::ArtifactTierStats& t : rep.artifacts) {
    fails += t.l2_write_fails;
  }
  const std::string json = dse::sweep_report_json(rep);
  EXPECT_NE(json.find("\"usable\": false"), std::string::npos);
  EXPECT_NE(json.find("\"write_fails\": " + std::to_string(fails)),
            std::string::npos);

  // Lost persistence changes nothing about the results.
  dse::SweepOptions mem;
  mem.threads = 2;
  mem.lint_frontier = false;
  EXPECT_EQ(dse::sweep_frontier_json(rep),
            dse::sweep_frontier_json(
                dse::run_sweep(test_library(), specs, mem)));
}

TEST(ShardedSweep, ShardOwnsPartitionsExactly) {
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    for (std::size_t i = 0; i < 12; ++i) {
      std::size_t owners = 0;
      for (std::size_t s = 0; s < n; ++s) {
        owners += dse::shard_owns(i, s, n) ? 1 : 0;
      }
      EXPECT_EQ(owners, 1u) << "spec " << i << " shards " << n;
    }
  }
}

TEST(ShardedSweep, TwoShardsMergeByteIdenticalToSingleProcess) {
  const std::string store = fresh_root("shard_store");
  dse::SweepGrid grid;
  grid.base = small_spec();
  grid.mac_freqs_mhz = {250.0, 400.0};
  const std::vector<core::PerfSpec> specs = grid.expand();
  ASSERT_EQ(specs.size(), 2u);

  // Single-process reference (lints its frontier).
  dse::SweepOptions ref;
  ref.threads = 2;
  const dse::SweepReport whole = dse::run_sweep(test_library(), specs, ref);
  const std::string want = dse::sweep_frontier_json(whole);

  // Two shard "processes" over a shared store dir.
  std::vector<std::string> files;
  for (std::size_t sh = 0; sh < 2; ++sh) {
    dse::SweepOptions opt;
    opt.threads = 2;
    opt.store_dir = store;
    opt.shard_index = sh;
    opt.shard_count = 2;
    opt.lint_frontier = false;  // the merge lints the real frontier
    const dse::SweepReport rep = dse::run_sweep(test_library(), specs, opt);
    // Unowned slots stay empty, owned slots keep their global index.
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const bool owned = dse::shard_owns(i, sh, 2);
      EXPECT_EQ(!rep.per_spec[i].result.explored.empty(), owned)
          << "shard " << sh << " spec " << i;
    }
    const dse::ShardResult sr = dse::make_shard_result(specs, rep, sh, 2);
    EXPECT_EQ(sr.owned.size(), 1u);
    const std::string path =
        store + "/shard" + std::to_string(sh) + ".bin";
    ASSERT_TRUE(dse::write_shard_file(path, sr));
    files.push_back(path);
  }

  core::DiagEngine diag;
  dse::MergeOptions mopt;
  mopt.store_dir = store;  // merge lint reads through the shared store
  mopt.diag = &diag;
  const dse::SweepReport merged =
      dse::merge_shards(test_library(), files, mopt);
  EXPECT_EQ(dse::sweep_frontier_json(merged), want);

  // Shard-file round trip is bit-exact too.
  const dse::ShardResult back = dse::read_shard_file(files[0]);
  EXPECT_EQ(dse::encode_shard_result(back),
            dse::encode_shard_result(dse::read_shard_file(files[0])));
  EXPECT_EQ(back.shard_count, 2u);
  EXPECT_EQ(back.specs.size(), specs.size());
}

TEST(ShardedSweep, MergeRejectsInconsistentShardSets) {
  const std::string root = fresh_root("shard_bad");
  std::filesystem::create_directories(root);
  dse::SweepGrid grid;
  grid.base = small_spec();
  const std::vector<core::PerfSpec> specs = grid.expand();

  dse::SweepOptions opt;
  opt.threads = 1;
  opt.shard_index = 0;
  opt.shard_count = 2;
  opt.lint_frontier = false;
  const dse::SweepReport rep = dse::run_sweep(test_library(), specs, opt);
  const dse::ShardResult sr = dse::make_shard_result(specs, rep, 0, 2);
  const std::string path = root + "/only0.bin";
  ASSERT_TRUE(dse::write_shard_file(path, sr));

  // Missing shard 1: merge must refuse rather than silently produce a
  // partial frontier.
  EXPECT_THROW((void)dse::merge_shards(test_library(), {path}, {}),
               std::invalid_argument);
  // Duplicate shard 0 is inconsistent too.
  EXPECT_THROW((void)dse::merge_shards(test_library(), {path, path}, {}),
               std::invalid_argument);
  // A malformed file fails loudly, not as an empty merge.
  const std::string junk = root + "/junk.bin";
  { std::ofstream f(junk, std::ios::binary); f << "not a shard file"; }
  EXPECT_THROW((void)dse::merge_shards(test_library(), {junk}, {}),
               std::exception);
}
