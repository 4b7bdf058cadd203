#include "dse/shard.hpp"

#include <fstream>
#include <stdexcept>
#include <unordered_set>

#include "core/binio.hpp"
#include "core/diskstore.hpp"

namespace syndcim::dse {

using core::BinDecodeError;
using core::BinReader;
using core::BinWriter;

namespace {

constexpr char kShardMagic[4] = {'S', 'Y', 'S', 'H'};
constexpr std::uint32_t kShardVersion = 1;

void encode_ints(BinWriter& w, const std::vector<int>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const int i : v) w.i32(i);
}

std::vector<int> decode_ints(BinReader& r) {
  const std::uint32_t n = r.len(4);
  std::vector<int> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(r.i32());
  return v;
}

void encode_fp_formats(BinWriter& w, const std::vector<num::FpFormat>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const num::FpFormat& f : v) {
    w.i32(f.exp_bits);
    w.i32(f.man_bits);
  }
}

std::vector<num::FpFormat> decode_fp_formats(BinReader& r) {
  const std::uint32_t n = r.len(8);
  std::vector<num::FpFormat> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    num::FpFormat f;
    f.exp_bits = r.i32();
    f.man_bits = r.i32();
    v.push_back(f);
  }
  return v;
}

template <typename E>
void encode_enum(BinWriter& w, E e) {
  w.u8(static_cast<std::uint8_t>(e));
}

template <typename E>
E decode_enum(BinReader& r, std::uint8_t max, const char* what) {
  const std::uint8_t v = r.u8();
  if (v > max) throw BinDecodeError(std::string("bad enum value for ") + what);
  return static_cast<E>(v);
}

void encode_config(BinWriter& w, const rtlgen::MacroConfig& c) {
  w.i32(c.rows);
  w.i32(c.cols);
  w.i32(c.mcr);
  encode_ints(w, c.input_bits);
  encode_ints(w, c.weight_bits);
  encode_fp_formats(w, c.fp_formats);
  w.i32(c.fp_guard_bits);
  encode_enum(w, c.bitcell);
  encode_enum(w, c.mux);
  w.i32(c.tree.rows);
  encode_enum(w, c.tree.style);
  w.f64(c.tree.fa_fraction);
  w.b(c.tree.carry_reorder);
  w.b(c.tree.external_cpa);
  w.b(c.pipe.reg_after_tree);
  w.b(c.pipe.retime_tree_cpa);
  w.b(c.ofu.input_reg);
  w.i32(c.ofu.pipeline_regs);
  w.b(c.ofu.retime_stage1);
  w.i32(c.column_split);
}

rtlgen::MacroConfig decode_config(BinReader& r) {
  rtlgen::MacroConfig c;
  c.rows = r.i32();
  c.cols = r.i32();
  c.mcr = r.i32();
  c.input_bits = decode_ints(r);
  c.weight_bits = decode_ints(r);
  c.fp_formats = decode_fp_formats(r);
  c.fp_guard_bits = r.i32();
  c.bitcell = decode_enum<rtlgen::BitcellKind>(
      r, static_cast<std::uint8_t>(rtlgen::BitcellKind::k12T), "bitcell");
  c.mux = decode_enum<rtlgen::MuxStyle>(
      r, static_cast<std::uint8_t>(rtlgen::MuxStyle::kOai22Fused), "mux");
  c.tree.rows = r.i32();
  c.tree.style = decode_enum<rtlgen::AdderTreeStyle>(
      r, static_cast<std::uint8_t>(rtlgen::AdderTreeStyle::kMixed),
      "tree style");
  c.tree.fa_fraction = r.f64();
  c.tree.carry_reorder = r.b();
  c.tree.external_cpa = r.b();
  c.pipe.reg_after_tree = r.b();
  c.pipe.retime_tree_cpa = r.b();
  c.ofu.input_reg = r.b();
  c.ofu.pipeline_regs = r.i32();
  c.ofu.retime_stage1 = r.b();
  c.column_split = r.i32();
  return c;
}

void encode_spec(BinWriter& w, const core::PerfSpec& s) {
  w.i32(s.rows);
  w.i32(s.cols);
  w.i32(s.mcr);
  encode_ints(w, s.input_bits);
  encode_ints(w, s.weight_bits);
  encode_fp_formats(w, s.fp_formats);
  w.i32(s.fp_guard_bits);
  w.f64(s.mac_freq_mhz);
  w.f64(s.wupdate_freq_mhz);
  w.f64(s.vdd);
  w.f64(s.timing_margin);
  w.f64(s.pref.power);
  w.f64(s.pref.area);
  w.f64(s.pref.performance);
  w.b(s.bitcell.has_value());
  if (s.bitcell) encode_enum(w, *s.bitcell);
  w.b(s.mux.has_value());
  if (s.mux) encode_enum(w, *s.mux);
  w.b(s.tree_style.has_value());
  if (s.tree_style) encode_enum(w, *s.tree_style);
}

core::PerfSpec decode_spec(BinReader& r) {
  core::PerfSpec s;
  s.rows = r.i32();
  s.cols = r.i32();
  s.mcr = r.i32();
  s.input_bits = decode_ints(r);
  s.weight_bits = decode_ints(r);
  s.fp_formats = decode_fp_formats(r);
  s.fp_guard_bits = r.i32();
  s.mac_freq_mhz = r.f64();
  s.wupdate_freq_mhz = r.f64();
  s.vdd = r.f64();
  s.timing_margin = r.f64();
  s.pref.power = r.f64();
  s.pref.area = r.f64();
  s.pref.performance = r.f64();
  if (r.b()) {
    s.bitcell = decode_enum<rtlgen::BitcellKind>(
        r, static_cast<std::uint8_t>(rtlgen::BitcellKind::k12T), "bitcell");
  }
  if (r.b()) {
    s.mux = decode_enum<rtlgen::MuxStyle>(
        r, static_cast<std::uint8_t>(rtlgen::MuxStyle::kOai22Fused), "mux");
  }
  if (r.b()) {
    s.tree_style = decode_enum<rtlgen::AdderTreeStyle>(
        r, static_cast<std::uint8_t>(rtlgen::AdderTreeStyle::kMixed),
        "tree style");
  }
  return s;
}

void encode_point(BinWriter& w, const core::DesignPoint& p) {
  encode_config(w, p.cfg);
  w.f64(p.ppa.fmax_mhz);
  w.f64(p.ppa.write_fmax_mhz);
  w.f64(p.ppa.power_uw);
  w.f64(p.ppa.area_um2);
  w.f64(p.ppa.energy_per_mac_fj);
  w.i32(p.ppa.latency_cycles);
  w.f64(p.ppa.tops_1b);
  w.b(p.feasible);
  w.u32(static_cast<std::uint32_t>(p.applied.size()));
  for (const std::string& s : p.applied) w.str(s);
  w.str(p.label);
}

core::DesignPoint decode_point(BinReader& r) {
  core::DesignPoint p;
  p.cfg = decode_config(r);
  p.ppa.fmax_mhz = r.f64();
  p.ppa.write_fmax_mhz = r.f64();
  p.ppa.power_uw = r.f64();
  p.ppa.area_um2 = r.f64();
  p.ppa.energy_per_mac_fj = r.f64();
  p.ppa.latency_cycles = r.i32();
  p.ppa.tops_1b = r.f64();
  p.feasible = r.b();
  const std::uint32_t n_applied = r.len(4);
  p.applied.reserve(n_applied);
  for (std::uint32_t i = 0; i < n_applied; ++i) p.applied.push_back(r.str());
  p.label = r.str();
  return p;
}

}  // namespace

ShardResult make_shard_result(const std::vector<core::PerfSpec>& specs,
                              const SweepReport& rep, std::size_t shard_index,
                              std::size_t shard_count) {
  ShardResult s;
  s.shard_index = shard_index;
  s.shard_count = shard_count;
  s.specs = specs;
  for (std::size_t i = 0; i < rep.per_spec.size(); ++i) {
    if (!shard_owns(i, shard_index, shard_count)) continue;
    ShardResult::OwnedSpec owned;
    owned.spec_index = i;
    owned.pareto = rep.per_spec[i].result.pareto;
    s.owned.push_back(std::move(owned));
  }
  return s;
}

std::string encode_shard_result(const ShardResult& s) {
  BinWriter w;
  w.bytes(kShardMagic, sizeof(kShardMagic));
  w.u32(kShardVersion);
  w.u64(s.shard_index);
  w.u64(s.shard_count);
  w.u32(static_cast<std::uint32_t>(s.specs.size()));
  for (const core::PerfSpec& spec : s.specs) encode_spec(w, spec);
  w.u32(static_cast<std::uint32_t>(s.owned.size()));
  for (const ShardResult::OwnedSpec& o : s.owned) {
    w.u64(o.spec_index);
    w.u32(static_cast<std::uint32_t>(o.pareto.size()));
    for (const core::DesignPoint& p : o.pareto) encode_point(w, p);
  }
  return w.take();
}

ShardResult decode_shard_result(std::string_view payload) {
  BinReader r(payload);
  char magic[4];
  for (char& c : magic) c = static_cast<char>(r.u8());
  if (magic[0] != 'S' || magic[1] != 'Y' || magic[2] != 'S' ||
      magic[3] != 'H') {
    throw BinDecodeError("not a shard file (bad magic)");
  }
  if (r.u32() != kShardVersion) {
    throw BinDecodeError("unsupported shard file version");
  }
  ShardResult s;
  s.shard_index = static_cast<std::size_t>(r.u64());
  s.shard_count = static_cast<std::size_t>(r.u64());
  const std::uint32_t n_specs = r.len(64);
  s.specs.reserve(n_specs);
  for (std::uint32_t i = 0; i < n_specs; ++i) s.specs.push_back(decode_spec(r));
  const std::uint32_t n_owned = r.len(12);
  s.owned.reserve(n_owned);
  for (std::uint32_t i = 0; i < n_owned; ++i) {
    ShardResult::OwnedSpec o;
    o.spec_index = static_cast<std::size_t>(r.u64());
    if (o.spec_index >= s.specs.size()) {
      throw BinDecodeError("shard owned spec index out of range");
    }
    const std::uint32_t n_pts = r.len(64);
    o.pareto.reserve(n_pts);
    for (std::uint32_t p = 0; p < n_pts; ++p) {
      o.pareto.push_back(decode_point(r));
    }
    s.owned.push_back(std::move(o));
  }
  r.expect_end();
  return s;
}

bool write_shard_file(const std::string& path, const ShardResult& s) {
  const std::string payload = encode_shard_result(s);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  out.flush();
  return static_cast<bool>(out);
}

ShardResult read_shard_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open shard file: " + path);
  const std::string payload((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  return decode_shard_result(payload);
}

SweepReport merge_shards(const cell::Library& lib,
                         const std::vector<std::string>& paths,
                         const MergeOptions& opt) {
  if (paths.empty()) {
    throw std::invalid_argument("merge_shards: no shard files");
  }
  std::vector<ShardResult> shards;
  shards.reserve(paths.size());
  for (const std::string& p : paths) shards.push_back(read_shard_file(p));

  // Consistency: every shard must come from the same (grid, N) partition,
  // and the set must cover each shard index exactly once.
  const ShardResult& first = shards.front();
  const std::string grid_key = [&] {
    std::string k;
    for (const core::PerfSpec& s : first.specs) k += core::spec_full_key(s);
    return k;
  }();
  std::unordered_set<std::size_t> seen_idx;
  for (const ShardResult& s : shards) {
    if (s.shard_count != shards.size()) {
      throw std::invalid_argument(
          "merge_shards: shard count mismatch (expected " +
          std::to_string(s.shard_count) + " files, got " +
          std::to_string(shards.size()) + ")");
    }
    if (s.shard_index >= s.shard_count || !seen_idx.insert(s.shard_index).second) {
      throw std::invalid_argument("merge_shards: duplicate or bad shard index " +
                                  std::to_string(s.shard_index));
    }
    std::string k;
    for (const core::PerfSpec& sp : s.specs) k += core::spec_full_key(sp);
    if (k != grid_key) {
      throw std::invalid_argument("merge_shards: spec grids differ");
    }
  }

  // Rebuild exactly the per_spec array the single-process run would hold:
  // the full grid in global order, each spec's Pareto set from its owner.
  SweepReport rep;
  rep.per_spec.reserve(first.specs.size());
  for (const core::PerfSpec& s : first.specs) {
    SpecResult sr;
    sr.spec = s;
    rep.per_spec.push_back(std::move(sr));
  }
  for (const ShardResult& s : shards) {
    for (const ShardResult::OwnedSpec& o : s.owned) {
      if (!shard_owns(o.spec_index, s.shard_index, s.shard_count)) {
        throw std::invalid_argument(
            "merge_shards: shard claims a spec it does not own");
      }
      rep.per_spec[o.spec_index].result.pareto = o.pareto;
    }
  }

  // From here the path is the same code run_sweep executes after its own
  // per-spec reduction — which is the whole determinism argument.
  rep.frontier = merge_global_frontier(rep.per_spec);
  core::ArtifactStore store;
  std::unique_ptr<core::DiskBlobStore> disk;
  if (!opt.store_dir.empty()) {
    disk = std::make_unique<core::DiskBlobStore>(opt.store_dir);
    store.attach_blob_store(disk.get());
  }
  lint_frontier_points(lib, rep.frontier, store,
                       WorkStealingPool::default_threads());
  if (disk != nullptr) {
    store.flush_l2();
    if (opt.diag != nullptr) disk->drain_diags(*opt.diag);
  }
  rep.artifacts = store.stats();
  return rep;
}

}  // namespace syndcim::dse
