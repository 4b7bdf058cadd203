#include "sim/macro_tb.hpp"

#include <bit>
#include <stdexcept>
#include <utility>

#include "netlist/flatten.hpp"
#include "rtlgen/ofu.hpp"

namespace syndcim::sim {

using rtlgen::MacroDesign;

namespace {
[[nodiscard]] int log2i(int v) {
  return std::bit_width(static_cast<unsigned>(v)) - 1;
}
}  // namespace

MacroTestbench::MacroTestbench(const MacroDesign& md,
                               const cell::Library& lib, int lanes)
    : MacroTestbench(md,
                     std::make_shared<const netlist::FlatNetlist>(
                         netlist::flatten(md.design, md.top)),
                     lib, lanes) {}

MacroTestbench::MacroTestbench(
    const MacroDesign& md, std::shared_ptr<const netlist::FlatNetlist> flat,
    const cell::Library& lib, int lanes)
    : md_(md),
      flat_(std::move(flat)),
      sim_(std::make_unique<GateSim>(*flat_, lib, lanes)) {}

void MacroTestbench::preload_weights(const DcimMacroModel& model) {
  const auto& cfg = md_.cfg;
  const bool invert = cfg.mux == rtlgen::MuxStyle::kOai22Fused;
  const auto& cells = sim_->bitcell_gates();
  const std::size_t expected = static_cast<std::size_t>(cfg.rows) *
                               cfg.cols * cfg.mcr;
  if (cells.size() != expected) {
    throw std::logic_error("MacroTestbench: unexpected bitcell count");
  }
  for (int c = 0; c < cfg.cols; ++c) {
    for (int r = 0; r < cfg.rows; ++r) {
      for (int b = 0; b < cfg.mcr; ++b) {
        const int bit = model.read_bit(c, r, b);
        sim_->set_state(cells[md_.bitcell_index(c, r, b)],
                        invert ? bit ^ 1 : bit);
      }
    }
  }
}

void MacroTestbench::idle_controls() {
  sim_->set_input("neg", 0);
  sim_->set_input("clr", 0);
  sim_->set_input("cap", 0);
  sim_->set_input("load", 0);
  sim_->set_input("wen", 0);
}

void MacroTestbench::set_bank_select(int bank) {
  const auto& cfg = md_.cfg;
  if (bank < 0 || bank >= cfg.mcr) {
    throw std::out_of_range("MacroTestbench: bad bank");
  }
  if (cfg.mux == rtlgen::MuxStyle::kOai22Fused) {
    for (int k = 0; k < cfg.mcr; ++k) {
      sim_->set_input(netlist::bus_name("selh", k), k == bank ? 1 : 0);
    }
  } else if (cfg.mcr > 1) {
    sim_->set_input_bus("bsel", static_cast<std::uint64_t>(bank),
                        log2i(cfg.mcr));
  }
}

void MacroTestbench::set_mode(int wp) {
  const int n = log2i(md_.cfg.max_weight_bits());
  for (int s = 1; s <= n; ++s) {
    sim_->set_input(netlist::bus_name("mode", s - 1),
                    (1 << s) == wp ? 1 : 0);
  }
}

std::vector<std::int64_t> MacroTestbench::read_outputs(int wp, int lane) {
  const auto& cfg = md_.cfg;
  const int wp_max = cfg.max_weight_bits();
  const int stage = log2i(wp);
  const rtlgen::OfuModuleConfig ocfg{wp_max, cfg.sa_width(), cfg.ofu};
  const int width = ocfg.stage_width(stage);
  const int n_out = cfg.cols / wp;
  const int per_group = wp_max / wp;
  std::vector<std::int64_t> out;
  out.reserve(static_cast<std::size_t>(n_out));
  for (int o = 0; o < n_out; ++o) {
    const int g = o / per_group, j = o % per_group;
    const std::uint64_t raw =
        sim_->output_bus_lane(MacroDesign::out_bus(g, stage, j), width, lane);
    out.push_back(num::sign_extend(raw, width));
  }
  return out;
}

std::vector<std::int64_t> MacroTestbench::run_mac_int(
    const std::vector<std::int64_t>& inputs, int ib, int wp, int bank,
    bool signed_inputs) {
  const auto& cfg = md_.cfg;
  if (static_cast<int>(inputs.size()) != cfg.rows) {
    throw std::invalid_argument("run_mac_int: wrong input count");
  }
  const int ib_max = cfg.max_input_bits();
  idle_controls();
  set_bank_select(bank);
  set_mode(wp);
  if (!cfg.fp_formats.empty()) sim_->set_input("fp_sel", 0);

  // Load cycle: parallel inputs, MSB-aligned in the PISO.
  sim_->set_input("load", 1);
  const std::uint64_t mask = ib >= 64 ? ~0ull : ((1ull << ib) - 1);
  for (int r = 0; r < cfg.rows; ++r) {
    const std::uint64_t v =
        (static_cast<std::uint64_t>(inputs[static_cast<std::size_t>(r)]) &
         mask)
        << (ib_max - ib);
    sim_->set_input_bus("din" + std::to_string(r), v, ib_max);
  }
  sim_->step();
  sim_->set_input("load", 0);

  // Compute cycles.
  const int sa_done = md_.sa_done_cycles(ib);
  for (int t = 1; t <= sa_done; ++t) {
    sim_->set_input("neg", (t == 1 && signed_inputs) ? 1 : 0);
    sim_->set_input("clr", t == 1 ? 1 : 0);
    sim_->step();
  }

  const bool raw_tap = wp == 1 && cfg.ofu.retime_stage1;
  if (cfg.ofu.input_reg && !raw_tap) {
    sim_->set_input("cap", 1);
    sim_->step();
    sim_->set_input("cap", 0);
    const rtlgen::OfuModuleConfig ocfg{cfg.max_weight_bits(),
                                       cfg.sa_width(), cfg.ofu};
    for (int t = 0; t < ocfg.regs_through(log2i(wp)); ++t) sim_->step();
  }
  sim_->eval();
  return read_outputs(wp);
}

std::vector<std::vector<std::int64_t>> MacroTestbench::run_mac_int_lanes(
    const std::vector<std::vector<std::int64_t>>& lane_inputs, int ib,
    int wp, int bank, bool signed_inputs) {
  const auto& cfg = md_.cfg;
  const int lanes = sim_->lanes();
  if (static_cast<int>(lane_inputs.size()) != lanes) {
    throw std::invalid_argument("run_mac_int_lanes: wrong lane count");
  }
  for (const auto& li : lane_inputs) {
    if (static_cast<int>(li.size()) != cfg.rows) {
      throw std::invalid_argument("run_mac_int_lanes: wrong input count");
    }
  }
  const int ib_max = cfg.max_input_bits();
  idle_controls();
  set_bank_select(bank);
  set_mode(wp);
  if (!cfg.fp_formats.empty()) sim_->set_input("fp_sel", 0);

  // Load cycle: parallel inputs, MSB-aligned in the PISO, one independent
  // value per lane.
  sim_->set_input("load", 1);
  const std::uint64_t mask = ib >= 64 ? ~0ull : ((1ull << ib) - 1);
  std::vector<std::uint64_t> vals(static_cast<std::size_t>(lanes));
  for (int r = 0; r < cfg.rows; ++r) {
    for (int l = 0; l < lanes; ++l) {
      vals[static_cast<std::size_t>(l)] =
          (static_cast<std::uint64_t>(
               lane_inputs[static_cast<std::size_t>(l)]
                          [static_cast<std::size_t>(r)]) &
           mask)
          << (ib_max - ib);
    }
    sim_->set_input_bus_lanes("din" + std::to_string(r), vals, ib_max);
  }
  sim_->step();
  sim_->set_input("load", 0);

  // Compute cycles (controls broadcast to every lane).
  const int sa_done = md_.sa_done_cycles(ib);
  for (int t = 1; t <= sa_done; ++t) {
    sim_->set_input("neg", (t == 1 && signed_inputs) ? 1 : 0);
    sim_->set_input("clr", t == 1 ? 1 : 0);
    sim_->step();
  }

  const bool raw_tap = wp == 1 && cfg.ofu.retime_stage1;
  if (cfg.ofu.input_reg && !raw_tap) {
    sim_->set_input("cap", 1);
    sim_->step();
    sim_->set_input("cap", 0);
    const rtlgen::OfuModuleConfig ocfg{cfg.max_weight_bits(),
                                       cfg.sa_width(), cfg.ofu};
    for (int t = 0; t < ocfg.regs_through(log2i(wp)); ++t) sim_->step();
  }
  sim_->eval();
  std::vector<std::vector<std::int64_t>> out;
  out.reserve(static_cast<std::size_t>(lanes));
  for (int l = 0; l < lanes; ++l) out.push_back(read_outputs(wp, l));
  return out;
}

std::vector<std::int64_t> MacroTestbench::run_mac_fp(
    const std::vector<std::uint32_t>& inputs, num::FpFormat fmt, int bank) {
  const auto& cfg = md_.cfg;
  if (cfg.fp_formats.empty()) {
    throw std::logic_error("run_mac_fp: macro has no FP support");
  }
  if (static_cast<int>(inputs.size()) != cfg.rows) {
    throw std::invalid_argument("run_mac_fp: wrong input count");
  }
  // The alignment hardware is sized for the widest configured format;
  // narrower encodings must be re-encoded by the caller (exact embedding).
  const num::FpFormat* widest = nullptr;
  for (const auto& f : cfg.fp_formats) {
    if (!widest || f.storage_bits() > widest->storage_bits()) widest = &f;
  }
  if (!(fmt == *widest)) {
    throw std::invalid_argument(
        "run_mac_fp: encode inputs in the macro's widest FP format");
  }

  idle_controls();
  set_bank_select(bank);
  const int wp = cfg.max_weight_bits();
  set_mode(wp);
  sim_->set_input("fp_sel", 1);
  const int ib_max = cfg.max_input_bits();
  for (int r = 0; r < cfg.rows; ++r) {
    const num::FpFields f = num::fp_split(inputs[static_cast<std::size_t>(r)],
                                          fmt);
    sim_->set_input_bus("fexp" + std::to_string(r),
                        static_cast<std::uint64_t>(f.exp_raw), fmt.exp_bits);
    sim_->set_input_bus("fman" + std::to_string(r),
                        static_cast<std::uint64_t>(f.man_raw), fmt.man_bits);
    sim_->set_input("fsgn" + std::to_string(r), f.sign);
    sim_->set_input_bus("din" + std::to_string(r), 0, ib_max);
  }
  // Let the pipelined alignment unit settle before loading the PISOs.
  for (int t = 0; t < md_.align_latency(); ++t) sim_->step();
  sim_->set_input("load", 1);
  sim_->step();
  sim_->set_input("load", 0);

  const int ib = num::aligned_mant_bits(fmt, cfg.fp_guard_bits);
  const int sa_done = md_.sa_done_cycles(ib);
  for (int t = 1; t <= sa_done; ++t) {
    sim_->set_input("neg", t == 1 ? 1 : 0);
    sim_->set_input("clr", t == 1 ? 1 : 0);
    sim_->step();
  }
  if (cfg.ofu.input_reg) {
    sim_->set_input("cap", 1);
    sim_->step();
    sim_->set_input("cap", 0);
    const rtlgen::OfuModuleConfig ocfg{wp, cfg.sa_width(), cfg.ofu};
    for (int t = 0; t < ocfg.regs_through(log2i(wp)); ++t) sim_->step();
  }
  sim_->eval();
  return read_outputs(wp);
}

void MacroTestbench::write_row_via_port(int row, int bank,
                                        const std::vector<int>& bits) {
  const auto& cfg = md_.cfg;
  if (static_cast<int>(bits.size()) != cfg.cols) {
    throw std::invalid_argument("write_row_via_port: wrong column count");
  }
  idle_controls();
  sim_->set_input("wen", 1);
  sim_->set_input_bus("waddr", static_cast<std::uint64_t>(row),
                      log2i(cfg.rows));
  if (cfg.mcr > 1) {
    sim_->set_input_bus("wbank", static_cast<std::uint64_t>(bank),
                        log2i(cfg.mcr));
  }
  for (int c = 0; c < cfg.cols; ++c) {
    sim_->set_input(netlist::bus_name("wd", c),
                    bits[static_cast<std::size_t>(c)]);
  }
  sim_->step();  // command registered
  sim_->set_input("wen", 0);
  sim_->step();  // wordline pulses; bitcells capture
}

}  // namespace syndcim::sim
