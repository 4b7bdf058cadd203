#include "rtlgen/macro.hpp"

#include <bit>
#include <optional>
#include <stdexcept>

#include "num/alignment.hpp"
#include "rtlgen/adder_tree.hpp"
#include "rtlgen/alignment_unit.hpp"
#include "rtlgen/content_key.hpp"
#include "rtlgen/drivers.hpp"
#include "rtlgen/gates.hpp"
#include "rtlgen/ofu.hpp"
#include "rtlgen/shift_adder.hpp"

namespace syndcim::rtlgen {

using netlist::Conn;
using netlist::Module;
using netlist::NetId;
using netlist::PortDir;

namespace {

[[nodiscard]] int log2i(int v) {
  return std::bit_width(static_cast<unsigned>(v)) - 1;
}

/// Distribution buffer tree for a control signal fanning out to `n`
/// consumers: returns one leaf net per consumer, 8 consumers per leaf
/// buffer, with a strong root buffer above 8 leaves.
[[nodiscard]] std::vector<NetId> distribute(GateBuilder& gb, NetId src,
                                            int n) {
  const int n_leaves = (n + 7) / 8;
  const NetId root = n_leaves > 1 ? gb.buf(src, "BUFX16") : src;
  std::vector<NetId> leaves;
  leaves.reserve(static_cast<std::size_t>(n_leaves));
  for (int i = 0; i < n_leaves; ++i) leaves.push_back(gb.buf(root, "BUFX8"));
  std::vector<NetId> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(leaves[static_cast<std::size_t>(i / 8)]);
  }
  return out;
}

/// Picks the widest configured FP format (the alignment unit is sized for
/// it; narrower formats embed into it).
[[nodiscard]] const num::FpFormat* widest_fp(const MacroConfig& cfg) {
  const num::FpFormat* best = nullptr;
  for (const num::FpFormat& f : cfg.fp_formats) {
    if (!best || f.storage_bits() > best->storage_bits()) best = &f;
  }
  return best;
}

/// Builds the per-column module: bitcells, mux+multiplier, adder tree
/// segment(s), segment combiner, optional tree register and the S&A.
Module gen_column(const MacroConfig& cfg, const std::string& tree_mod,
                  const std::string& sa_mod) {
  Module m("dcim_col");
  GateBuilder gb(m, "c_");
  const int rows = cfg.rows;
  const int mcr = cfg.mcr;
  const int split = cfg.column_split;
  const int seg_rows = cfg.segment_rows();
  const int seg_bits = log2i(seg_rows) + 1;
  const int k = log2i(rows) + 1;
  const int w = cfg.sa_width();

  const NetId clk = m.add_port("clk", PortDir::kIn);
  const NetId neg = m.add_port("neg", PortDir::kIn);
  const NetId clr = m.add_port("clr", PortDir::kIn);
  const NetId wdata = m.add_port("wdata", PortDir::kIn);
  const auto act = m.add_port_bus("act", PortDir::kIn, rows);
  const auto wl = m.add_port_bus("wl", PortDir::kIn, rows * mcr);
  const auto acc = m.add_port_bus("acc", PortDir::kOut, w);

  const bool oai = cfg.mux == MuxStyle::kOai22Fused;
  std::vector<NetId> gseln, bsel;
  if (oai) {
    gseln = m.add_port_bus("gseln", PortDir::kIn, rows * mcr);
  } else if (mcr > 1) {
    bsel = m.add_port_bus("bsel", PortDir::kIn, log2i(mcr));
  }

  // Bitcells + per-row mux/multiplier.
  const char* bitcell = bitcell_cell_name(cfg.bitcell);
  std::vector<NetId> products;
  products.reserve(static_cast<std::size_t>(rows));
  for (int r = 0; r < rows; ++r) {
    std::vector<NetId> q;
    q.reserve(static_cast<std::size_t>(mcr));
    for (int b = 0; b < mcr; ++b) {
      const NetId qn = m.add_net("q_" + std::to_string(r) + "_" +
                                 std::to_string(b));
      m.add_cell("cell_" + std::to_string(r) + "_" + std::to_string(b),
                 bitcell,
                 {{"WL", wl[static_cast<std::size_t>(r * mcr + b)]},
                  {"D", wdata},
                  {"Q", qn}});
      q.push_back(qn);
    }
    NetId p;
    if (oai) {
      if (mcr == 2) {
        p = gb.oai22(q[0], gseln[static_cast<std::size_t>(r * 2)], q[1],
                     gseln[static_cast<std::size_t>(r * 2 + 1)]);
      } else {  // mcr == 1
        p = gb.nor2(q[0], gseln[static_cast<std::size_t>(r)]);
      }
    } else {
      // Binary mux tree of TG or pass-gate 2:1 cells.
      const std::string mux_cell =
          cfg.mux == MuxStyle::kPassGate1T ? "PGMUXX1" : "TGMUXX1";
      std::vector<NetId> level = q;
      int sel_bit = 0;
      while (level.size() > 1) {
        std::vector<NetId> next;
        for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
          next.push_back(gb.mux2(level[i], level[i + 1],
                                 bsel[static_cast<std::size_t>(sel_bit)],
                                 mux_cell));
        }
        if (level.size() % 2 == 1) next.push_back(level.back());
        level = std::move(next);
        ++sel_bit;
      }
      p = gb.and2(act[r], level[0]);
    }
    products.push_back(p);
  }

  // Adder tree segment instances (tree module exposes sv/cv when the CPA
  // is retimed into the S&A).
  const bool redundant = cfg.pipe.retime_tree_cpa;
  std::vector<std::vector<NetId>> seg_sums;
  std::vector<NetId> sv, cv;
  for (int s = 0; s < split; ++s) {
    std::vector<Conn> conns;
    for (int i = 0; i < seg_rows; ++i) {
      conns.push_back(
          {netlist::bus_name("in", i),
           products[static_cast<std::size_t>(s * seg_rows + i)]});
    }
    if (redundant) {
      sv = m.add_bus("sv" + std::to_string(s), seg_bits);
      cv = m.add_bus("cv" + std::to_string(s), seg_bits);
      for (int i = 0; i < seg_bits; ++i) {
        conns.push_back({netlist::bus_name("sv", i),
                         sv[static_cast<std::size_t>(i)]});
        conns.push_back({netlist::bus_name("cv", i),
                         cv[static_cast<std::size_t>(i)]});
      }
    } else {
      auto sum = m.add_bus("tsum" + std::to_string(s), seg_bits);
      for (int i = 0; i < seg_bits; ++i) {
        conns.push_back({netlist::bus_name("sum", i),
                         sum[static_cast<std::size_t>(i)]});
      }
      seg_sums.push_back(std::move(sum));
    }
    m.add_submodule("tree_seg" + std::to_string(s), tree_mod,
                    std::move(conns));
  }

  // Segment combiner (tt3 column split): binary RCA tree in the S&A stage.
  std::vector<NetId> psum;
  if (!redundant) {
    std::vector<std::vector<NetId>> vals = std::move(seg_sums);
    while (vals.size() > 1) {
      std::vector<std::vector<NetId>> next;
      for (std::size_t i = 0; i + 1 < vals.size(); i += 2) {
        const int ww = static_cast<int>(vals[i].size());
        auto add = gb.rca(gb.zext(vals[i], ww), gb.zext(vals[i + 1], ww));
        add.sum.push_back(add.cout);
        next.push_back(std::move(add.sum));
      }
      if (vals.size() % 2 == 1) next.push_back(vals.back());
      vals = std::move(next);
    }
    psum = gb.zext(vals[0], k);
  }

  // Pipeline register between tree and S&A (+ matched control delays).
  NetId neg_c = neg, clr_c = clr;
  if (cfg.pipe.reg_after_tree) {
    neg_c = gb.dff(neg, clk);
    clr_c = gb.dff(clr, clk);
    if (redundant) {
      sv = gb.dff_bus(sv, clk);
      cv = gb.dff_bus(cv, clk);
    } else {
      psum = gb.dff_bus(psum, clk);
    }
  }

  // Split happens before the combiner, so psum is k bits; the redundant
  // form keeps the segment width (split==1 enforced by validate()).
  std::vector<Conn> sa_conns = {
      {"clk", clk}, {"neg", neg_c}, {"clr", clr_c}};
  if (redundant) {
    for (int i = 0; i < seg_bits; ++i) {
      sa_conns.push_back({netlist::bus_name("sv", i),
                          sv[static_cast<std::size_t>(i)]});
      sa_conns.push_back({netlist::bus_name("cv", i),
                          cv[static_cast<std::size_t>(i)]});
    }
  } else {
    for (int i = 0; i < k; ++i) {
      sa_conns.push_back({netlist::bus_name("p", i),
                          psum[static_cast<std::size_t>(i)]});
    }
  }
  for (int i = 0; i < w; ++i) {
    sa_conns.push_back({netlist::bus_name("acc", i), acc[i]});
  }
  m.add_submodule("sa", sa_mod, std::move(sa_conns));
  return m;
}

/// Builds the top module `name` (defined after gen_macro, which emits it
/// through the module tier like every subcircuit).
Module gen_top(const MacroConfig& cfg, const std::string& name);

}  // namespace

std::vector<std::string> MacroDesign::static_control_ports() const {
  std::vector<std::string> out;
  const bool oai = cfg.mux == MuxStyle::kOai22Fused;
  if (oai) {
    for (int k = 0; k < cfg.mcr; ++k) {
      out.push_back(netlist::bus_name("selh", k));
    }
  } else if (cfg.mcr > 1) {
    for (int i = 0; i < log2i(cfg.mcr); ++i) {
      out.push_back(netlist::bus_name("bsel", i));
    }
  }
  const OfuModuleConfig ocfg{cfg.max_weight_bits(), cfg.sa_width(), cfg.ofu};
  for (int s = 0; s < ocfg.n_stages(); ++s) {
    out.push_back(netlist::bus_name("mode", s));
  }
  if (!cfg.fp_formats.empty()) out.push_back("fp_sel");
  return out;
}

int MacroDesign::align_latency() const {
  if (cfg.fp_formats.empty()) return 0;
  const num::FpFormat* fp = widest_fp(cfg);
  AlignmentConfig acfg{*fp, cfg.rows, cfg.fp_guard_bits, /*pipelined=*/true};
  return acfg.latency_cycles();
}

int MacroDesign::ofu_valid_cycle(int input_bits, int stage) const {
  const int acc_ready = sa_done_cycles(input_bits) + 1;
  if (!cfg.ofu.input_reg) return acc_ready;  // combinational OFU
  // Captured at the end of acc_ready; registered outputs valid next
  // cycle, plus one more per tt5 pipeline register on the way.
  const OfuModuleConfig ocfg{cfg.max_weight_bits(), cfg.sa_width(), cfg.ofu};
  return acc_ready + 1 + ocfg.regs_through(stage);
}

MacroDesign gen_macro(const MacroConfig& cfg) {
  return gen_macro(cfg, nullptr);
}

MacroDesign gen_macro(const MacroConfig& cfg, ModuleCache* modules) {
  cfg.validate();
  MacroDesign md;
  md.cfg = cfg;

  const int rows = cfg.rows, cols = cfg.cols, mcr = cfg.mcr;
  const int ib_max = cfg.max_input_bits();
  const int wp_max = cfg.max_weight_bits();
  const int w = cfg.sa_width();
  const num::FpFormat* fp = widest_fp(cfg);
  const int am_bits =
      fp ? num::aligned_mant_bits(*fp, cfg.fp_guard_bits) : 0;

  // Emits one module under its content key: from the module tier when
  // one is given, generated otherwise. On a miss the tier keeps an
  // exact-capacity copy and the design takes the generated original, so
  // no long-lived entry carries the generator's push_back slack.
  const auto emit = [&](const std::string& name, const std::string& key,
                        auto&& gen) {
    if (modules == nullptr) {
      md.design.add_module(gen());
      return;
    }
    std::optional<Module> built;
    const auto m = modules->get_or_compute(key + "|" + name, [&] {
      built = gen();
      return Module(*built);
    });
    if (built) {
      md.design.add_module(std::move(*built));
    } else {
      md.design.add_module(*m);
    }
  };

  // --- subcircuit modules ---
  AdderTreeConfig tcfg = cfg.tree;
  tcfg.rows = cfg.segment_rows();
  tcfg.external_cpa = cfg.pipe.retime_tree_cpa;
  emit("tree", tree_content_key(tcfg),
       [&] { return gen_adder_tree(tcfg, "tree"); });

  ShiftAdderConfig scfg;
  scfg.psum_bits = cfg.pipe.retime_tree_cpa ? tcfg.sum_bits()
                                            : log2i(rows) + 1;
  scfg.width = w;
  scfg.redundant_psum = cfg.pipe.retime_tree_cpa;
  emit("sa", shift_adder_content_key(scfg),
       [&] { return gen_shift_adder(scfg, "sa"); });

  OfuModuleConfig ocfg{wp_max, w, cfg.ofu};
  emit("ofu_g", ofu_content_key(ocfg), [&] { return gen_ofu(ocfg, "ofu_g"); });

  WlDriverConfig wcfg{rows, ib_max, am_bits, mcr,
                      cfg.mux == MuxStyle::kOai22Fused, cols};
  emit("wldrv", wl_driver_content_key(wcfg),
       [&] { return gen_wl_driver(wcfg, "wldrv"); });

  WritePortConfig pcfg{rows, cols, mcr,
                       cfg.mux == MuxStyle::kOai22Fused};
  emit("wrport", write_port_content_key(pcfg),
       [&] { return gen_write_port(pcfg, "wrport"); });

  if (fp) {
    AlignmentConfig acfg{*fp, rows, cfg.fp_guard_bits, /*pipelined=*/true};
    emit("align", alignment_content_key(acfg),
         [&] { return gen_alignment_unit(acfg, "align"); });
  }

  // The column module references tree/sa by name.
  emit("dcim_col", column_content_key(cfg),
       [&] { return gen_column(cfg, "tree", "sa"); });

  // --- top ---
  emit(md.top, "top1-" + config_content_key(cfg),
       [&] { return gen_top(cfg, md.top); });
  return md;
}

namespace {

/// Builds the top module `name`: ports, the alignment unit, WL driver,
/// write port, columns and OFU groups, with per-cycle controls reaching
/// the columns through distribution trees.
Module gen_top(const MacroConfig& cfg, const std::string& name) {
  const int rows = cfg.rows, cols = cfg.cols, mcr = cfg.mcr;
  const int ib_max = cfg.max_input_bits();
  const int wp_max = cfg.max_weight_bits();
  const int w = cfg.sa_width();
  const num::FpFormat* fp = widest_fp(cfg);
  const int am_bits =
      fp ? num::aligned_mant_bits(*fp, cfg.fp_guard_bits) : 0;
  const OfuModuleConfig ocfg{wp_max, w, cfg.ofu};

  Module top(name);
  const NetId clk = top.add_port("clk", PortDir::kIn);
  const NetId neg = top.add_port("neg", PortDir::kIn);
  const NetId clr = top.add_port("clr", PortDir::kIn);
  const NetId cap = top.add_port("cap", PortDir::kIn);
  const NetId load = top.add_port("load", PortDir::kIn);
  const int n_stages = ocfg.n_stages();
  std::vector<NetId> mode;
  if (n_stages > 0) mode = top.add_port_bus("mode", PortDir::kIn, n_stages);
  const NetId wen = top.add_port("wen", PortDir::kIn);
  const auto waddr = top.add_port_bus("waddr", PortDir::kIn, log2i(rows));
  std::vector<NetId> wbank;
  if (mcr > 1) wbank = top.add_port_bus("wbank", PortDir::kIn, log2i(mcr));
  const auto wd = top.add_port_bus("wd", PortDir::kIn, cols);

  const bool oai = cfg.mux == MuxStyle::kOai22Fused;
  std::vector<NetId> selh, bsel;
  if (oai) {
    selh = top.add_port_bus("selh", PortDir::kIn, mcr);
  } else if (mcr > 1) {
    bsel = top.add_port_bus("bsel", PortDir::kIn, log2i(mcr));
  }
  NetId fp_sel;
  if (fp) fp_sel = top.add_port("fp_sel", PortDir::kIn);

  // Alignment unit.
  std::vector<std::vector<NetId>> am_nets;
  if (fp) {
    std::vector<Conn> conns = {{"clk", clk}};
    for (int r = 0; r < rows; ++r) {
      const auto fe = top.add_port_bus("fexp" + std::to_string(r),
                                       PortDir::kIn, fp->exp_bits);
      const auto fm = top.add_port_bus("fman" + std::to_string(r),
                                       PortDir::kIn, fp->man_bits);
      const NetId fs = top.add_port("fsgn" + std::to_string(r), PortDir::kIn);
      for (int i = 0; i < fp->exp_bits; ++i) {
        conns.push_back({netlist::bus_name("exp" + std::to_string(r), i),
                         fe[static_cast<std::size_t>(i)]});
      }
      for (int i = 0; i < fp->man_bits; ++i) {
        conns.push_back({netlist::bus_name("man" + std::to_string(r), i),
                         fm[static_cast<std::size_t>(i)]});
      }
      conns.push_back({"sgn" + std::to_string(r), fs});
      std::vector<NetId> am;
      for (int i = 0; i < am_bits; ++i) {
        am.push_back(top.add_net("am_" + std::to_string(r) + "_" +
                                 std::to_string(i)));
        conns.push_back({netlist::bus_name("am" + std::to_string(r), i),
                         am.back()});
      }
      am_nets.push_back(std::move(am));
    }
    top.add_submodule("align", "align", std::move(conns));
  }

  // WL driver.
  std::vector<NetId> act(static_cast<std::size_t>(rows));
  std::vector<NetId> gseln;
  {
    std::vector<Conn> conns = {{"clk", clk}, {"load", load}};
    if (fp) conns.push_back({"fp_sel", fp_sel});
    for (int r = 0; r < rows; ++r) {
      const auto din = top.add_port_bus("din" + std::to_string(r),
                                        PortDir::kIn, ib_max);
      for (int i = 0; i < ib_max; ++i) {
        conns.push_back({netlist::bus_name("din" + std::to_string(r), i),
                         din[static_cast<std::size_t>(i)]});
      }
      if (fp) {
        for (int i = 0; i < am_bits; ++i) {
          conns.push_back({netlist::bus_name("am" + std::to_string(r), i),
                           am_nets[static_cast<std::size_t>(r)]
                                  [static_cast<std::size_t>(i)]});
        }
      }
      act[static_cast<std::size_t>(r)] =
          top.add_net("act_" + std::to_string(r));
      conns.push_back({netlist::bus_name("act", r),
                       act[static_cast<std::size_t>(r)]});
    }
    if (oai) {
      for (int k = 0; k < mcr; ++k) {
        conns.push_back({netlist::bus_name("selh", k),
                         selh[static_cast<std::size_t>(k)]});
      }
      for (int i = 0; i < rows * mcr; ++i) {
        gseln.push_back(top.add_net("gseln_" + std::to_string(i)));
        conns.push_back({netlist::bus_name("gseln", i), gseln.back()});
      }
    }
    top.add_submodule("wldrv", "wldrv", std::move(conns));
  }

  // Write port.
  std::vector<NetId> wl, wdata;
  {
    std::vector<Conn> conns = {{"clk", clk}, {"wen", wen}};
    for (int i = 0; i < log2i(rows); ++i) {
      conns.push_back({netlist::bus_name("waddr", i),
                       waddr[static_cast<std::size_t>(i)]});
    }
    for (int i = 0; i < log2i(mcr); ++i) {
      conns.push_back({netlist::bus_name("wbank", i),
                       wbank[static_cast<std::size_t>(i)]});
    }
    for (int c = 0; c < cols; ++c) {
      conns.push_back({netlist::bus_name("wd", c),
                       wd[static_cast<std::size_t>(c)]});
    }
    for (int i = 0; i < rows * mcr; ++i) {
      wl.push_back(top.add_net("wl_" + std::to_string(i)));
      conns.push_back({netlist::bus_name("wl", i), wl.back()});
    }
    for (int c = 0; c < cols; ++c) {
      wdata.push_back(top.add_net("wdata_" + std::to_string(c)));
      conns.push_back({netlist::bus_name("wdata", c), wdata.back()});
    }
    top.add_submodule("wrport", "wrport", std::move(conns));
  }

  // Columns; per-cycle controls reach them through distribution trees.
  GateBuilder top_gb(top, "ctl_");
  const auto neg_d = distribute(top_gb, neg, cols);
  const auto clr_d = distribute(top_gb, clr, cols);
  std::vector<std::vector<NetId>> col_acc;
  for (int c = 0; c < cols; ++c) {
    std::vector<Conn> conns = {{"clk", clk},
                               {"neg", neg_d[static_cast<std::size_t>(c)]},
                               {"clr", clr_d[static_cast<std::size_t>(c)]},
                               {"wdata", wdata[static_cast<std::size_t>(c)]}};
    for (int r = 0; r < rows; ++r) {
      conns.push_back({netlist::bus_name("act", r),
                       act[static_cast<std::size_t>(r)]});
    }
    for (int i = 0; i < rows * mcr; ++i) {
      conns.push_back({netlist::bus_name("wl", i),
                       wl[static_cast<std::size_t>(i)]});
    }
    if (oai) {
      for (int i = 0; i < rows * mcr; ++i) {
        conns.push_back({netlist::bus_name("gseln", i),
                         gseln[static_cast<std::size_t>(i)]});
      }
    } else if (mcr > 1) {
      for (int i = 0; i < log2i(mcr); ++i) {
        conns.push_back({netlist::bus_name("bsel", i),
                         bsel[static_cast<std::size_t>(i)]});
      }
    }
    std::vector<NetId> acc;
    for (int i = 0; i < w; ++i) {
      acc.push_back(
          top.add_net("acc_" + std::to_string(c) + "_" + std::to_string(i)));
      conns.push_back({netlist::bus_name("acc", i), acc.back()});
    }
    col_acc.push_back(std::move(acc));
    top.add_submodule("col" + std::to_string(c), "dcim_col",
                      std::move(conns));
  }

  // OFU groups.
  const int n_groups = cols / wp_max;
  const auto cap_d = distribute(top_gb, cap, n_groups);
  for (int g = 0; g < n_groups; ++g) {
    std::vector<Conn> conns = {{"clk", clk},
                               {"cap", cap_d[static_cast<std::size_t>(g)]}};
    for (int s = 0; s < n_stages; ++s) {
      conns.push_back({netlist::bus_name("mode", s),
                       mode[static_cast<std::size_t>(s)]});
    }
    for (int j = 0; j < wp_max; ++j) {
      const auto& acc = col_acc[static_cast<std::size_t>(g * wp_max + j)];
      for (int i = 0; i < w; ++i) {
        conns.push_back(
            {netlist::bus_name("r" + std::to_string(j), i),
             acc[static_cast<std::size_t>(i)]});
      }
    }
    // Expose every stage output as macro ports.
    for (int s = 0; s <= n_stages; ++s) {
      const int n_res = wp_max >> s;
      const int sw = ocfg.stage_width(s);
      for (int j = 0; j < n_res; ++j) {
        const auto out =
            top.add_port_bus(MacroDesign::out_bus(g, s, j), PortDir::kOut,
                             sw);
        for (int i = 0; i < sw; ++i) {
          conns.push_back(
              {netlist::bus_name(
                   "s" + std::to_string(s) + "_r" + std::to_string(j), i),
               out[static_cast<std::size_t>(i)]});
        }
      }
    }
    top.add_submodule("ofu_g" + std::to_string(g), "ofu_g",
                      std::move(conns));
  }

  return top;
}

}  // namespace

}  // namespace syndcim::rtlgen
