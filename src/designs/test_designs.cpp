#include "designs/test_designs.h"

#include <string>

#include "netlist/builder.h"
#include "netlist/refsim.h"

namespace vscrub::designs {

Netlist lfsr_cluster(int clusters, int lfsr_width, int lfsrs_per_cluster) {
  VSCRUB_CHECK(clusters >= 1, "need at least one cluster");
  Netlist nl("lfsr_" + std::to_string(clusters));
  Builder b(nl);
  // One seed input keeps the design externally controllable (the testbench
  // gates the LFSRs' clock-enable to start them deterministically).
  const NetId run = nl.add_input("run");
  for (int c = 0; c < clusters; ++c) {
    Bus cluster_bits;
    for (int l = 0; l < lfsrs_per_cluster; ++l) {
      // Distinct non-zero seeds per LFSR keep the cluster outputs mixed.
      const u64 seed =
          (static_cast<u64>(c) * 2654435761u + static_cast<u64>(l) * 40503u + 1) &
          ((u64{1} << lfsr_width) - 1);
      const Bus q = b.lfsr(static_cast<std::size_t>(lfsr_width), 0,
                           seed == 0 ? 1 : seed, run);
      cluster_bits.push_back(q[static_cast<std::size_t>(lfsr_width) - 1]);
    }
    nl.add_output("o[" + std::to_string(c) + "]", b.xor_reduce(cluster_bits));
  }
  return nl;
}

Netlist mult_tree(int operand_width, int pipeline_rows) {
  VSCRUB_CHECK(operand_width >= 4 && operand_width % 2 == 0,
               "operand width must be even and >= 4");
  Netlist nl("mult_" + std::to_string(operand_width));
  Builder b(nl);
  const Bus a = b.input_bus("a", static_cast<std::size_t>(operand_width));
  const Bus bb = b.input_bus("b", static_cast<std::size_t>(operand_width));

  // Split each operand into low/high halves; compute the four cross
  // products in parallel (the "parallel tree of multipliers and adders" of
  // Fig. 9), then sum with shifts in an adder tree.
  const std::size_t h = static_cast<std::size_t>(operand_width) / 2;
  const Bus al(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(h));
  const Bus ah(a.begin() + static_cast<std::ptrdiff_t>(h), a.end());
  const Bus bl(bb.begin(), bb.begin() + static_cast<std::ptrdiff_t>(h));
  const Bus bh(bb.begin() + static_cast<std::ptrdiff_t>(h), bb.end());

  const Bus p_ll = b.multiply(al, bl, pipeline_rows);
  const Bus p_lh = b.multiply(al, bh, pipeline_rows);
  const Bus p_hl = b.multiply(ah, bl, pipeline_rows);
  const Bus p_hh = b.multiply(ah, bh, pipeline_rows);

  const std::size_t w = 2 * static_cast<std::size_t>(operand_width);
  auto widen = [&](const Bus& p, std::size_t shift) {
    Bus out = b.const_bus(0, w);
    for (std::size_t i = 0; i < p.size() && i + shift < w; ++i) {
      out[i + shift] = p[i];
    }
    return out;
  };
  Bus sum = b.add(widen(p_ll, 0), widen(p_lh, h), /*keep_width=*/true);
  sum = b.register_bus(sum);
  Bus sum2 = b.add(widen(p_hl, h), widen(p_hh, 2 * h), /*keep_width=*/true);
  sum2 = b.register_bus(sum2);
  const Bus total = b.register_bus(b.add(sum, sum2, /*keep_width=*/true));
  b.output_bus("o", total);
  return nl;
}

Netlist vmult(int width, int pipeline_rows) {
  VSCRUB_CHECK(width >= 4 && width % 2 == 0, "width must be even and >= 4");
  Netlist nl("vmult_" + std::to_string(width));
  Builder b(nl);
  const std::size_t lane_w = static_cast<std::size_t>(width) / 2;
  Bus acc;
  for (int lane = 0; lane < 4; ++lane) {
    const std::string idx = std::to_string(lane);
    const Bus x = b.input_bus("x" + idx, lane_w);
    const Bus y = b.input_bus("y" + idx, lane_w);
    Bus p = b.multiply(x, y, pipeline_rows);
    p = b.register_bus(p);
    if (acc.empty()) {
      acc = p;
    } else {
      const std::size_t w = std::max(acc.size(), p.size());
      acc = b.register_bus(b.add(b.zext(acc, w), b.zext(p, w), false));
      if (acc.size() > 2 * lane_w + 2) acc.resize(2 * lane_w + 2);
    }
  }
  b.output_bus("o", acc);
  return nl;
}

Netlist counter_adder(int width) {
  Netlist nl("counter_adder_" + std::to_string(width));
  Builder b(nl);
  const Bus in = b.input_bus("a", static_cast<std::size_t>(width));
  const Bus count = b.counter(static_cast<std::size_t>(width), 1);
  const Bus sum = b.add(count, in, /*keep_width=*/true);
  b.output_bus("o", b.register_bus(sum));
  return nl;
}

Netlist multiply_add(int operand_width, int pipeline_rows) {
  Netlist nl("multiply_add_" + std::to_string(operand_width));
  Builder b(nl);
  const std::size_t w = static_cast<std::size_t>(operand_width);
  const Bus a = b.input_bus("a", w);
  const Bus x = b.input_bus("b", w);
  const Bus c = b.input_bus("c", w);
  Bus p = b.multiply(a, x, pipeline_rows);
  p = b.register_bus(p);
  Bus cw = b.const_bus(0, p.size());
  for (std::size_t i = 0; i < w; ++i) cw[i] = c[i];
  // The addend arrives later than the pipelined product; delay it to match
  // is unnecessary for fault-injection purposes, but register it once so
  // timing stays uniform.
  cw = b.register_bus(cw);
  const Bus sum = b.register_bus(b.add(p, cw, /*keep_width=*/true));
  b.output_bus("o", sum);
  return nl;
}

Netlist lfsr_multiplier(int operand_width, int pipeline_rows) {
  Netlist nl("lfsr_multiplier_" + std::to_string(operand_width));
  Builder b(nl);
  const NetId run = nl.add_input("run");
  const Bus a = b.lfsr(static_cast<std::size_t>(operand_width), 0, 0xACE1, run);
  const Bus x = b.lfsr(static_cast<std::size_t>(operand_width), 0, 0xBEEF, run);
  Bus p = b.multiply(a, x, pipeline_rows);
  p = b.register_bus(p);
  b.output_bus("o", p);
  return nl;
}

Netlist fir_preproc(int taps, int width) {
  VSCRUB_CHECK(taps >= 2, "FIR needs at least two taps");
  Netlist nl("fir_preproc_" + std::to_string(taps));
  Builder b(nl);
  const std::size_t w = static_cast<std::size_t>(width);
  const Bus x = b.input_bus("x", w);

  // Delay line: tap d sees the input delayed by 4*d cycles via SRL16s.
  std::vector<Bus> delayed(static_cast<std::size_t>(taps));
  delayed[0] = x;
  for (int d = 1; d < taps; ++d) {
    Bus stage(w);
    for (std::size_t i = 0; i < w; ++i) {
      stage[i] = b.delay_srl(delayed[static_cast<std::size_t>(d - 1)][i], 4);
    }
    delayed[static_cast<std::size_t>(d)] = stage;
  }

  // Fixed coefficient per tap (odd constants), multiply and accumulate.
  Bus acc;
  for (int d = 0; d < taps; ++d) {
    const u64 coeff = static_cast<u64>(2 * d + 3) & ((u64{1} << 4) - 1);
    const Bus cbus = b.const_bus(coeff | 1, 4);
    Bus p = b.multiply(delayed[static_cast<std::size_t>(d)], cbus, 0);
    p = b.register_bus(p);
    if (acc.empty()) {
      acc = p;
    } else {
      const std::size_t wmax = std::max(acc.size(), p.size());
      acc = b.register_bus(b.add(b.zext(acc, wmax), b.zext(p, wmax), false));
    }
  }
  b.output_bus("y", acc);
  return nl;
}

Netlist bram_selftest(int blocks) {
  Netlist nl("bram_selftest_" + std::to_string(blocks));
  Builder b(nl);
  const Bus addr = b.counter(8, 0);
  const NetId we = nl.const_net(false);
  std::array<NetId, 8> addr_arr{};
  for (int i = 0; i < 8; ++i) addr_arr[static_cast<std::size_t>(i)] = addr[static_cast<std::size_t>(i)];
  std::array<NetId, 16> din{};
  for (auto& d : din) d = nl.const_net(false);

  // Each location holds its own address in both bytes (paper §II-B); the
  // checker compares the two bytes of the read-out word.
  std::vector<u16> init(256);
  for (int a = 0; a < 256; ++a) {
    init[static_cast<std::size_t>(a)] =
        static_cast<u16>((a << 8) | a);
  }

  Bus err_bits;
  for (int blk = 0; blk < blocks; ++blk) {
    const auto ports = nl.add_bram(we, addr_arr, din, init,
                                   "bram" + std::to_string(blk));
    Bus lo(ports.dout.begin(), ports.dout.begin() + 8);
    Bus hi(ports.dout.begin() + 8, ports.dout.end());
    err_bits.push_back(b.not_(b.equals(lo, hi)));
  }
  // Sticky error latch per block.
  for (std::size_t i = 0; i < err_bits.size(); ++i) {
    const NetId placeholder = nl.const_net(false);
    const NetId q = nl.add_ff(placeholder, false);
    const NetId sticky = b.or_(q, err_bits[i]);
    nl.rewire_input(nl.net(q).driver, 0, sticky);
    nl.add_output("err[" + std::to_string(i) + "]", q);
  }
  return nl;
}

namespace {

/// Builds the self-checking datapath with a given expected signature. The
/// public factory runs this twice: once to *measure* the fault-free
/// signature by reference simulation, then with the measured constant baked
/// into the comparator.
Netlist build_selfcheck(int width, int period_log2, u64 signature,
                        bool expose_misr) {
  Netlist nl("selfcheck_dsp_" + std::to_string(width));
  Builder b(nl);
  const std::size_t w = static_cast<std::size_t>(width);
  const std::size_t misr_w = 2 * w;
  const u64 stim_seed = 0x5EED;
  const u64 misr_seed = 0xACE1;
  const NetId placeholder = nl.const_net(false);

  // Test-period counter; `wrap` is high during the last cycle of each
  // 2^period_log2-cycle window.
  const Bus counter = b.counter(static_cast<std::size_t>(period_log2), 0);
  const NetId wrap = b.and_reduce(counter);

  // Stimulus LFSR, reseeded at every wrap so each test window replays the
  // identical vector sequence (that is what makes one expected signature
  // valid forever).
  const std::size_t stim_w = 2 * w;
  Bus stim;
  stim.reserve(stim_w);
  for (std::size_t i = 0; i < stim_w; ++i) {
    stim.push_back(nl.add_ff(placeholder, (stim_seed >> i) & 1));
  }
  {
    const u64 taps = default_lfsr_taps(stim_w);
    Bus tapped;
    for (std::size_t i = 0; i < stim_w; ++i) {
      if ((taps >> i) & 1) tapped.push_back(stim[i]);
    }
    const NetId fb = b.xor_reduce(tapped);
    for (std::size_t i = 0; i < stim_w; ++i) {
      const NetId normal = i == 0 ? fb : stim[i - 1];
      const NetId seed_bit = nl.const_net(((stim_seed >> i) & 1) != 0);
      nl.rewire_input(nl.net(stim[i]).driver, 0,
                      b.mux2(wrap, normal, seed_bit));
    }
  }
  const Bus a(stim.begin(), stim.begin() + static_cast<std::ptrdiff_t>(w));
  const Bus c(stim.begin() + static_cast<std::ptrdiff_t>(w), stim.end());

  // Butterfly-style datapath: (a+b) * (a-b), registered.
  const Bus sum = b.add(a, c, /*keep_width=*/true);
  const Bus diff = b.sub(a, c);
  Bus prod = b.multiply(sum, diff, /*pipeline_rows=*/0);
  // The pipeline register is synchronously cleared at each wrap so every
  // test window starts from the identical machine state.
  Bus data = b.register_bus(b.zext(prod, misr_w), kNoNet, wrap);

  // MISR: rotate-and-fold signature register, reseeded at wrap.
  Bus misr;
  misr.reserve(misr_w);
  for (std::size_t i = 0; i < misr_w; ++i) {
    misr.push_back(nl.add_ff(placeholder, (misr_seed >> (i % 16)) & 1));
  }
  for (std::size_t i = 0; i < misr_w; ++i) {
    const NetId rotated = i == 0 ? misr[misr_w - 1] : misr[i - 1];
    const NetId folded = b.xor_(rotated, data[i]);
    const NetId seed_bit = nl.const_net(((misr_seed >> (i % 16)) & 1) != 0);
    nl.rewire_input(nl.net(misr[i]).driver, 0,
                    b.mux2(wrap, folded, seed_bit));
  }

  // Signature compare at wrap; sticky error latch (the "signal a full
  // reconfiguration is needed" flag of SIV-A).
  Bus expected(misr_w);
  for (std::size_t i = 0; i < misr_w; ++i) {
    expected[i] = nl.const_net((signature >> i) & 1);
  }
  const NetId mismatch = b.and_(wrap, b.not_(b.equals(misr, expected)));
  const NetId err_q = nl.add_ff(placeholder, false);
  nl.rewire_input(nl.net(err_q).driver, 0, b.or_(err_q, mismatch));
  nl.add_output("err", err_q);
  if (expose_misr) b.output_bus("misr", misr);
  // A few datapath bits observed, like any DSP output stream.
  for (std::size_t i = 0; i < std::min<std::size_t>(8, misr_w); ++i) {
    nl.add_output("y[" + std::to_string(i) + "]", data[i]);
  }
  return nl;
}

}  // namespace

Netlist selfcheck_dsp(int width, int period_log2) {
  VSCRUB_CHECK(width >= 4 && width <= 16, "selfcheck width 4..16");
  VSCRUB_CHECK(period_log2 >= 3 && period_log2 <= 12, "period 3..12");
  // Phase 1: measure the fault-free MISR signature at the compare phase.
  Netlist probe = build_selfcheck(width, period_log2, 0, /*expose_misr=*/true);
  RefSim sim(probe);
  const u64 period = u64{1} << period_log2;
  for (u64 cycle = 0; cycle + 1 < period; ++cycle) {
    sim.eval();
    sim.clock();
  }
  sim.eval();  // counter == all-ones: the comparator fires this cycle
  u64 signature = 0;
  const std::size_t misr_w = 2 * static_cast<std::size_t>(width);
  for (std::size_t i = 0; i < misr_w; ++i) {
    if (sim.output(1 + i)) signature |= u64{1} << i;
  }
  // Phase 2: the deliverable design with the measured constant. Stimulus
  // and MISR reseed at every wrap, so the same constant holds for every
  // window of the mission.
  return build_selfcheck(width, period_log2, signature, /*expose_misr=*/false);
}

}  // namespace vscrub::designs
