#include "seu/cache_key.h"

#include <algorithm>
#include <numeric>

#include "sim/fabric_sim.h"

namespace vscrub {
namespace {

constexpr u64 kFnvPrime = 0x100000001B3ULL;
constexpr u64 kBasis = 0xCBF29CE484222325ULL;
// Second, independent digest stream for the 128-bit key.
constexpr u64 kBasis2 = 0x84222325CBF29CE4ULL;

// Sentinels for bits with trivial influence. Distinct non-zero constants so
// the key still distinguishes the *reason* a bit is inert.
constexpr u64 kEdgeSentinel = 0x45444745ULL;  // device edge in a neighbour slot
constexpr u64 kBramSentinel = 0x4252414DULL;  // BRAM bits nothing is bound to
constexpr u64 kPadSentinel = 0x50414444ULL;   // frame padding slots

u64 fnv1a(u64 h, u64 v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}

u64 fnv1a(u64 h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<u8>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// Union-find whose roots are always the smallest tile index of their
/// component, so component identity is deterministic across runs.
class Dsu {
 public:
  explicit Dsu(u32 n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }
  u32 find(u32 x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(u32 a, u32 b) {
    const u32 ra = find(a), rb = find(b);
    if (ra == rb) return;
    if (ra < rb) {
      parent_[rb] = ra;
    } else {
      parent_[ra] = rb;
    }
  }

 private:
  std::vector<u32> parent_;
};

u64 influence_of(const CacheKeyPlan& plan, const ConfigSpace& space,
                 const BitAddress& addr) {
  if (plan.whole_design_influence) return plan.whole_design_hash;
  if (addr.frame.kind == ColumnKind::kBram) return kBramSentinel;
  const ConfigSpace::TileRef ref = space.tile_ref_of(addr);
  if (!ref.valid) return kPadSentinel;
  return plan.tile_influence[space.geometry().tile_index(ref.tile)];
}

/// The stream states every key of one plan and mode shares: the hi stream
/// opens with (mode, arch, stim), the lo stream with its constant. A batch
/// folds them once instead of once per bit.
struct KeyPrefix {
  u64 hi;
  u64 lo;
};

KeyPrefix key_prefix(u64 mode, u64 arch, u64 stim) {
  return {fnv1a(fnv1a(fnv1a(kBasis, mode), arch), stim),
          fnv1a(kBasis2, 0x5C5C5C5C5C5C5C5CULL)};
}

VerdictKey finish_key(const KeyPrefix& prefix, u64 mode, u64 arch, u64 stim,
                      u64 frame_hash, u64 infl, u64 linear) {
  VerdictKey key;
  u64 h = prefix.hi;
  h = fnv1a(h, frame_hash);
  h = fnv1a(h, infl);
  h = fnv1a(h, linear);
  key.hi = h;
  u64 g = prefix.lo;
  g = fnv1a(g, linear);
  g = fnv1a(g, infl);
  g = fnv1a(g, frame_hash);
  g = fnv1a(g, stim);
  g = fnv1a(g, arch);
  g = fnv1a(g, mode);
  key.lo = g;
  return key;
}

VerdictKey derive_key(u64 mode, u64 arch, u64 stim, u64 frame_hash, u64 infl,
                      u64 linear) {
  return finish_key(key_prefix(mode, arch, stim), mode, arch, stim,
                    frame_hash, infl, linear);
}

/// The injector's effective options: its no-dynamic warmup shrink applied,
/// so fingerprints cover the cycle counts that actually run.
InjectionOptions effective_options(const PlacedDesign& design,
                                   const InjectionOptions& options) {
  InjectionOptions eff = options;
  if (design.dynamic_lut_sites.empty()) {
    eff.warmup_cycles =
        std::min(eff.warmup_cycles, eff.warmup_cycles_no_dynamic);
  }
  return eff;
}

u64 arch_fingerprint_of(const DeviceGeometry& geom,
                        const InjectionOptions& eff) {
  u64 a = kBasis;
  // v2: verdicts from injectors that rebuild the fabric after an
  // oscillating run; stores written before that fix must miss.
  a = fnv1a(a, std::string("vvs-key-v2"));
  a = fnv1a(a, geom.name);
  a = fnv1a(a, geom.rows);
  a = fnv1a(a, geom.cols);
  a = fnv1a(a, geom.bram_columns);
  a = fnv1a(a, geom.frame_pad_slots);
  a = fnv1a(a, eff.warmup_cycles);
  a = fnv1a(a, eff.observe_cycles);
  a = fnv1a(a, static_cast<u64>(eff.classify_persistence));
  a = fnv1a(a, eff.persistence_settle);
  a = fnv1a(a, eff.persistence_check);
  // prune_unobservable, gang_width, threads and chunking are
  // result-invariant (either gang engine is bit-for-bit identical to the
  // scalar loop); clock_hz and timing only scale the modeled time, which is
  // recomputed from the live options rather than stored. None belong in the
  // key (same reasoning as the checkpoint fingerprint).
  return a;
}

/// Not part of any key (the stimulus and frame hashes already pin what a
/// verdict depends on); it only names the design a plan was built for.
u64 design_identity_of(const PlacedDesign& design, u64 stim_seed) {
  u64 h = kBasis;
  h = fnv1a(h, design.netlist->name());
  h = fnv1a(h, design.space->geometry().name);
  h = fnv1a(h, design.options.seed);
  h = fnv1a(h, static_cast<u64>(design.options.halflatch_policy));
  h = fnv1a(h, static_cast<u64>(design.stats.slices_used));
  h = fnv1a(h, static_cast<u64>(design.stats.wires_used));
  h = fnv1a(h, static_cast<u64>(design.stats.total_wirelength));
  h = fnv1a(h, stim_seed);
  return h;
}

}  // namespace

bool cache_key_plan_matches(const CacheKeyPlan& plan,
                            const PlacedDesign& design,
                            const InjectionOptions& options) {
  const InjectionOptions eff = effective_options(design, options);
  return plan.arch_fingerprint ==
             arch_fingerprint_of(design.space->geometry(), eff) &&
         plan.design_identity == design_identity_of(design, eff.stim_seed) &&
         plan.frame_hashes.size() == design.bitstream.frame_count();
}

std::vector<u64> hash_bitstream_frames(const Bitstream& bs) {
  std::vector<u64> hashes(bs.frame_count());
  for (u32 gf = 0; gf < bs.frame_count(); ++gf) {
    u64 h = kBasis;
    h = fnv1a(h, gf);
    for (const u64 word : bs.frame(gf).words()) h = fnv1a(h, word);
    hashes[gf] = h;
  }
  return hashes;
}

VerdictKey CacheKeyPlan::key_of(const ConfigSpace& space,
                                const BitAddress& addr, u64 linear) const {
  const u32 gf = space.global_frame_index(addr.frame);
  return derive_key(0, arch_fingerprint, stimulus_hash, frame_hashes[gf],
                    influence_of(*this, space, addr), linear);
}

VerdictKey CacheKeyPlan::fallback_key_of(const ConfigSpace& space,
                                         const BitAddress& addr,
                                         u64 linear) const {
  if (whole_design_influence) return key_of(space, addr, linear);
  const u32 gf = space.global_frame_index(addr.frame);
  return derive_key(1, arch_fingerprint, stimulus_hash, frame_hashes[gf],
                    whole_design_hash, linear);
}

void CacheKeyPlan::key_pairs_of(const ConfigSpace& space,
                                std::span<const u64> linears,
                                std::vector<VerdictKeyPair>* out) const {
  const KeyPrefix exact = key_prefix(0, arch_fingerprint, stimulus_hash);
  const KeyPrefix fallback = key_prefix(1, arch_fingerprint, stimulus_hash);
  out->clear();
  out->reserve(linears.size());
  for (const u64 linear : linears) {
    const BitAddress addr = space.address_of_linear(linear);
    const u64 frame_hash = frame_hashes[space.global_frame_index(addr.frame)];
    VerdictKeyPair pair;
    pair.exact = finish_key(exact, 0, arch_fingerprint, stimulus_hash,
                            frame_hash, influence_of(*this, space, addr),
                            linear);
    pair.fallback =
        whole_design_influence
            ? pair.exact
            : finish_key(fallback, 1, arch_fingerprint, stimulus_hash,
                         frame_hash, whole_design_hash, linear);
    out->push_back(pair);
  }
}

CacheKeyPlan build_cache_key_plan(const PlacedDesign& design,
                                  const InjectionOptions& options) {
  const ConfigSpace& space = *design.space;
  const DeviceGeometry& geom = space.geometry();
  CacheKeyPlan plan;

  const InjectionOptions eff = effective_options(design, options);
  plan.arch_fingerprint = arch_fingerprint_of(geom, eff);
  plan.design_identity = design_identity_of(design, eff.stim_seed);

  // Stimulus hash: seed, input lane count (the stimulus stream is consumed
  // row-major, so every lane's sequence depends on the total width) and the
  // golden output trace itself. The trace pins the functional identity the
  // comparator judges against — two designs sharing a verdict must agree on
  // fault-free behaviour, not just on the bit's local neighbourhood.
  const std::size_t trace_len =
      static_cast<std::size_t>(eff.warmup_cycles) + eff.observe_cycles +
      (eff.classify_persistence
           ? static_cast<std::size_t>(eff.persistence_settle) +
                 eff.persistence_check
           : 0);
  const std::vector<OutputWord> golden =
      DesignHarness::reference_trace(*design.netlist, trace_len, eff.stim_seed);
  u64 sh = kBasis;
  sh = fnv1a(sh, eff.stim_seed);
  sh = fnv1a(sh, static_cast<u64>(design.netlist->num_inputs()));
  sh = fnv1a(sh, static_cast<u64>(golden.size()));
  for (const OutputWord& w : golden) {
    sh = fnv1a(sh, w.lo);
    sh = fnv1a(sh, w.hi);
  }
  plan.stimulus_hash = sh;

  plan.frame_hashes = hash_bitstream_frames(design.bitstream);

  // Whole-design hash: every frame plus the complete harness-visible
  // structure (attachment points, BRAM wiring, dynamic LUT sites). Fallback
  // keys rest on this, so it must pin everything that can reach the fabric.
  u64 wd = kBasis;
  for (const u64 h : plan.frame_hashes) wd = fnv1a(wd, h);
  u64 attach = kBasis;
  const auto fold_point = [&attach](u64 tag, u64 index, TileCoord t,
                                    u64 payload) {
    attach = fnv1a(attach, tag);
    attach = fnv1a(attach, index);
    attach = fnv1a(attach, (static_cast<u64>(t.row) << 16) | t.col);
    attach = fnv1a(attach, payload);
  };
  for (std::size_t i = 0; i < design.input_drives.size(); ++i) {
    fold_point(1, i, design.input_drives[i].tile,
               design.input_drives[i].out_index);
  }
  for (std::size_t i = 0; i < design.output_taps.size(); ++i) {
    fold_point(2, i, design.output_taps[i].tile, design.output_taps[i].pin);
  }
  for (std::size_t i = 0; i < design.external_consts.size(); ++i) {
    const auto& ec = design.external_consts[i];
    fold_point(3, i, ec.drive.tile,
               (static_cast<u64>(ec.drive.out_index) << 1) |
                   static_cast<u64>(ec.value ? 1 : 0));
  }
  for (std::size_t i = 0; i < design.brams.size(); ++i) {
    const auto& b = design.brams[i];
    attach = fnv1a(fnv1a(attach, 4), i);
    attach = fnv1a(fnv1a(attach, b.bram_col), b.block);
    for (std::size_t p = 0; p < b.input_taps.size(); ++p) {
      fold_point(5, p, b.input_taps[p].tile, b.input_taps[p].pin);
    }
    for (const u8 v : b.input_tap_valid) attach = fnv1a(attach, v);
    for (const u8 v : b.const_pin_values) attach = fnv1a(attach, v);
    for (std::size_t l = 0; l < b.dout_drives.size(); ++l) {
      fold_point(6, l, b.dout_drives[l].tile, b.dout_drives[l].out_index);
    }
    for (const u8 v : b.dout_drive_valid) attach = fnv1a(attach, v);
  }
  for (std::size_t i = 0; i < design.dynamic_lut_sites.size(); ++i) {
    fold_point(7, i, design.dynamic_lut_sites[i].tile,
               design.dynamic_lut_sites[i].lut);
  }
  wd = fnv1a(wd, attach);
  plan.whole_design_hash = wd;

  // Golden-run probe: configure a fabric and replay the whole trace once.
  // This decodes tile activity for the closure construction below, and it
  // answers one load-bearing question — does the *baseline* design ever trip
  // the fabric's oscillation handling? Oscillation-truncated values depend
  // on a global event budget, not just on a bit's closure.
  FabricSim sim = configured_fabric(design.space, design.bitstream);
  DesignHarness probe(design, sim, eff.stim_seed);
  probe.restart();
  for (std::size_t t = 0; t < trace_len; ++t) probe.step();

  // BRAM bindings relay values across the device through the harness,
  // dynamic LUT state gives frame writes read-modify-write side effects, and
  // a golden run that trips oscillation handling makes every evaluation
  // budget-dependent — each breaks the locality argument the influence
  // closure rests on. Key every bit against the whole image instead
  // (conservative, still a 100% warm hit on an unchanged design).
  plan.whole_design_influence = sim.oscillating() || !design.brams.empty() ||
                                !design.dynamic_lut_sites.empty();
  if (plan.whole_design_influence) return plan;

  // Per-tile hash: the tile's configuration content (all 48 frames' 16-bit
  // row windows) plus its harness attachments. Attachment identity includes
  // the list index: input lane i carries stimulus stream i, output tap i
  // owns error-mask bit i, so position matters as much as placement.
  const u32 tiles = geom.tile_count();
  std::vector<u64> tile_hash(tiles, kBasis);
  for (u16 col = 0; col < geom.cols; ++col) {
    for (u16 f = 0; f < kFramesPerClbColumn; ++f) {
      const BitVector& frame =
          design.bitstream.frame(FrameAddress{ColumnKind::kClb, col, f});
      for (u16 row = 0; row < geom.rows; ++row) {
        u64& h = tile_hash[geom.tile_index({row, col})];
        h = fnv1a(h, frame.word_at(static_cast<std::size_t>(row) *
                                       kBitsPerTilePerFrame,
                                   kBitsPerTilePerFrame));
      }
    }
  }
  std::vector<u8> attached(tiles, 0);
  const auto fold_attach = [&](TileCoord t, u64 tag, u64 index, u64 payload) {
    u64& h = tile_hash[geom.tile_index(t)];
    h = fnv1a(fnv1a(fnv1a(h, tag), index), payload);
    attached[geom.tile_index(t)] = 1;
  };
  for (std::size_t i = 0; i < design.input_drives.size(); ++i) {
    fold_attach(design.input_drives[i].tile, 1, i,
                design.input_drives[i].out_index);
  }
  for (std::size_t i = 0; i < design.output_taps.size(); ++i) {
    fold_attach(design.output_taps[i].tile, 2, i, design.output_taps[i].pin);
  }
  for (std::size_t i = 0; i < design.external_consts.size(); ++i) {
    const auto& ec = design.external_consts[i];
    fold_attach(ec.drive.tile, 3, i,
                (static_cast<u64>(ec.drive.out_index) << 1) |
                    static_cast<u64>(ec.value ? 1 : 0));
  }

  // Tile activity from the configured probe fabric (the decode oracle), with
  // attachment tiles forced active: an inactive tile with a harness drive
  // still emits overridden values, so propagation does not die there.
  std::vector<u8> active(tiles, 0);
  for (u16 r = 0; r < geom.rows; ++r) {
    for (u16 c = 0; c < geom.cols; ++c) {
      const u32 idx = geom.tile_index({r, c});
      active[idx] =
          static_cast<u8>(sim.tile_active({r, c}) || attached[idx] != 0);
    }
  }
  Dsu dsu(tiles);
  for (u16 r = 0; r < geom.rows; ++r) {
    for (u16 c = 0; c < geom.cols; ++c) {
      const u32 idx = geom.tile_index({r, c});
      if (!active[idx]) continue;
      if (r + 1 < geom.rows &&
          active[geom.tile_index({static_cast<u16>(r + 1), c})]) {
        dsu.unite(idx, geom.tile_index({static_cast<u16>(r + 1), c}));
      }
      if (c + 1 < geom.cols &&
          active[geom.tile_index({r, static_cast<u16>(c + 1)})]) {
        dsu.unite(idx, geom.tile_index({r, static_cast<u16>(c + 1)}));
      }
    }
  }
  std::vector<u64> comp_hash(tiles, kBasis);
  for (u32 t = 0; t < tiles; ++t) {
    if (!active[t]) continue;
    u64& h = comp_hash[dsu.find(t)];
    h = fnv1a(fnv1a(h, t), tile_hash[t]);
  }

  // Influence of a flip in tile T: T's own config + the configs of its
  // 4-neighbourhood (first hop of any new wire value) + the full component
  // hashes of every active component touching that neighbourhood (the logic
  // the fault can ripple through, and everything feeding it back).
  plan.tile_influence.assign(tiles, 0);
  for (u16 r = 0; r < geom.rows; ++r) {
    for (u16 c = 0; c < geom.cols; ++c) {
      const u32 idx = geom.tile_index({r, c});
      u64 h = kBasis;
      h = fnv1a(h, tile_hash[idx]);
      u32 members[5];
      std::size_t nmembers = 0;
      members[nmembers++] = idx;
      const auto fold_neighbour = [&](int nr, int nc) {
        if (nr < 0 || nc < 0 || nr >= geom.rows || nc >= geom.cols) {
          h = fnv1a(h, kEdgeSentinel);
          return;
        }
        const u32 n = geom.tile_index(
            {static_cast<u16>(nr), static_cast<u16>(nc)});
        h = fnv1a(h, tile_hash[n]);
        members[nmembers++] = n;
      };
      fold_neighbour(r - 1, c);
      fold_neighbour(r + 1, c);
      fold_neighbour(r, c - 1);
      fold_neighbour(r, c + 1);
      u64 roots[5];
      std::size_t nroots = 0;
      for (std::size_t i = 0; i < nmembers; ++i) {
        if (active[members[i]]) roots[nroots++] = dsu.find(members[i]);
      }
      // Sorted-deduped fold, insertion sort over <= 5 roots (std::sort's
      // introsort trips GCC's array-bounds analysis on the tiny buffer).
      for (std::size_t i = 1; i < nroots; ++i) {
        const u64 v = roots[i];
        std::size_t j = i;
        for (; j > 0 && roots[j - 1] > v; --j) roots[j] = roots[j - 1];
        roots[j] = v;
      }
      for (std::size_t i = 0; i < nroots; ++i) {
        if (i > 0 && roots[i] == roots[i - 1]) continue;
        h = fnv1a(h, comp_hash[roots[i]]);
      }
      plan.tile_influence[idx] = h;
    }
  }
  return plan;
}

}  // namespace vscrub
