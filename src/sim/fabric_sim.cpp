#include "sim/fabric_sim.h"

#include <algorithm>
#include <bit>

#include "fabric/routing_model.h"

namespace vscrub {
namespace {

constexpr u32 kSrcKindShift = FabricSim::kSrcKindShift;
constexpr u32 kSrcPayload = FabricSim::kSrcPayload;
constexpr u32 kSrcHalfLatch = FabricSim::kSrcHalfLatch;
constexpr u32 kSrcWire = FabricSim::kSrcWire;
constexpr u32 kSrcOutput = FabricSim::kSrcOutput;
constexpr u32 kSrcZero = FabricSim::kSrcZero;
constexpr u32 kNoTile = FabricSim::kNoTile;

}  // namespace

FabricSim::FabricSim(std::shared_ptr<const ConfigSpace> space,
                     const ArchVariants& variants)
    : space_(std::move(space)), variants_(variants), cfg_(space_) {
  const DeviceGeometry& geom = space_->geometry();
  const u32 n = geom.tile_count();
  tiles_.resize(n);
  wire_val_.assign(static_cast<std::size_t>(n) * kWiresPerClb, 0);
  out_val_.assign(static_cast<std::size_t>(n) * kClbOutputs, 0);
  ff_state_.assign(static_cast<std::size_t>(n) * kFfsPerClb, 0);
  halflatch_.assign(static_cast<std::size_t>(n) * kImuxPins, 0);
  stuck_wire_.assign(static_cast<std::size_t>(n) * kWiresPerClb, 0);
  stuck_out_.assign(static_cast<std::size_t>(n) * kClbOutputs, 0);
  dirty_flag_.assign(n, 0);
  frame_dirty_.assign(space_->frame_count(), 0);
  neighbor_.assign(static_cast<std::size_t>(n) * kDirs, kNoTile);
  pin_src_.assign(static_cast<std::size_t>(n) * kImuxPins, kSrcZero);
  wire_src_.assign(static_cast<std::size_t>(n) * kWiresPerClb, kSrcZero);
  for (u32 t = 0; t < n; ++t) {
    const TileCoord tc = geom.tile_coord(t);
    for (int d = 0; d < kDirs; ++d) {
      const auto nb = geom.neighbor(tc, static_cast<Dir>(d));
      if (nb) neighbor_[static_cast<std::size_t>(t) * kDirs + static_cast<std::size_t>(d)] = geom.tile_index(*nb);
    }
  }
  bram_.resize(geom.bram_columns);
  for (auto& col : bram_) {
    col.dout.assign(geom.bram_blocks_per_column(), 0);
  }
  for (u32 t = 0; t < n; ++t) decode_full_tile(geom.tile_coord(t));
}

// ---- Decode -------------------------------------------------------------------

void FabricSim::decode_full_tile(TileCoord tc) {
  const u32 t = tidx(tc);
  decode_tile_config(cfg_, tc, tiles_[t]);
  refresh_tile_activity(t);
  mark_dirty(t);
}

void FabricSim::refresh_tile_activity(u32 t) {
  const DeviceGeometry& geom = space_->geometry();
  Tile& tl = tiles_[t];
  tl.driven_wires.clear();
  tl.connected_pins.clear();

  // Precompute pin sources.
  for (int p = 0; p < kImuxPins; ++p) {
    const PinSource src = decode_imux(tl.imux[p]);
    u32 enc = kSrcZero;
    switch (src.kind) {
      case PinSource::Kind::kHalfLatch:
        enc = kSrcHalfLatch |
              (t * static_cast<u32>(kImuxPins) + static_cast<u32>(p));
        break;
      case PinSource::Kind::kIncoming: {
        const u32 nb = neighbor_[static_cast<std::size_t>(t) * kDirs +
                                 static_cast<std::size_t>(static_cast<int>(src.from_dir))];
        if (nb == kNoTile) {
          enc = kSrcZero;
        } else {
          // The wire arriving from `from_dir` is the neighbor's out-wire in
          // direction opposite(from_dir).
          const u32 wi = (nb * static_cast<u32>(kDirs) +
                          static_cast<u32>(static_cast<int>(opposite(src.from_dir)))) *
                             kWiresPerDir +
                         src.windex;
          enc = kSrcWire | wi;
        }
        tl.connected_pins.push_back(static_cast<u8>(p));
        break;
      }
      case PinSource::Kind::kClbOutput:
        enc = kSrcOutput | (t * static_cast<u32>(kClbOutputs) + src.output);
        tl.connected_pins.push_back(static_cast<u8>(p));
        break;
    }
    pin_src_[static_cast<std::size_t>(t) * kImuxPins + static_cast<std::size_t>(p)] = enc;
  }

  // Precompute wire sources.
  bool any_wire = false;
  for (int d = 0; d < kDirs; ++d) {
    for (int w = 0; w < kWiresPerDir; ++w) {
      const int wire = d * kWiresPerDir + w;
      const WireSource src = decode_omux(static_cast<Dir>(d), w, tl.omux[wire]);
      u32 enc = kSrcZero;
      switch (src.kind) {
        case WireSource::Kind::kNone:
          break;
        case WireSource::Kind::kClbOutput:
          enc = kSrcOutput | (t * static_cast<u32>(kClbOutputs) + src.output);
          break;
        case WireSource::Kind::kIncoming: {
          const u32 nb = neighbor_[static_cast<std::size_t>(t) * kDirs +
                                   static_cast<std::size_t>(static_cast<int>(src.from_dir))];
          if (nb != kNoTile) {
            const u32 wi =
                (nb * static_cast<u32>(kDirs) +
                 static_cast<u32>(static_cast<int>(opposite(src.from_dir)))) *
                    kWiresPerDir +
                src.windex;
            enc = kSrcWire | wi;
          }
          break;
        }
      }
      wire_src_[static_cast<std::size_t>(t) * kWiresPerClb + static_cast<std::size_t>(wire)] = enc;
      if (enc != kSrcZero) {
        tl.driven_wires.push_back(static_cast<u8>(wire));
        any_wire = true;
      } else {
        // Undriven wires idle at 0 (unless stuck).
        u8 v = 0;
        const u8 stuck = stuck_wire_[static_cast<std::size_t>(t) * kWiresPerClb + static_cast<std::size_t>(wire)];
        if (stuck == 2) v = 1;
        wire_val_[static_cast<std::size_t>(t) * kWiresPerClb + static_cast<std::size_t>(wire)] = v;
      }
    }
  }

  // Local feedback: a pin selecting one of this tile's own CLB outputs
  // forces iterative settling; tiles without it settle in one pass.
  tl.has_local_feedback = false;
  for (u8 p : tl.connected_pins) {
    const u32 enc = pin_src_[static_cast<std::size_t>(t) * kImuxPins + p];
    if ((enc & ~kSrcPayload) == kSrcOutput) {
      tl.has_local_feedback = true;
      break;
    }
  }

  // Cache each LUT's input-index contribution from half-latch-fed pins (they
  // only change when a latch flips, which re-runs this refresh).
  for (int l = 0; l < kLutsPerClb; ++l) {
    u8 base = 0;
    u8 dyn = 0;
    for (int i = 0; i < kLutInputs; ++i) {
      const int pin = lut_input_pin(l, i);
      const u32 enc = pin_src_[static_cast<std::size_t>(t) * kImuxPins +
                               static_cast<std::size_t>(pin)];
      switch (enc & ~kSrcPayload) {
        case kSrcHalfLatch:
          if (halflatch_[enc & kSrcPayload]) base |= static_cast<u8>(1u << i);
          break;
        case kSrcZero:
          break;
        default:
          dyn |= static_cast<u8>(1u << i);
          break;
      }
    }
    tl.lut_base_idx[l] = base;
    tl.lut_dyn_mask[l] = dyn;
  }

  // Which LUT sites can ever produce a nonzero combinational output: a plain
  // LUT with an all-zero truth table outputs 0 for every input, so eval can
  // skip it (route-through tiles cost almost nothing). Dynamic sites
  // (SRL16/RAM16) can shift in ones at runtime and stay live.
  tl.active_lut_mask = 0;
  for (int l = 0; l < kLutsPerClb; ++l) {
    if (tl.lut_cells[l] != 0 || tl.lut_mode[l] != LutMode::kLut) {
      tl.active_lut_mask |= static_cast<u8>(1u << l);
    } else {
      out_val_[static_cast<std::size_t>(t) * kClbOutputs +
               static_cast<std::size_t>((l / 2) * 4 + (l % 2))] = 0;
    }
  }

  bool any = any_wire || tl.override_mask != 0 || tl.active_lut_mask != 0;
  if (!any) {
    for (int f = 0; f < kFfsPerClb && !any; ++f) any = tl.ff_used[f];
    for (int p = 0; p < kImuxPins && !any; ++p) any = tl.imux[p] != 0;
  }
  tl.active = any;
  if (!tl.active) {
    // An inactive tile computes nothing: force its visible values to the
    // quiescent state and let neighbors notice.
    bool changed = false;
    for (int o = 0; o < kClbOutputs; ++o) {
      auto& v = out_val_[static_cast<std::size_t>(t) * kClbOutputs + static_cast<std::size_t>(o)];
      changed |= v != 0;
      v = 0;
    }
    for (int w = 0; w < kWiresPerClb; ++w) {
      auto& v = wire_val_[static_cast<std::size_t>(t) * kWiresPerClb + static_cast<std::size_t>(w)];
      changed |= v != 0;
      v = 0;
    }
    if (changed) {
      for (int d = 0; d < kDirs; ++d) {
        const u32 nb = neighbor_[static_cast<std::size_t>(t) * kDirs + static_cast<std::size_t>(d)];
        if (nb != kNoTile) mark_dirty(nb);
      }
    }
  } else {
    // Re-sync registered outputs with FF state. If a corrupted decode ever
    // made this tile inactive, the zeroing branch above cleared its
    // registered outputs while ff_state_ kept the real values — and nothing
    // rewrites a registered output until its FF next *changes* value, so on
    // repair the desync would persist into later injections (observed as
    // thread-count-dependent campaign results).
    bool resynced = false;
    for (int f = 0; f < kFfsPerClb; ++f) {
      const std::size_t oi = static_cast<std::size_t>(t) * kClbOutputs +
                             static_cast<std::size_t>((f / 2) * 4 + 2 + (f % 2));
      const u8 v = ff_state_[static_cast<std::size_t>(t) * kFfsPerClb +
                             static_cast<std::size_t>(f)];
      if (out_val_[oi] != v) {
        out_val_[oi] = v;
        resynced = true;
      }
    }
    if (resynced) {
      mark_dirty(t);
      for (int d = 0; d < kDirs; ++d) {
        const u32 nb = neighbor_[static_cast<std::size_t>(t) * kDirs + static_cast<std::size_t>(d)];
        if (nb != kNoTile) mark_dirty(nb);
      }
    }
  }
  seq_list_stale_ = true;
  (void)geom;
}

// ---- Configuration port ---------------------------------------------------------

void FabricSim::full_configure(const Bitstream& bs) {
  VSCRUB_CHECK(&bs.space() == space_.get() ||
                   bs.space().geometry().name == space_->geometry().name,
               "bitstream geometry mismatch");
  cfg_ = bs;
  const DeviceGeometry& geom = space_->geometry();
  // Startup sequence.
  for (u32 t = 0; t < geom.tile_count(); ++t) {
    const TileCoord tc = geom.tile_coord(t);
    // Half-latches first: tile decode folds their values into its caches.
    for (int p = 0; p < kImuxPins; ++p) {
      halflatch_[static_cast<std::size_t>(t) * kImuxPins + static_cast<std::size_t>(p)] =
          halflatch_startup_value(p) ? 1 : 0;
    }
    decode_full_tile(tc);
    for (int f = 0; f < kFfsPerClb; ++f) {
      ff_state_[static_cast<std::size_t>(t) * kFfsPerClb + static_cast<std::size_t>(f)] =
          tiles_[t].ff_init[f] ? 1 : 0;
      out_val_[static_cast<std::size_t>(t) * kClbOutputs +
               static_cast<std::size_t>((f / 2) * 4 + 2 + (f % 2))] =
          ff_state_[static_cast<std::size_t>(t) * kFfsPerClb + static_cast<std::size_t>(f)];
    }
  }
  for (auto& col : bram_) std::fill(col.dout.begin(), col.dout.end(), 0);
  cycle_count_ = 0;
  // Full configuration establishes a new dirty-tracking baseline: every
  // frame now reads back exactly the image just loaded.
  clear_dirty_frames();
  eval();
}

void FabricSim::clear_dirty_frames() {
  for (u32 gf : dirty_frames_) frame_dirty_[gf] = 0;
  dirty_frames_.clear();
}

void FabricSim::mark_frame_dirty(u32 global_frame) {
  if (frame_dirty_[global_frame]) return;
  frame_dirty_[global_frame] = 1;
  dirty_frames_.push_back(global_frame);
}

void FabricSim::mark_lut_frames_dirty(u32 tile, u8 site) {
  // A LUT cell's 16 truth bits are spread one per frame across its slice's
  // 16 frames; a runtime shift/write can touch any of them.
  const u16 col = space_->geometry().tile_coord(tile).col;
  const u32 base = static_cast<u32>(col) * kFramesPerClbColumn +
                   static_cast<u32>(site / kLutsPerSlice) * kLutTruthBits;
  for (u32 f = 0; f < kLutTruthBits; ++f) mark_frame_dirty(base + f);
}

BitVector FabricSim::assemble_frame(const FrameAddress& fa) const {
  BitVector data = cfg_.frame(fa);
  if (fa.kind != ColumnKind::kClb) return data;  // BRAM contents live in cfg_
  // Substitute live LUT-cell contents for LUT-truth slots.
  if (fa.frame < kSlicesPerClb * kLutTruthBits) {
    const int slice = fa.frame / kLutTruthBits;
    const int bit = fa.frame % kLutTruthBits;
    const DeviceGeometry& geom = space_->geometry();
    for (u16 row = 0; row < geom.rows; ++row) {
      const u32 t = tidx(TileCoord{row, fa.col});
      for (int slot = 0; slot < kLutsPerSlice; ++slot) {
        const int lut = slice * kLutsPerSlice + slot;
        data.set(static_cast<u32>(row) * kBitsPerTilePerFrame +
                     static_cast<u32>(slot),
                 (tiles_[t].lut_cells[lut] >> bit) & 1);
      }
    }
  }
  return data;
}

BitVector FabricSim::read_frame(const FrameAddress& fa, bool clock_running) {
  BitVector data = assemble_frame(fa);
  if (fa.kind == ColumnKind::kBram) {
    // Readback corrupts the output registers of the blocks in this column
    // (paper §IV-A) — unless the device has the proposed shadow memory.
    if (!variants_.shadow_readback) {
      auto& col = bram_[fa.col];
      for (auto& dout : col.dout) {
        dout ^= static_cast<u16>(corrupt_rng_.next());
      }
    }
    return data;
  }
  if (variants_.zeroed_dynamic_readback &&
      fa.frame < kSlicesPerClb * kLutTruthBits) {
    // §IV-A proposal: dynamic LUT locations read back as zeros, so the
    // standard per-frame CRC is stable without masking.
    const int slice = fa.frame / kLutTruthBits;
    const DeviceGeometry& geom = space_->geometry();
    for (u16 row = 0; row < geom.rows; ++row) {
      const u32 t = tidx(TileCoord{row, fa.col});
      for (int slot = 0; slot < kLutsPerSlice; ++slot) {
        const int lut = slice * kLutsPerSlice + slot;
        if (tiles_[t].lut_mode[lut] != LutMode::kLut) {
          data.set(static_cast<u32>(row) * kBitsPerTilePerFrame +
                       static_cast<u32>(slot),
                   false);
        }
      }
    }
    return data;  // zeroed readback has no write hazard by construction
  }
  if (variants_.shadow_readback) return data;  // hazard-free shadow port
  if (clock_running && fa.frame < kSlicesPerClb * kLutTruthBits) {
    // LUT-RAM / SRL16 write-during-readback hazard: any covered dynamic LUT
    // site that is currently write-enabled returns corrupted bits.
    const int slice = fa.frame / kLutTruthBits;
    const DeviceGeometry& geom = space_->geometry();
    for (u16 row = 0; row < geom.rows; ++row) {
      const TileCoord tc{row, fa.col};
      const u32 t = tidx(tc);
      const Tile& tl = tiles_[t];
      if (!tl.clk_en[slice]) continue;
      for (int slot = 0; slot < kLutsPerSlice; ++slot) {
        const int lut = slice * kLutsPerSlice + slot;
        if (tl.lut_mode[lut] == LutMode::kLut) continue;
        const bool write_enabled =
            resolve_pin(tl, t, static_cast<u8>(ce_pin(slice)));
        if (write_enabled) {
          data.flip(static_cast<u32>(row) * kBitsPerTilePerFrame +
                    static_cast<u32>(slot));
        }
      }
    }
  }
  return data;
}

void FabricSim::write_frame(const FrameAddress& fa, const BitVector& data) {
  VSCRUB_CHECK(data.size() == space_->frame_bits(fa.kind),
               "frame size mismatch");
  // Diff against the current live content first: a write that changes
  // nothing is a no-op (no dirty mark, no decode), and only tiles whose
  // bits actually change are re-decoded — per-tile invalidation instead of
  // a whole-column re-decode on every frame write.
  const BitVector cur = assemble_frame(fa);
  if (cur == data) return;
  cfg_.frame(fa) = data;
  mark_frame_dirty(space_->global_frame_index(fa));
  if (fa.kind == ColumnKind::kBram) {
    // BRAM content is authoritative in cfg_; nothing to decode.
    return;
  }
  const DeviceGeometry& geom = space_->geometry();
  for (u16 row = 0; row < geom.rows; ++row) {
    const u32 base = static_cast<u32>(row) * kBitsPerTilePerFrame;
    u64 diff = data.word_at(base, kBitsPerTilePerFrame) ^
               cur.word_at(base, kBitsPerTilePerFrame);
    if (diff == 0) continue;
    const TileCoord tc{row, fa.col};
    const u32 t = tidx(tc);
    Tile& tl = tiles_[t];
    bool changed = false;
    while (diff != 0) {
      const u16 slot = static_cast<u16>(std::countr_zero(diff));
      diff &= diff - 1;
      const int tb = ConfigSpace::tile_bit_at(fa.frame, slot);
      if (tb < 0) continue;
      const bool v = data.get(base + slot);
      changed |= apply_tile_bit(tl, static_cast<u16>(tb), v);
    }
    if (changed) {
      refresh_tile_activity(t);
      mark_dirty(t);
      // Out-wire values may have changed sources; make sure downstream tiles
      // notice even if our recompute produces the same local values.
      for (int d = 0; d < kDirs; ++d) {
        const u32 nb = neighbor_[static_cast<std::size_t>(t) * kDirs + static_cast<std::size_t>(d)];
        if (nb != kNoTile) mark_dirty(nb);
      }
    }
  }
  eval();
}

void FabricSim::flip_config_bit(const BitAddress& addr) {
  BitVector img = assemble_frame(addr.frame);
  img.flip(addr.offset);
  write_frame(addr.frame, img);
}

bool FabricSim::config_bit(const BitAddress& addr) const {
  return assemble_frame(addr.frame).get(addr.offset);
}

void FabricSim::write_config_bit(const BitAddress& addr, bool v) {
  VSCRUB_CHECK(variants_.bit_granular_access,
               "bit-granular configuration access requires the SIV-B "
               "architecture variant");
  BitVector img = assemble_frame(addr.frame);
  if (img.get(addr.offset) == v) return;
  img.set(addr.offset, v);
  // Writing the assembled image back touches only the requested bit: every
  // other position carries its current live value.
  write_frame(addr.frame, img);
}

// ---- Harness ---------------------------------------------------------------------

void FabricSim::set_drive(TileCoord tile, u8 out_index, bool value) {
  const u32 t = tidx(tile);
  Tile& tl = tiles_[t];
  const u8 mask = static_cast<u8>(1u << out_index);
  const u8 val = static_cast<u8>(value ? mask : 0);
  if ((tl.override_mask & mask) && (tl.override_vals & mask) == val) return;
  if (!(tl.override_mask & mask)) {
    tl.override_mask |= mask;
    tl.active = true;
  }
  tl.override_vals = static_cast<u8>((tl.override_vals & ~mask) | val);
  mark_dirty(t);
}

void FabricSim::clear_drives() {
  for (u32 t = 0; t < tiles_.size(); ++t) {
    if (tiles_[t].override_mask != 0) {
      tiles_[t].override_mask = 0;
      tiles_[t].override_vals = 0;
      refresh_tile_activity(t);
      mark_dirty(t);
    }
  }
}

bool FabricSim::pin_value(TileCoord tile, u8 pin) const {
  const u32 t = tidx(tile);
  return resolve_pin(tiles_[t], t, pin);
}

bool FabricSim::output_value(TileCoord tile, u8 out) const {
  return out_val_[static_cast<std::size_t>(tidx(tile)) * kClbOutputs + out] != 0;
}

// ---- Value resolution ---------------------------------------------------------------

bool FabricSim::resolve_pin(const Tile&, u32 t, u8 pin) const {
  const u32 enc = pin_src_[static_cast<std::size_t>(t) * kImuxPins + pin];
  switch (enc & ~kSrcPayload) {
    case kSrcHalfLatch: return halflatch_[enc & kSrcPayload] != 0;
    case kSrcWire: return wire_val_[enc & kSrcPayload] != 0;
    case kSrcOutput: return out_val_[enc & kSrcPayload] != 0;
    default: return false;
  }
}

// ---- Eval ------------------------------------------------------------------------

void FabricSim::mark_dirty(u32 t) {
  if (dirty_flag_[t]) return;
  if (!tiles_[t].active) return;
  dirty_flag_[t] = 1;
  dirty_queue_.push_back(t);
}

void FabricSim::process_tile(u32 t) {
  Tile& tl = tiles_[t];
  const u32* pin_src = &pin_src_[static_cast<std::size_t>(t) * kImuxPins];
  const auto resolve = [&](int pin) -> u8 {
    const u32 enc = pin_src[pin];
    switch (enc & ~kSrcPayload) {
      case kSrcHalfLatch: return halflatch_[enc & kSrcPayload];
      case kSrcWire: return wire_val_[enc & kSrcPayload];
      case kSrcOutput: return out_val_[enc & kSrcPayload];
      default: return 0;
    }
  };

  const int max_pass = tl.has_local_feedback ? 8 : 1;
  for (int pass = 0; pass < max_pass; ++pass) {
    bool local_change = false;

    // Combinational CLB outputs.
    for (int l = 0; l < kLutsPerClb; ++l) {
      const int out = (l / 2) * 4 + (l % 2);
      const u8 mask = static_cast<u8>(1u << out);
      if (!(tl.active_lut_mask & (1u << l)) && !(tl.override_mask & mask) &&
          !have_permanent_faults_) {
        continue;  // provably constant-0 output, set at decode time
      }
      u8 v;
      if (tl.override_mask & mask) {
        v = (tl.override_vals & mask) ? 1 : 0;
      } else {
        unsigned idx = tl.lut_base_idx[l];
        u8 dyn = tl.lut_dyn_mask[l];
        while (dyn != 0) {
          const int i = std::countr_zero(dyn);
          dyn = static_cast<u8>(dyn & (dyn - 1));
          idx |= static_cast<unsigned>(resolve(lut_input_pin(l, i)) & 1) << i;
        }
        v = (tl.lut_cells[l] >> idx) & 1;
      }
      const std::size_t oi = static_cast<std::size_t>(t) * kClbOutputs + static_cast<std::size_t>(out);
      if (have_permanent_faults_ && stuck_out_[oi] != 0) {
        v = stuck_out_[oi] == 2 ? 1 : 0;
      }
      if (out_val_[oi] != v) {
        out_val_[oi] = v;
        local_change = true;
      }
    }

    // Driven out-wires (sources already reflect this pass's outputs because
    // outputs are computed first).
    for (u8 wire : tl.driven_wires) {
      const std::size_t wi = static_cast<std::size_t>(t) * kWiresPerClb + wire;
      const u32 enc = wire_src_[wi];
      u8 v = 0;
      switch (enc & ~kSrcPayload) {
        case kSrcWire: v = wire_val_[enc & kSrcPayload]; break;
        case kSrcOutput: v = out_val_[enc & kSrcPayload]; break;
        default: break;
      }
      if (have_permanent_faults_ && stuck_wire_[wi] != 0) {
        v = stuck_wire_[wi] == 2 ? 1 : 0;
      }
      if (wire_val_[wi] != v) {
        wire_val_[wi] = v;
        // Our out-wires feed the neighbor in the wire's direction.
        const u32 nb = neighbor_[static_cast<std::size_t>(t) * kDirs +
                                 static_cast<std::size_t>(wire / kWiresPerDir)];
        if (nb != kNoTile) mark_dirty(nb);
      }
    }

    if (!local_change) return;
    // With local feedback, our comb outputs may feed our own pins; iterate.
  }
  if (tl.has_local_feedback) oscillating_ = true;
}

void FabricSim::eval() {
  // FIFO processing approximates a topological sweep for ripple chains,
  // which keeps re-evaluation counts low.
  std::size_t processed = 0;
  std::size_t head = 0;
  const std::size_t bound = tiles_.size() * 64 + 4096;
  while (head < dirty_queue_.size()) {
    const u32 t = dirty_queue_[head++];
    dirty_flag_[t] = 0;
    process_tile(t);
    if (++processed > bound) {
      oscillating_ = true;
      // Drain to guarantee termination; values are garbage-but-deterministic.
      for (std::size_t i = head; i < dirty_queue_.size(); ++i) {
        dirty_flag_[dirty_queue_[i]] = 0;
      }
      break;
    }
  }
  // Head-index reset: the processed prefix is reclaimed wholesale here, so
  // the loop never pays an O(n) erase-compaction; the eval bound above
  // already caps how large the queue can grow within one sweep.
  dirty_queue_.clear();
}

// ---- Clocking ---------------------------------------------------------------------

void FabricSim::rebuild_seq_list() {
  seq_tiles_.clear();
  for (u32 t = 0; t < tiles_.size(); ++t) {
    if (tile_is_sequential(tiles_[t])) seq_tiles_.push_back(t);
  }
  seq_list_stale_ = false;
}

void FabricSim::clock() {
  eval();
  if (seq_list_stale_) rebuild_seq_list();

  // Two-phase: sample next-state for every sequential element, then commit.
  pending_ff_.clear();
  pending_srl_.clear();
  for (u32 t : seq_tiles_) {
    const Tile& tl = tiles_[t];
    for (int s = 0; s < kSlicesPerClb; ++s) {
      if (!tl.clk_en[s]) continue;
      const bool ce = resolve_pin(tl, t, static_cast<u8>(ce_pin(s)));
      const bool sr = resolve_pin(tl, t, static_cast<u8>(sr_pin(s)));
      for (int i = 0; i < kLutsPerSlice; ++i) {
        const int site = s * kLutsPerSlice + i;
        if (tl.ff_used[site]) {
          bool next;
          const std::size_t fi = static_cast<std::size_t>(t) * kFfsPerClb + static_cast<std::size_t>(site);
          if (sr) {
            next = false;
          } else if (ce) {
            next = tl.ff_byp[site]
                       ? resolve_pin(tl, t, static_cast<u8>(byp_pin(site)))
                       : out_val_[static_cast<std::size_t>(t) * kClbOutputs +
                                  static_cast<std::size_t>((site / 2) * 4 + (site % 2))] != 0;
          } else {
            next = ff_state_[fi] != 0;
          }
          pending_ff_.push_back({t, static_cast<u8>(site), next});
        }
        if (tl.lut_mode[site] == LutMode::kSrl16 && ce) {
          const bool d = resolve_pin(tl, t, static_cast<u8>(byp_pin(site)));
          const u16 next = static_cast<u16>((tl.lut_cells[site] << 1) |
                                            static_cast<u16>(d));
          pending_srl_.push_back({t, static_cast<u8>(site), next});
        } else if (tl.lut_mode[site] == LutMode::kRam16 && ce) {
          unsigned addr = 0;
          for (int b = 0; b < kLutInputs; ++b) {
            addr |= static_cast<unsigned>(resolve_pin(
                        tl, t, static_cast<u8>(lut_input_pin(site, b))))
                    << b;
          }
          const bool d = resolve_pin(tl, t, static_cast<u8>(byp_pin(site)));
          u16 next = tl.lut_cells[site];
          next = static_cast<u16>(d ? (next | (1u << addr))
                                    : (next & ~(1u << addr)));
          pending_srl_.push_back({t, static_cast<u8>(site), next});
        }
      }
    }
  }

  for (const PendingFf& p : pending_ff_) {
    const std::size_t fi = static_cast<std::size_t>(p.tile) * kFfsPerClb + p.ff;
    const u8 v = p.value ? 1 : 0;
    if (ff_state_[fi] != v) {
      ff_state_[fi] = v;
      const std::size_t oi = static_cast<std::size_t>(p.tile) * kClbOutputs +
                             static_cast<std::size_t>((p.ff / 2) * 4 + 2 + (p.ff % 2));
      out_val_[oi] = v;
      mark_dirty(p.tile);
    }
  }
  for (const PendingSrl& p : pending_srl_) {
    Tile& tl = tiles_[p.tile];
    if (tl.lut_cells[p.site] != p.value) {
      tl.lut_cells[p.site] = p.value;
      mark_dirty(p.tile);
      // Runtime LUT-cell changes are readback-visible: the frames holding
      // this site's truth bits no longer match the configured image.
      mark_lut_frames_dirty(p.tile, p.site);
    }
  }
  ++cycle_count_;
  eval();
}

void FabricSim::reset() {
  for (u32 t = 0; t < tiles_.size(); ++t) {
    const Tile& tl = tiles_[t];
    for (int f = 0; f < kFfsPerClb; ++f) {
      if (!tl.ff_used[f]) continue;
      const u8 v = tl.ff_init[f] ? 1 : 0;
      const std::size_t fi = static_cast<std::size_t>(t) * kFfsPerClb + static_cast<std::size_t>(f);
      if (ff_state_[fi] != v) {
        ff_state_[fi] = v;
        out_val_[static_cast<std::size_t>(t) * kClbOutputs +
                 static_cast<std::size_t>((f / 2) * 4 + 2 + (f % 2))] = v;
        mark_dirty(t);
      }
    }
  }
  for (auto& col : bram_) std::fill(col.dout.begin(), col.dout.end(), 0);
  oscillating_ = false;
  eval();
}

void FabricSim::restore_ff_state(const std::vector<u8>& state) {
  for (std::size_t i = 0; i < ff_state_.size(); ++i) {
    if (ff_state_[i] == state[i]) continue;
    ff_state_[i] = state[i];
    const u32 t = static_cast<u32>(i / kFfsPerClb);
    const std::size_t f = i % kFfsPerClb;
    out_val_[static_cast<std::size_t>(t) * kClbOutputs + (f / 2) * 4 + 2 +
             (f % 2)] = state[i];
    mark_dirty(t);
  }
  eval();
}

// ---- Hidden state -------------------------------------------------------------------

void FabricSim::flip_ff(TileCoord tile, u8 ff) {
  const u32 t = tidx(tile);
  const std::size_t fi = static_cast<std::size_t>(t) * kFfsPerClb + ff;
  ff_state_[fi] ^= 1;
  out_val_[static_cast<std::size_t>(t) * kClbOutputs +
           static_cast<std::size_t>((ff / 2) * 4 + 2 + (ff % 2))] =
      ff_state_[fi];
  if (!tiles_[t].active) tiles_[t].active = true;
  mark_dirty(t);
  eval();
}

bool FabricSim::ff_value(TileCoord tile, u8 ff) const {
  return ff_state_[static_cast<std::size_t>(tidx(tile)) * kFfsPerClb + ff] != 0;
}

bool FabricSim::halflatch(TileCoord tile, u8 pin) const {
  return halflatch_[static_cast<std::size_t>(tidx(tile)) * kImuxPins + pin] != 0;
}

void FabricSim::set_halflatch(TileCoord tile, u8 pin, bool v) {
  const u32 t = tidx(tile);
  auto& cell = halflatch_[static_cast<std::size_t>(t) * kImuxPins + pin];
  if (cell == static_cast<u8>(v)) return;
  cell = v ? 1 : 0;
  // The LUT-index caches fold in half-latch values; recompute them.
  refresh_tile_activity(t);
  // Inactive tiles with a flipped latch still matter if something reads
  // them (e.g. a CE pin); force processing.
  if (!tiles_[t].active) tiles_[t].active = true;
  mark_dirty(t);
  eval();
}

void FabricSim::flip_halflatch(TileCoord tile, u8 pin) {
  set_halflatch(tile, pin, !halflatch(tile, pin));
}

// ---- BRAM ------------------------------------------------------------------------------

void FabricSim::bram_clock(u16 bram_col, u16 block, const BramPortIn& in) {
  u16 word = 0;
  for (int b = 0; b < kBramWidth; ++b) {
    if (cfg_.bram_content_bit(bram_col, block,
                              static_cast<u16>(in.addr * kBramWidth + b))) {
      word |= static_cast<u16>(1u << b);
    }
  }
  if (in.we) {
    for (int b = 0; b < kBramWidth; ++b) {
      cfg_.set_bram_content_bit(bram_col, block,
                                static_cast<u16>(in.addr * kBramWidth + b),
                                (in.din >> b) & 1);
    }
    // The written word lives in one content frame (frame f holds bits
    // f*64..f*64+63 of every block); its readback diverges from the image.
    mark_frame_dirty(space_->global_frame_index(
        FrameAddress{ColumnKind::kBram, bram_col,
                     static_cast<u16>(in.addr * kBramWidth / 64)}));
    word = in.din;  // WRITE_FIRST
  }
  bram_[bram_col].dout[block] = word;
}

u16 FabricSim::bram_dout(u16 bram_col, u16 block) const {
  return bram_[bram_col].dout[block];
}

u16 FabricSim::bram_word(u16 bram_col, u16 block, u8 addr) const {
  u16 word = 0;
  for (int b = 0; b < kBramWidth; ++b) {
    if (cfg_.bram_content_bit(bram_col, block,
                              static_cast<u16>(addr * kBramWidth + b))) {
      word |= static_cast<u16>(1u << b);
    }
  }
  return word;
}

// ---- Permanent faults --------------------------------------------------------------------

void FabricSim::inject_permanent_fault(const PermanentFault& fault) {
  have_permanent_faults_ = true;
  const u32 t = tidx(fault.tile);
  switch (fault.kind) {
    case StuckKind::kWireStuck0:
    case StuckKind::kWireStuck1: {
      const std::size_t wi =
          static_cast<std::size_t>(t) * kWiresPerClb +
          static_cast<std::size_t>(static_cast<int>(fault.dir)) * kWiresPerDir +
          fault.windex;
      stuck_wire_[wi] = fault.kind == StuckKind::kWireStuck1 ? 2 : 1;
      wire_val_[wi] = fault.kind == StuckKind::kWireStuck1 ? 1 : 0;
      break;
    }
    case StuckKind::kOutputStuck0:
    case StuckKind::kOutputStuck1: {
      const std::size_t oi = static_cast<std::size_t>(t) * kClbOutputs + fault.output;
      stuck_out_[oi] = fault.kind == StuckKind::kOutputStuck1 ? 2 : 1;
      break;
    }
  }
  if (!tiles_[t].active) tiles_[t].active = true;
  mark_dirty(t);
  for (int d = 0; d < kDirs; ++d) {
    const u32 nb = neighbor_[static_cast<std::size_t>(t) * kDirs + static_cast<std::size_t>(d)];
    if (nb != kNoTile) mark_dirty(nb);
  }
  eval();
}

void FabricSim::clear_permanent_faults() {
  std::fill(stuck_wire_.begin(), stuck_wire_.end(), 0);
  std::fill(stuck_out_.begin(), stuck_out_.end(), 0);
  have_permanent_faults_ = false;
  for (u32 t = 0; t < tiles_.size(); ++t) mark_dirty(t);
  eval();
}

std::size_t FabricSim::active_tile_count() const {
  std::size_t n = 0;
  for (const Tile& tl : tiles_) {
    if (tl.active) ++n;
  }
  return n;
}

}  // namespace vscrub
