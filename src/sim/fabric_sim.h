// FabricSim: the configuration-driven FPGA model. Behaviour is decoded from
// the live configuration memory, so flipping any configuration bit changes
// (or provably does not change) what the device computes — sensitivity is
// *emergent*, never annotated.
//
// Faithfulness points the experiments depend on:
//  * Frames are the only configuration access granularity (readback and
//    partial reconfiguration move whole frames).
//  * LUT truth bits are live SRAM cells: in SRL16/RAM16 mode they shift/
//    write at runtime, and readback returns the *current* contents (the
//    paper's §IV-A dynamic-state problem).
//  * Unconnected resource inputs read per-site half-latches (hidden state):
//    initialized only by full configuration's startup sequence, invisible to
//    readback, untouched by partial reconfiguration, flippable by radiation
//    (paper §III-C, Figs. 13/14).
//  * BRAM readback corrupts the block's output register; LUT-RAM readback
//    while the design writes the LUT corrupts the returned frame.
//  * Permanent faults (stuck-at wires/outputs) can be injected underneath
//    the configuration layer for the BIST experiments (§II-B).
#pragma once

#include <memory>
#include <vector>

#include "bitstream/bitstream.h"
#include "common/rng.h"
#include "sim/tile_decode.h"

namespace vscrub {

/// Architectural variants the paper proposes in §IV to remove the
/// readback/partial-reconfiguration limitations of the Virtex generation.
/// All default off (baseline Virtex behaviour); each experiment E13 ablation
/// enables one.
struct ArchVariants {
  /// §IV-A: LUT (and BRAM) state gets "a second 'shadow' memory that can be
  /// read out without affecting design operation": readback never corrupts
  /// — no LUT-RAM write hazard, BRAM output registers survive readback.
  bool shadow_readback = false;
  /// §IV-A alternative: "design the readback of LUTs so that their
  /// locations in the readback stream are set to zeros when the LUTs are
  /// being used in RAM mode. This would allow standard CRC checking to be
  /// done to the bitstream without having to mask out some locations."
  bool zeroed_dynamic_readback = false;
  /// §IV-B: "provide a smaller granularity for read and write accesses to
  /// the configuration data" — enables write_config_bit(), repairs that
  /// touch only the corrupted bits.
  bool bit_granular_access = false;
};

class FabricSim {
 public:
  // Resolved-source encodings (precomputed from the decoded mux codes so the
  // eval loop never re-decodes). Shared with GangSim, whose word-parallel
  // state arrays use the same payload indexing.
  static constexpr u32 kSrcKindShift = 30;
  static constexpr u32 kSrcPayload = (1u << kSrcKindShift) - 1;
  enum : u32 {
    kSrcHalfLatch = 0u << kSrcKindShift,
    kSrcWire = 1u << kSrcKindShift,
    kSrcOutput = 2u << kSrcKindShift,
    kSrcZero = 3u << kSrcKindShift,
  };
  static constexpr u32 kNoTile = 0xFFFFFFFFu;

  /// One tile's decoded configuration plus the derived acceleration caches
  /// refresh_tile_activity() maintains. Exposed (read-only) so GangSim can
  /// run variant lanes with exactly the structures the scalar engine decoded.
  struct Tile : TileConfig {
    std::vector<u8> driven_wires;    ///< wire indices with omux code != 0
    std::vector<u8> connected_pins;  ///< pins with non-half-latch imux codes
    bool active = false;
    bool has_local_feedback = false;  ///< any pin reads an own CLB output
    u8 active_lut_mask = 0;  ///< LUTs that can ever output nonzero
    u8 override_mask = 0;  ///< CLB outputs overridden by the harness
    u8 override_vals = 0;
    u8 lut_base_idx[kLutsPerClb];  ///< index bits from half-latch-fed pins
    u8 lut_dyn_mask[kLutsPerClb];  ///< pins needing dynamic resolution
  };

  explicit FabricSim(std::shared_ptr<const ConfigSpace> space,
                     const ArchVariants& variants = {});

  const ArchVariants& variants() const { return variants_; }

  const ConfigSpace& space() const { return *space_; }
  const DeviceGeometry& geometry() const { return space_->geometry(); }

  // ---- Configuration port -----------------------------------------------------
  /// Writes every frame and runs the startup sequence: FFs assume their init
  /// values, all half-latches assume their startup values, BRAM output
  /// registers clear.
  void full_configure(const Bitstream& bs);
  /// Partial reconfiguration of one frame. No startup sequence: FF values,
  /// half-latches and BRAM output registers are untouched; LUT cells covered
  /// by the frame are overwritten (including live SRL16 contents — the
  /// read-modify-write hazard).
  void write_frame(const FrameAddress& fa, const BitVector& data);
  /// Readback of one frame: the current configuration memory, with LUT cells
  /// reflecting live (possibly shifted) contents. If `clock_running` and the
  /// frame covers an SRL16/RAM16 site that is currently write-enabled, that
  /// site's bits in the returned frame are corrupted; reading a BRAM column
  /// corrupts the output registers of its blocks.
  BitVector read_frame(const FrameAddress& fa, bool clock_running = false);
  /// Convenience single-bit fault injection through the configuration port:
  /// reads the frame image, flips one bit, writes it back (what the SEU
  /// simulator's corrupt/repair steps do, §III-A).
  void flip_config_bit(const BitAddress& addr);
  /// Bit-granular configuration write (§IV-B proposal). Only legal when
  /// variants().bit_granular_access is set; unlike a frame write it cannot
  /// clobber neighbouring dynamic state by construction.
  void write_config_bit(const BitAddress& addr, bool v);
  /// Current value of a configuration bit (live memory).
  bool config_bit(const BitAddress& addr) const;

  // ---- Dirty-frame tracking ---------------------------------------------------
  // Every frame whose *readback content* may have diverged since the last
  // clear_dirty_frames() (or full_configure(), which resets the baseline) is
  // recorded here: partial-reconfiguration writes, runtime SRL16/RAM16 LUT
  // shifts, and BRAM port writes. A frame NOT in this set provably reads
  // back exactly what it held at the baseline — the invariant the SEU
  // injector's incremental repair relies on to skip the whole-column sweep.
  /// Global frame indices dirtied since the last clear (unordered, no
  /// duplicates).
  const std::vector<u32>& dirty_frames() const { return dirty_frames_; }
  bool frame_dirty(u32 global_frame) const {
    return frame_dirty_[global_frame] != 0;
  }
  void clear_dirty_frames();

  // ---- Harness attachment -----------------------------------------------------
  /// Overrides the combinational output `out_index` of `tile` with a
  /// harness-driven value (primary inputs, BRAM relays, external constants).
  void set_drive(TileCoord tile, u8 out_index, bool value);
  void clear_drives();
  /// Value seen at IMUX pin `pin` of `tile` (valid after eval()).
  bool pin_value(TileCoord tile, u8 pin) const;
  /// Value of CLB output `out` of `tile` (valid after eval()).
  bool output_value(TileCoord tile, u8 out) const;

  // ---- Execution ---------------------------------------------------------------
  void eval();
  void clock();
  /// Design reset (the paper's "reset the system"): restores FFs to their
  /// configured init values and clears BRAM output registers. Configuration
  /// memory, SRL16 contents and half-latches are NOT touched (reset is a
  /// logic operation, not a reconfiguration).
  void reset();
  /// Snapshot of every FF's state (used and unused — a corrupted decode can
  /// clock FFs the baseline never uses, and reset() deliberately skips
  /// those). Pairs with restore_ff_state() for hermetic rollback.
  const std::vector<u8>& ff_state_snapshot() const { return ff_state_; }
  /// Restores all FF state from a snapshot taken on this geometry and
  /// re-evaluates. Unlike reset(), covers unused FFs too.
  void restore_ff_state(const std::vector<u8>& state);
  u64 cycle_count() const { return cycle_count_; }
  /// True when the last eval() hit the oscillation bound (a corrupted
  /// configuration formed a combinational loop).
  bool oscillating() const { return oscillating_; }

  // ---- Hidden state / radiation ------------------------------------------------
  /// SEU in a flip-flop's state (paper §II-C: "SEUs in flip-flop states can
  /// occur without disturbing the bitstream") — invisible to readback.
  void flip_ff(TileCoord tile, u8 ff);
  bool ff_value(TileCoord tile, u8 ff) const;
  bool halflatch(TileCoord tile, u8 pin) const;
  void set_halflatch(TileCoord tile, u8 pin, bool v);
  void flip_halflatch(TileCoord tile, u8 pin);
  u64 halflatch_sites() const { return geometry().halflatch_site_count(); }

  // ---- BRAM (virtual port wiring driven by the harness) -------------------------
  struct BramPortIn {
    bool we = false;
    u8 addr = 0;
    u16 din = 0;
  };
  /// Clocks one BRAM block with the given port inputs (WRITE_FIRST).
  void bram_clock(u16 bram_col, u16 block, const BramPortIn& in);
  u16 bram_dout(u16 bram_col, u16 block) const;
  u16 bram_word(u16 bram_col, u16 block, u8 addr) const;

  // ---- Permanent faults ----------------------------------------------------------
  enum class StuckKind : u8 { kWireStuck0, kWireStuck1, kOutputStuck0, kOutputStuck1 };
  struct PermanentFault {
    StuckKind kind = StuckKind::kWireStuck0;
    TileCoord tile;
    Dir dir = Dir::kNorth;  ///< for wire faults
    u8 windex = 0;          ///< for wire faults
    u8 output = 0;          ///< for output faults
  };
  void inject_permanent_fault(const PermanentFault& fault);
  void clear_permanent_faults();

  /// Number of tiles currently active (decoded as used); exposed for tests.
  std::size_t active_tile_count() const;
  /// Whether a tile currently decodes as active (drives wires, computes LUT
  /// outputs, clocks FFs, or reads any routed pin). An inactive tile
  /// consumes nothing and forwards nothing — the SEU injector's
  /// observability pruning builds on exactly this property.
  bool tile_active(TileCoord t) const { return tiles_[tidx(t)].active; }

  // ---- Gang-engine introspection ---------------------------------------------
  // Read-only views of the decoded tiles, resolved sources and value arrays.
  // GangSim mirrors FabricSim's evaluation word-parallel over these exact
  // structures, so they are exposed rather than re-derived.
  const Tile& tile_state(u32 tile) const { return tiles_[tile]; }
  u32 pin_source(u32 tile, u8 pin) const {
    return pin_src_[static_cast<std::size_t>(tile) * kImuxPins + pin];
  }
  u32 wire_source(u32 tile, u8 wire) const {
    return wire_src_[static_cast<std::size_t>(tile) * kWiresPerClb + wire];
  }
  u32 neighbor_index(u32 tile, int dir) const {
    return neighbor_[static_cast<std::size_t>(tile) * kDirs +
                     static_cast<std::size_t>(dir)];
  }
  const std::vector<u8>& wire_values() const { return wire_val_; }
  const std::vector<u8>& out_values() const { return out_val_; }
  const std::vector<u8>& halflatch_values() const { return halflatch_; }

 private:
  u32 tidx(TileCoord t) const { return space_->geometry().tile_index(t); }
  BitVector assemble_frame(const FrameAddress& fa) const;
  void decode_full_tile(TileCoord t);
  void refresh_tile_activity(u32 tile);
  void rebuild_seq_list();
  void mark_dirty(u32 tile);
  void mark_frame_dirty(u32 global_frame);
  void mark_lut_frames_dirty(u32 tile, u8 site);
  void process_tile(u32 tile);
  bool resolve_pin(const Tile& tl, u32 tile, u8 pin) const;

  std::shared_ptr<const ConfigSpace> space_;
  ArchVariants variants_;
  Bitstream cfg_;  ///< live configuration memory (non-LUT bits authoritative)

  std::vector<Tile> tiles_;
  std::vector<u8> wire_val_;    // [tile*96 + dir*24 + w]
  std::vector<u8> out_val_;     // [tile*8 + out]
  std::vector<u8> ff_state_;    // [tile*4 + ff]
  std::vector<u8> halflatch_;   // [tile*28 + pin]
  std::vector<u8> stuck_wire_;  // 0 none, 1 stuck0, 2 stuck1
  std::vector<u8> stuck_out_;   // same encoding, [tile*8 + out]
  bool have_permanent_faults_ = false;

  struct BramState {
    std::vector<u16> dout;  ///< per block
  };
  std::vector<BramState> bram_;  ///< per BRAM column (contents live in cfg_)

  // Precomputed topology / resolved sources.
  std::vector<u32> neighbor_;  // [tile*4 + dir], kNoTile sentinel at edges
  std::vector<u32> pin_src_;   // [tile*28 + pin]
  std::vector<u32> wire_src_;  // [tile*96 + wire]

  // Sequential-element acceleration.
  std::vector<u32> seq_tiles_;
  bool seq_list_stale_ = true;
  struct PendingFf {
    u32 tile;
    u8 ff;
    bool value;
  };
  struct PendingSrl {
    u32 tile;
    u8 site;
    u16 value;
  };
  std::vector<PendingFf> pending_ff_;
  std::vector<PendingSrl> pending_srl_;

  // Dirty-tile worklist.
  std::vector<u32> dirty_queue_;
  std::vector<u8> dirty_flag_;
  // Dirty-frame set (see dirty_frames()).
  std::vector<u32> dirty_frames_;
  std::vector<u8> frame_dirty_;
  bool oscillating_ = false;
  u64 cycle_count_ = 0;
  Rng corrupt_rng_{0xC0FFEE};  ///< deterministic readback-hazard corruption
};

/// A copy of the fabric that `FabricSim(space)` plus `full_configure(bs)`
/// produces (baseline architecture), taken from a process-wide memo: that
/// state is a pure function of the device geometry and the bitstream's
/// content, and building it costs milliseconds where the copy costs a
/// fraction of one. Entries are matched by content, never by address: the
/// geometry must be equal and the frames identical, so a bitstream edited in
/// place or a new design at a recycled address gets its own fabric. The memo
/// is thread-safe, builds outside its lock and holds at most 16 fabrics;
/// past that a request builds without inserting. Follow the copy with a
/// harness restart(), as configure() would.
FabricSim configured_fabric(const std::shared_ptr<const ConfigSpace>& space,
                            const Bitstream& bs);

}  // namespace vscrub
