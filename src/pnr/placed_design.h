// PlacedDesign: the output of compile() — a netlist bound to fabric sites,
// its routed nets, the generated golden bitstream, and the bookkeeping the
// rest of the system needs (harness attachment points, half-latch usage for
// RadDRC and the beam model, dynamic-state frames for scrub masking).
#pragma once

#include <memory>
#include <vector>

#include "bitstream/bitstream.h"
#include "netlist/netlist.h"

namespace vscrub {

/// A LUT site on the fabric: tile + LUT index 0..3 (slice = lut/2).
struct LutSiteRef {
  TileCoord tile;
  u8 lut = 0;
  constexpr auto operator<=>(const LutSiteRef&) const = default;
};

/// CLB output index of a site's combinational output: slice s, LUT l ->
/// s*4 + (l%2); the registered outputs are s*4 + 2 + (f%2).
constexpr int comb_output_index(int lut) {
  return (lut / kLutsPerSlice) * 4 + (lut % kLutsPerSlice);
}
constexpr int reg_output_index(int ff) {
  return (ff / kLutsPerSlice) * 4 + 2 + (ff % kLutsPerSlice);
}

/// A point the simulation harness drives directly (primary inputs and BRAM
/// dout relays): the combinational output `out_index` of `tile` is overridden
/// with a harness-supplied value every cycle.
struct DrivePoint {
  TileCoord tile;
  u8 out_index = 0;
  bool operator==(const DrivePoint&) const = default;
};

/// A point the harness observes (primary outputs): IOPAD pin `pin` of `tile`.
struct TapPoint {
  TileCoord tile;
  u8 pin = 0;  ///< kPinIopadBase..kPinIopadBase+3
  bool operator==(const TapPoint&) const = default;
};

/// One wire of a routed net: the out-wire (dir, windex) of `tile`, with the
/// OMUX code that was programmed to feed it.
struct RoutedWire {
  TileCoord tile;
  Dir dir = Dir::kNorth;
  u8 windex = 0;
  u8 code = 0;
};

struct RoutedNet {
  NetId net = kNoNet;
  std::vector<RoutedWire> wires;
};

/// Record of a pin whose value comes from a half-latch (no routed source).
/// `critical` pins change design behaviour if the half-latch flips (CE, SR);
/// non-critical ones are covered by redundant LUT encoding (unused LUT
/// inputs). Paper §III-C.
struct HalfLatchUse {
  TileCoord tile;
  u8 pin = 0;
  bool critical = false;
};

enum class HalfLatchPolicy : u8 {
  /// Xilinx-CAD-like default: constants and idle control pins come from
  /// half-latches wherever the polarity matches.
  kUseHalfLatches,
  /// RadDRC output: control-pin constants are routed from LUT-ROM constant
  /// generators; only non-critical (redundantly-encoded) LUT-input
  /// half-latches remain.
  kLutRomConstants,
  /// RadDRC alternative: constants are routed from external input ports
  /// that the harness drives.
  kExternalConstants,
};

struct PnrOptions {
  HalfLatchPolicy halflatch_policy = HalfLatchPolicy::kUseHalfLatches;
  u64 seed = 1;
  /// Simulated-annealing moves per site (0 disables refinement).
  u32 anneal_moves_per_site = 64;
  /// PathFinder iterations before the router gives up.
  int router_max_iters = 48;
};

struct PnrStats {
  std::size_t sites_used = 0;   ///< LUT sites (LUT/SRL/input/relay/ROM)
  std::size_t slices_used = 0;
  std::size_t ffs_used = 0;
  std::size_t wires_used = 0;   ///< routed wire segments
  std::size_t total_wirelength = 0;
  int router_iterations = 0;
  double utilization = 0.0;     ///< slices_used / device slices
};

struct PlacedDesign {
  std::shared_ptr<const Netlist> netlist;
  std::shared_ptr<const ConfigSpace> space;
  PnrOptions options;

  Bitstream bitstream;  ///< the golden configuration

  /// Harness attachment, aligned with netlist->input_cells() /
  /// output_cells().
  std::vector<DrivePoint> input_drives;
  std::vector<TapPoint> output_taps;

  /// Constant values the harness must drive when the design was compiled
  /// with HalfLatchPolicy::kExternalConstants: drive point + value.
  struct ExternalConst {
    DrivePoint drive;
    bool value = false;
    bool operator==(const ExternalConst&) const = default;
  };
  std::vector<ExternalConst> external_consts;

  /// BRAM binding: netlist cell -> block, virtual port wiring.
  struct BramBinding {
    CellId cell = kNoCell;
    u16 bram_col = 0;
    u16 block = 0;
    /// Tap points carrying the routed values of non-constant input pins;
    /// aligned with the cell's input pins (pin -> tap), kNoTap if the pin is
    /// constant or unconnected (then `const_pin_values` applies).
    std::vector<TapPoint> input_taps;
    std::vector<u8> input_tap_valid;    // bool per pin
    std::vector<u8> const_pin_values;   // value per pin when no tap
    /// Drive points emitting DOUT lanes into the fabric (only lanes with
    /// sinks are materialized).
    std::vector<DrivePoint> dout_drives;
    std::vector<u8> dout_drive_valid;   // bool per lane
    bool operator==(const BramBinding&) const = default;
  };
  std::vector<BramBinding> brams;

  std::vector<RoutedNet> routed_nets;
  std::vector<HalfLatchUse> halflatch_uses;

  /// LUT sites holding dynamic state (SRL16/RAM16) — drives the scrubber's
  /// frame masking and the read-modify-write repair path.
  std::vector<LutSiteRef> dynamic_lut_sites;

  PnrStats stats;

  PlacedDesign(std::shared_ptr<const Netlist> nl,
               std::shared_ptr<const ConfigSpace> sp)
      : netlist(std::move(nl)), space(std::move(sp)), bitstream(space) {}
};

}  // namespace vscrub
