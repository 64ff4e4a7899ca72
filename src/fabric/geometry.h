// Device geometry: the CLB array, BRAM columns, frame counts and sizes.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "fabric/arch.h"

namespace vscrub {

/// Coordinates of a CLB tile. Row 0 is the top (north) edge, column 0 the
/// west edge.
struct TileCoord {
  u16 row = 0;
  u16 col = 0;
  constexpr auto operator<=>(const TileCoord&) const = default;
};

struct DeviceGeometry {
  std::string name;
  u16 rows = 0;        ///< CLB rows
  u16 cols = 0;        ///< CLB columns
  u16 bram_columns = 0;  ///< dedicated BRAM columns (0 or 2: west & east edges)
  u16 frame_pad_slots = 2;  ///< extra 16-bit row-slots per CLB frame (IOB/clock
                            ///< overhead region; insensitive in this model)
  bool operator==(const DeviceGeometry&) const = default;

  u32 tile_count() const { return static_cast<u32>(rows) * cols; }
  u32 tile_index(TileCoord t) const { return static_cast<u32>(t.row) * cols + t.col; }
  TileCoord tile_coord(u32 index) const {
    return TileCoord{static_cast<u16>(index / cols), static_cast<u16>(index % cols)};
  }
  bool contains(int row, int col) const {
    return row >= 0 && col >= 0 && row < rows && col < cols;
  }

  /// Neighbor in direction `d`, or nullopt at the device edge.
  std::optional<TileCoord> neighbor(TileCoord t, Dir d) const;

  // -- Frame geometry ---------------------------------------------------------
  /// Bits per CLB-column frame: one 16-bit slot per CLB row plus padding slots.
  u32 clb_frame_bits() const {
    return (static_cast<u32>(rows) + frame_pad_slots) * kBitsPerTilePerFrame;
  }
  u32 clb_frame_bytes() const { return (clb_frame_bits() + 7) / 8; }
  u32 clb_frame_count() const { return static_cast<u32>(cols) * kFramesPerClbColumn; }

  u16 bram_blocks_per_column() const { return static_cast<u16>(rows / 4); }
  u32 bram_frame_bits() const {
    return static_cast<u32>(bram_blocks_per_column()) * 64;
  }
  u32 bram_frame_count() const {
    return static_cast<u32>(bram_columns) * kBramFramesPerColumn;
  }

  u32 total_frames() const { return clb_frame_count() + bram_frame_count(); }
  u64 total_config_bits() const {
    return static_cast<u64>(clb_frame_count()) * clb_frame_bits() +
           static_cast<u64>(bram_frame_count()) * bram_frame_bits();
  }

  u32 slice_count() const { return tile_count() * kSlicesPerClb; }
  u32 halflatch_site_count() const { return tile_count() * kImuxPins; }
};

/// Device presets. The "-ish" suffix marks them as behavioural analogues of
/// the Xilinx parts, sized to give comparable slice counts and configuration
/// volumes (XCV1000ish: 6144 CLBs / 12288 slices, ~4.9M config bits, 156-byte
/// frames like the XQVR1000's).
DeviceGeometry device_xcv50ish();
DeviceGeometry device_xcv100ish();
DeviceGeometry device_xcv300ish();
DeviceGeometry device_xcv1000ish();
/// Small parts for unit tests and fast campaigns.
DeviceGeometry device_tiny(u16 rows, u16 cols, u16 bram_columns = 0);

/// The devices requests name ("campaign", "xcv50", ...), in `vscrubctl
/// devices` order. The parameterized "tiny:RxC" (with BRAM columns) is
/// parsed on top of these by device_by_name (svc/requests.h).
struct NamedDevice {
  const char* name;
  DeviceGeometry geometry;
};
const std::vector<NamedDevice>& device_catalog();

/// `geom` for a message: its catalog name when it is a catalog device, then
/// its kind and size ("campaign (tiny 12x16)").
std::string describe_device(const DeviceGeometry& geom);
/// The devices a design with BRAM can use: the catalog devices with BRAM
/// columns, then tiny:RxC ("xcv50, ..., tiny:RxC").
std::string devices_with_bram();

}  // namespace vscrub
