#include "fabric/geometry.h"

namespace vscrub {

std::optional<TileCoord> DeviceGeometry::neighbor(TileCoord t, Dir d) const {
  int row = t.row;
  int col = t.col;
  switch (d) {
    case Dir::kNorth: --row; break;
    case Dir::kSouth: ++row; break;
    case Dir::kEast: ++col; break;
    case Dir::kWest: --col; break;
  }
  if (!contains(row, col)) return std::nullopt;
  return TileCoord{static_cast<u16>(row), static_cast<u16>(col)};
}

DeviceGeometry device_xcv50ish() {
  return DeviceGeometry{.name = "XCV50ish", .rows = 16, .cols = 24,
                        .bram_columns = 2, .frame_pad_slots = 2};
}

DeviceGeometry device_xcv100ish() {
  return DeviceGeometry{.name = "XCV100ish", .rows = 20, .cols = 30,
                        .bram_columns = 2, .frame_pad_slots = 2};
}

DeviceGeometry device_xcv300ish() {
  return DeviceGeometry{.name = "XCV300ish", .rows = 32, .cols = 48,
                        .bram_columns = 2, .frame_pad_slots = 2};
}

DeviceGeometry device_xcv1000ish() {
  // 64 rows + 14 pad slots -> (64+14)*16 = 1248 bits = 156 bytes per frame,
  // matching the XQVR1000 frame size quoted in the paper (§II-A).
  return DeviceGeometry{.name = "XCV1000ish", .rows = 64, .cols = 96,
                        .bram_columns = 2, .frame_pad_slots = 14};
}

DeviceGeometry device_tiny(u16 rows, u16 cols, u16 bram_columns) {
  VSCRUB_CHECK(rows >= 4 && cols >= 4, "tiny device must be at least 4x4");
  VSCRUB_CHECK(rows % 4 == 0, "rows must be a multiple of 4 (BRAM banding)");
  return DeviceGeometry{.name = "tiny", .rows = rows, .cols = cols,
                        .bram_columns = bram_columns, .frame_pad_slots = 2};
}

const std::vector<NamedDevice>& device_catalog() {
  static const std::vector<NamedDevice> catalog = {
      {"campaign", device_tiny(12, 16)},
      {"xcv50", device_xcv50ish()},
      {"xcv100", device_xcv100ish()},
      {"xcv300", device_xcv300ish()},
      {"xcv1000", device_xcv1000ish()},
  };
  return catalog;
}

std::string describe_device(const DeviceGeometry& geom) {
  const std::string size = geom.name + " " + std::to_string(geom.rows) + "x" +
                           std::to_string(geom.cols);
  for (const NamedDevice& d : device_catalog()) {
    if (d.geometry == geom) return std::string(d.name) + " (" + size + ")";
  }
  return size;
}

std::string devices_with_bram() {
  std::string names;
  for (const NamedDevice& d : device_catalog()) {
    if (d.geometry.bram_columns > 0) names += std::string(d.name) + ", ";
  }
  return names + "tiny:RxC";
}

}  // namespace vscrub
