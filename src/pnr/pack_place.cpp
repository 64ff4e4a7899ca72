// Packing (cells -> sites) and placement (sites -> LUT positions).
#include <algorithm>
#include <cmath>
#include <queue>

#include "common/log.h"
#include "pnr/pnr_internal.h"

namespace vscrub::pnr_detail {
namespace {

constexpr u32 kPositionsPerTile = 4;

struct SliceKey {
  // CE/SR compatibility key. kNoNet is a concrete value ("idle pin"); the
  // wildcard (no FF/SRL at the site) is encoded separately.
  bool ce_wild = true;
  bool sr_wild = true;
  NetId ce = kNoNet;
  NetId sr = kNoNet;
};

SliceKey site_key(const Site& s) {
  SliceKey k;
  switch (s.kind) {
    case Site::Kind::kLogic:
      if (s.has_ff()) {
        k.ce_wild = false;
        k.sr_wild = false;
        k.ce = s.ce_net;
        k.sr = s.sr_net;
      }
      break;
    case Site::Kind::kSrl:
      k.ce_wild = false;
      k.ce = s.ce_net;
      break;
    default:
      break;
  }
  return k;
}

bool keys_compatible(const SliceKey& a, const SliceKey& b) {
  if (!a.ce_wild && !b.ce_wild && a.ce != b.ce) return false;
  if (!a.sr_wild && !b.sr_wild && a.sr != b.sr) return false;
  return true;
}

bool in_region(const DeviceGeometry& geom, const Site& s, u32 pos) {
  const u32 tile = pos / kPositionsPerTile;
  const u16 col = geom.tile_coord(tile).col;
  return col >= s.min_col && col <= s.max_col;
}

}  // namespace

PackPlaceResult pack_and_place(const Netlist& nl, const DeviceGeometry& geom,
                               const PnrOptions& options, Rng& rng) {
  PackPlaceResult result;
  auto& sites = result.sites;

  // ---- 1. Pack cells into sites ---------------------------------------------
  std::vector<bool> lut_claimed(nl.cell_count(), false);

  // FF pairing: an FF shares a site with the LUT driving its D input when
  // that LUT output has no other sink.
  std::vector<i32> ff_paired_lut(nl.cell_count(), -1);
  for (CellId id = 0; id < nl.cell_count(); ++id) {
    const Cell& c = nl.cell(id);
    if (c.kind != CellKind::kFf) continue;
    const NetId d = c.inputs[0];
    const Net& dn = nl.net(d);
    const Cell& driver = nl.cell(dn.driver);
    if (driver.kind == CellKind::kLut && dn.sinks.size() == 1 &&
        !lut_claimed[dn.driver]) {
      ff_paired_lut[id] = static_cast<i32>(dn.driver);
      lut_claimed[dn.driver] = true;
    }
  }

  auto add_site = [&](Site s) -> u32 {
    sites.push_back(s);
    return static_cast<u32>(sites.size() - 1);
  };

  for (CellId id = 0; id < nl.cell_count(); ++id) {
    const Cell& c = nl.cell(id);
    switch (c.kind) {
      case CellKind::kFf: {
        Site s;
        s.kind = Site::Kind::kLogic;
        s.ff_cell = id;
        if (ff_paired_lut[id] >= 0) {
          s.lut_cell = static_cast<CellId>(ff_paired_lut[id]);
        }
        s.ce_net = c.inputs[1];
        s.sr_net = c.inputs[2];
        const u32 idx = add_site(s);
        result.site_of_cell[id] = idx;
        if (s.lut_cell != kNoCell) result.site_of_cell[s.lut_cell] = idx;
        break;
      }
      case CellKind::kSrl16: {
        Site s;
        s.kind = Site::Kind::kSrl;
        s.lut_cell = id;
        s.ce_net = c.inputs[1];
        result.site_of_cell[id] = add_site(s);
        break;
      }
      case CellKind::kInput: {
        Site s;
        s.kind = Site::Kind::kInput;
        s.lut_cell = id;
        result.site_of_cell[id] = add_site(s);
        break;
      }
      default:
        break;
    }
  }
  // Unclaimed LUTs get their own sites.
  for (CellId id = 0; id < nl.cell_count(); ++id) {
    const Cell& c = nl.cell(id);
    if (c.kind != CellKind::kLut || lut_claimed[id]) continue;
    Site s;
    s.kind = Site::Kind::kLogic;
    s.lut_cell = id;
    result.site_of_cell[id] = add_site(s);
  }

  // ---- 2. BRAM bindings and relay sites --------------------------------------
  u16 next_bram_col = 0;
  u16 next_block[2] = {0, 0};
  for (CellId id = 0; id < nl.cell_count(); ++id) {
    const Cell& c = nl.cell(id);
    if (c.kind != CellKind::kBram) continue;
    VSCRUB_CHECK(geom.bram_columns > 0,
                 "design uses BRAM but device " + describe_device(geom) +
                     " has no BRAM columns; use one that has: " +
                     devices_with_bram());
    PlacedDesign::BramBinding binding;
    binding.cell = id;
    binding.bram_col = next_bram_col;
    binding.block = next_block[next_bram_col];
    VSCRUB_CHECK(binding.block < geom.bram_blocks_per_column(),
                 "design exceeds BRAM block capacity");
    ++next_block[next_bram_col];
    next_bram_col = static_cast<u16>((next_bram_col + 1) % geom.bram_columns);

    binding.input_taps.resize(c.inputs.size());
    binding.input_tap_valid.assign(c.inputs.size(), 0);
    binding.const_pin_values.assign(c.inputs.size(), 0);
    binding.dout_drives.resize(c.outputs.size());
    binding.dout_drive_valid.assign(c.outputs.size(), 0);

    // Relay site per DOUT lane that actually has sinks.
    const bool west = binding.bram_col == 0;
    const u16 lo = west ? 0 : static_cast<u16>(geom.cols - 3);
    const u16 hi = west ? 2 : static_cast<u16>(geom.cols - 1);
    for (std::size_t lane = 0; lane < c.outputs.size(); ++lane) {
      if (nl.net(c.outputs[lane]).sinks.empty()) continue;
      Site s;
      s.kind = Site::Kind::kBramRelay;
      s.bram_cell = id;
      s.bram_lane = static_cast<u8>(lane);
      s.min_col = lo;
      s.max_col = hi;
      add_site(s);
      binding.dout_drive_valid[lane] = 1;  // drive point filled after placement
    }
    result.brams.push_back(std::move(binding));
  }

  // ---- 3. Constant provider sites --------------------------------------------
  // Count pins that will need a routed constant, then shard providers at a
  // fan-out of 24 sinks each. Demand depends on the half-latch policy:
  //  * kUseHalfLatches: only polarity-mismatched constants are routed.
  //  * kLutRomConstants / kExternalConstants: every constant *control* pin is
  //    routed, including idle CE/SR pins that would otherwise ride on
  //    half-latches (this is RadDRC's transformation).
  const bool raddrc = options.halflatch_policy != HalfLatchPolicy::kUseHalfLatches;
  std::size_t demand[2] = {0, 0};
  // SRL tap-address constant pins.
  for (CellId id = 0; id < nl.cell_count(); ++id) {
    const Cell& c = nl.cell(id);
    if (c.kind == CellKind::kSrl16) {
      for (int i = 0; i < 4; ++i) {
        const NetId a = c.inputs[static_cast<std::size_t>(2 + i)];
        if (a == kNoNet) continue;
        const Cell& drv = nl.cell(nl.net(a).driver);
        if (drv.kind == CellKind::kConst) {
          if (raddrc || !drv.const_value) ++demand[drv.const_value ? 1 : 0];
        }
      }
    }
  }
  // CE/SR slice pins: one per slice worst-case. Count sites with FF/SRL.
  std::size_t ctl_sites = 0;
  for (const Site& s : sites) {
    if (s.kind == Site::Kind::kLogic ? s.has_ff() : s.kind == Site::Kind::kSrl) {
      ++ctl_sites;
    }
  }
  if (raddrc) {
    demand[1] += ctl_sites;  // CE tied high
    demand[0] += ctl_sites;  // SR tied low
  } else {
    // Explicit const nets with mismatched polarity at control pins.
    for (CellId id = 0; id < nl.cell_count(); ++id) {
      const Cell& c = nl.cell(id);
      if (c.kind != CellKind::kFf) continue;
      for (int pin = 1; pin <= 2; ++pin) {
        const NetId n = c.inputs[static_cast<std::size_t>(pin)];
        if (n == kNoNet) continue;
        const Cell& drv = nl.cell(nl.net(n).driver);
        if (drv.kind != CellKind::kConst) continue;
        const bool match = (pin == 1) ? drv.const_value : !drv.const_value;
        if (!match) ++demand[drv.const_value ? 1 : 0];
      }
    }
  }
  for (int v = 0; v < 2; ++v) {
    const std::size_t providers = (demand[v] + 23) / 24;
    for (std::size_t p = 0; p < providers; ++p) {
      Site s;
      s.kind = options.halflatch_policy == HalfLatchPolicy::kExternalConstants
                   ? Site::Kind::kExtConst
                   : Site::Kind::kRomConst;
      s.const_value = v != 0;
      result.const_sites[v].push_back(add_site(s));
    }
  }

  // ---- 3b. Placement-group bands ----------------------------------------------
  // Cells tagged with placement groups (TMR domains) are confined to
  // disjoint column bands so a single tile-level fault cannot straddle
  // domains.
  {
    u8 max_group = 0;
    for (const Cell& c : nl.cells()) max_group = std::max(max_group, c.placement_group);
    if (max_group > 0) {
      const u16 band = static_cast<u16>(geom.cols / max_group);
      VSCRUB_CHECK(band >= 1, "more placement groups than device columns");
      for (u32 si = 0; si < sites.size(); ++si) {
        Site& s = sites[si];
        u8 group = 0;
        if (s.lut_cell != kNoCell) group = nl.cell(s.lut_cell).placement_group;
        if (group == 0 && s.ff_cell != kNoCell) {
          group = nl.cell(s.ff_cell).placement_group;
        }
        if (group == 0) continue;
        s.min_col = static_cast<u16>((group - 1) * band);
        s.max_col = group == max_group ? static_cast<u16>(geom.cols - 1)
                                       : static_cast<u16>(group * band - 1);
      }
    }
  }

  // ---- 4. Capacity check ------------------------------------------------------
  const u32 capacity = geom.tile_count() * kPositionsPerTile;
  VSCRUB_CHECK(sites.size() <= capacity,
               "design does not fit: " + std::to_string(sites.size()) +
                   " sites > " + std::to_string(capacity) + " positions");

  // ---- 5. Initial placement (BFS order, slice-compatible greedy fill) -------
  // Site adjacency via netlist connectivity.
  std::vector<std::vector<u32>> adj(sites.size());
  auto site_of = [&](CellId id) -> i32 {
    auto it = result.site_of_cell.find(id);
    return it == result.site_of_cell.end() ? -1 : static_cast<i32>(it->second);
  };
  for (NetId n = 0; n < nl.net_count(); ++n) {
    const Net& net = nl.net(n);
    const i32 src = site_of(net.driver);
    if (src < 0) continue;
    for (const Net::Sink& sink : net.sinks) {
      const i32 dst = site_of(sink.cell);
      if (dst < 0 || dst == src) continue;
      adj[static_cast<u32>(src)].push_back(static_cast<u32>(dst));
      adj[static_cast<u32>(dst)].push_back(static_cast<u32>(src));
    }
  }
  // BFS from input sites (then any unvisited).
  std::vector<u32> order;
  order.reserve(sites.size());
  std::vector<bool> visited(sites.size(), false);
  std::queue<u32> frontier;
  auto push = [&](u32 s) {
    if (!visited[s]) {
      visited[s] = true;
      frontier.push(s);
    }
  };
  for (u32 s = 0; s < sites.size(); ++s) {
    if (sites[s].kind == Site::Kind::kInput) push(s);
  }
  for (u32 seed = 0; seed < sites.size(); ++seed) {
    push(seed);
    while (!frontier.empty()) {
      const u32 s = frontier.front();
      frontier.pop();
      order.push_back(s);
      for (u32 t : adj[s]) push(t);
    }
  }

  Placement& pl = result.placement;
  pl.site_of_pos.assign(capacity, -1);
  pl.pos_of_site.assign(sites.size(), 0);

  // Snake order over tiles; within a tile, positions 0..3 (two slices).
  std::vector<u32> tile_order;
  tile_order.reserve(geom.tile_count());
  for (u16 col = 0; col < geom.cols; ++col) {
    if (col % 2 == 0) {
      for (u16 row = 0; row < geom.rows; ++row) {
        tile_order.push_back(geom.tile_index(TileCoord{row, col}));
      }
    } else {
      for (int row = geom.rows - 1; row >= 0; --row) {
        tile_order.push_back(
            geom.tile_index(TileCoord{static_cast<u16>(row), col}));
      }
    }
  }

  // Place region-constrained sites first into their regions, then the rest.
  std::vector<u32> constrained;
  std::vector<u32> free_sites;
  for (u32 s : order) {
    (sites[s].max_col != 0xFFFF ? constrained : free_sites).push_back(s);
  }
  auto try_place_at = [&](u32 s, u32 pos) -> bool {
    if (pl.site_of_pos[pos] >= 0) return false;
    if (!in_region(geom, sites[s], pos)) return false;
    // Slice compatibility with the sibling position.
    const u32 sibling = pos ^ 1u;
    const i32 other = pl.site_of_pos[sibling];
    if (other >= 0 &&
        !keys_compatible(site_key(sites[s]), site_key(sites[static_cast<u32>(other)]))) {
      return false;
    }
    pl.site_of_pos[pos] = static_cast<i32>(s);
    pl.pos_of_site[s] = pos;
    return true;
  };
  for (u32 s : constrained) {
    bool placed = false;
    for (u32 tile : tile_order) {
      for (u32 p = 0; p < kPositionsPerTile && !placed; ++p) {
        placed = try_place_at(s, tile * kPositionsPerTile + p);
      }
      if (placed) break;
    }
    VSCRUB_CHECK(placed, "could not place region-constrained site");
  }
  std::size_t cursor = 0;  // rolling scan over tile positions
  for (u32 s : free_sites) {
    bool placed = false;
    for (std::size_t step = 0; step < tile_order.size() * kPositionsPerTile && !placed;
         ++step) {
      const std::size_t raw = (cursor + step) % (tile_order.size() * kPositionsPerTile);
      const u32 tile = tile_order[raw / kPositionsPerTile];
      const u32 p = static_cast<u32>(raw % kPositionsPerTile);
      placed = try_place_at(s, tile * kPositionsPerTile + p);
      if (placed) cursor = raw;
    }
    VSCRUB_CHECK(placed, "could not place site (device full or incompatible)");
  }

  // ---- 6. Annealing refinement (HPWL) ----------------------------------------
  // Nets as site lists.
  std::vector<std::vector<u32>> net_sites(nl.net_count());
  std::vector<std::vector<u32>> nets_of_site(sites.size());
  for (NetId n = 0; n < nl.net_count(); ++n) {
    const Net& net = nl.net(n);
    std::vector<u32> ss;
    const i32 src = site_of(net.driver);
    if (src >= 0) ss.push_back(static_cast<u32>(src));
    for (const Net::Sink& sink : net.sinks) {
      const i32 d = site_of(sink.cell);
      if (d >= 0) ss.push_back(static_cast<u32>(d));
    }
    std::sort(ss.begin(), ss.end());
    ss.erase(std::unique(ss.begin(), ss.end()), ss.end());
    if (ss.size() < 2) continue;
    net_sites[n] = ss;
    for (u32 s : ss) nets_of_site[s].push_back(n);
  }
  auto net_hpwl = [&](NetId n) -> i64 {
    const auto& ss = net_sites[n];
    if (ss.empty()) return 0;
    int min_r = 1 << 30, max_r = -1, min_c = 1 << 30, max_c = -1;
    for (u32 s : ss) {
      const TileCoord t = geom.tile_coord(pl.pos_of_site[s] / kPositionsPerTile);
      min_r = std::min<int>(min_r, t.row);
      max_r = std::max<int>(max_r, t.row);
      min_c = std::min<int>(min_c, t.col);
      max_c = std::max<int>(max_c, t.col);
    }
    return (max_r - min_r) + (max_c - min_c);
  };

  const u64 total_moves =
      static_cast<u64>(options.anneal_moves_per_site) * sites.size();
  if (total_moves > 0 && !sites.empty()) {
    double temperature = 4.0;
    const double cooling =
        total_moves > 1 ? std::pow(0.005 / temperature,
                                   1.0 / static_cast<double>(total_moves))
                        : 1.0;
    for (u64 move = 0; move < total_moves; ++move, temperature *= cooling) {
      const u32 s = static_cast<u32>(rng.uniform(sites.size()));
      const u32 old_pos = pl.pos_of_site[s];
      // Propose a target position within a window around the current one.
      const TileCoord ct = geom.tile_coord(old_pos / kPositionsPerTile);
      const int window = 1 + static_cast<int>(temperature * 4);
      const int nr = std::clamp<int>(
          ct.row + static_cast<int>(rng.uniform(static_cast<u64>(2 * window + 1))) - window,
          0, geom.rows - 1);
      const int nc = std::clamp<int>(
          ct.col + static_cast<int>(rng.uniform(static_cast<u64>(2 * window + 1))) - window,
          0, geom.cols - 1);
      const u32 new_pos =
          geom.tile_index(TileCoord{static_cast<u16>(nr), static_cast<u16>(nc)}) *
              kPositionsPerTile +
          static_cast<u32>(rng.uniform(kPositionsPerTile));
      if (new_pos == old_pos) continue;
      const i32 other = pl.site_of_pos[new_pos];
      // Region constraints for both movers.
      if (!in_region(geom, sites[s], new_pos)) continue;
      if (other >= 0 && !in_region(geom, sites[static_cast<u32>(other)], old_pos)) continue;
      // Slice compatibility after the swap.
      auto compatible_at = [&](u32 site_idx, u32 pos) -> bool {
        const u32 sibling = pos ^ 1u;
        i32 sib = pl.site_of_pos[sibling];
        // The sibling may be one of the movers; resolve post-move occupancy.
        if (sibling == old_pos) sib = other;
        if (sibling == new_pos) sib = static_cast<i32>(s);
        if (sib < 0 || sib == static_cast<i32>(site_idx)) return true;
        return keys_compatible(site_key(sites[site_idx]),
                               site_key(sites[static_cast<u32>(sib)]));
      };
      if (!compatible_at(s, new_pos)) continue;
      if (other >= 0 && !compatible_at(static_cast<u32>(other), old_pos)) continue;

      // Cost delta over affected nets.
      std::vector<NetId> affected = nets_of_site[s];
      if (other >= 0) {
        affected.insert(affected.end(), nets_of_site[static_cast<u32>(other)].begin(),
                        nets_of_site[static_cast<u32>(other)].end());
        std::sort(affected.begin(), affected.end());
        affected.erase(std::unique(affected.begin(), affected.end()),
                       affected.end());
      }
      i64 before = 0;
      for (NetId n : affected) before += net_hpwl(n);
      // Apply.
      pl.site_of_pos[old_pos] = other;
      pl.site_of_pos[new_pos] = static_cast<i32>(s);
      pl.pos_of_site[s] = new_pos;
      if (other >= 0) pl.pos_of_site[static_cast<u32>(other)] = old_pos;
      i64 after = 0;
      for (NetId n : affected) after += net_hpwl(n);
      const i64 delta = after - before;
      if (delta > 0 &&
          rng.uniform01() >= std::exp(-static_cast<double>(delta) / temperature)) {
        // Revert.
        pl.site_of_pos[old_pos] = static_cast<i32>(s);
        pl.site_of_pos[new_pos] = other;
        pl.pos_of_site[s] = old_pos;
        if (other >= 0) pl.pos_of_site[static_cast<u32>(other)] = new_pos;
      }
    }
  }

  // ---- 7. Output taps ---------------------------------------------------------
  std::vector<u8> iopads_used(geom.tile_count(), 0);
  auto alloc_iopad = [&](TileCoord near) -> TapPoint {
    // BFS ring search outward from `near` for a tile with a free IOPAD.
    for (int radius = 0; radius < geom.rows + geom.cols; ++radius) {
      for (int dr = -radius; dr <= radius; ++dr) {
        for (int dc : {-(radius - std::abs(dr)), radius - std::abs(dr)}) {
          const int r = near.row + dr;
          const int c = near.col + dc;
          if (!geom.contains(r, c)) continue;
          const u32 t = geom.tile_index(
              TileCoord{static_cast<u16>(r), static_cast<u16>(c)});
          if (iopads_used[t] < 4) {
            TapPoint tap;
            tap.tile = geom.tile_coord(t);
            tap.pin = static_cast<u8>(iopad_pin(iopads_used[t]));
            ++iopads_used[t];
            return tap;
          }
          if (radius == 0) break;
        }
      }
    }
    throw Error("out of IOPAD observation pins");
  };

  result.output_taps.reserve(nl.output_cells().size());
  for (CellId out : nl.output_cells()) {
    const NetId src = nl.cell(out).inputs[0];
    const i32 drv_site = site_of(nl.net(src).driver);
    TileCoord near{0, 0};
    if (drv_site >= 0) {
      near = geom.tile_coord(pl.pos_of_site[static_cast<u32>(drv_site)] /
                             kPositionsPerTile);
    }
    result.output_taps.push_back(alloc_iopad(near));
  }

  // BRAM input taps for non-constant pins.
  for (auto& binding : result.brams) {
    const Cell& c = nl.cell(binding.cell);
    const bool west = binding.bram_col == 0;
    const TileCoord near{static_cast<u16>(std::min<int>(
                             binding.block * 4, geom.rows - 1)),
                         west ? static_cast<u16>(0)
                              : static_cast<u16>(geom.cols - 1)};
    for (std::size_t pin = 0; pin < c.inputs.size(); ++pin) {
      const NetId n = c.inputs[pin];
      if (n == kNoNet) {
        binding.const_pin_values[pin] = 0;
        continue;
      }
      const Cell& drv = nl.cell(nl.net(n).driver);
      if (drv.kind == CellKind::kConst) {
        binding.const_pin_values[pin] = drv.const_value ? 1 : 0;
        continue;
      }
      binding.input_taps[pin] = alloc_iopad(near);
      binding.input_tap_valid[pin] = 1;
    }
  }

  // ---- 8. Stats ---------------------------------------------------------------
  result.stats.sites_used = sites.size();
  std::vector<bool> slice_used(geom.tile_count() * 2, false);
  std::size_t ffs = 0;
  for (u32 s = 0; s < sites.size(); ++s) {
    slice_used[pl.pos_of_site[s] / 2] = true;
    if (sites[s].has_ff()) ++ffs;
  }
  result.stats.ffs_used = ffs;
  result.stats.slices_used = static_cast<std::size_t>(
      std::count(slice_used.begin(), slice_used.end(), true));
  result.stats.utilization = static_cast<double>(result.stats.slices_used) /
                             static_cast<double>(geom.slice_count());
  return result;
}

}  // namespace vscrub::pnr_detail
