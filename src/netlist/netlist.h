// LUT-level structural netlist IR. This is the "design entry" layer: the
// paper's test designs (Figs. 9 and 10) are built as netlists of LUT4s, FFs,
// SRL16s and BRAMs, then placed, routed and bitgen'd onto the fabric.
#pragma once

#include <array>
#include <limits>
#include <string>
#include <vector>

#include "common/types.h"

namespace vscrub {

using CellId = u32;
using NetId = u32;
inline constexpr NetId kNoNet = std::numeric_limits<NetId>::max();
inline constexpr CellId kNoCell = std::numeric_limits<CellId>::max();

enum class CellKind : u8 {
  kInput,   ///< primary input port (driven by the testbench)
  kOutput,  ///< primary output port (observed by the comparator)
  kConst,   ///< constant 0/1 — implementation chosen at PnR time
            ///< (half-latch, LUT-ROM, or external pin; see HalfLatchPolicy)
  kLut,     ///< combinational LUT, up to 4 inputs
  kFf,      ///< D flip-flop with optional CE and synchronous reset
  kSrl16,   ///< 16-bit shift register in a LUT site (dynamic LUT state)
  kBram,    ///< 256x16 block RAM with registered output
};

/// Pin conventions:
///   kLut:    0..3  = LUT inputs (only the first `num_inputs` used)
///   kFf:     0 = D, 1 = CE (optional), 2 = SR (optional)
///   kSrl16:  0 = D, 1 = CE (optional), 2..5 = tap address A0..A3
///   kOutput: 0 = source
///   kBram:   0 = WE, 1..8 = ADDR[0..7], 9..24 = DIN[0..15]
struct Cell {
  CellKind kind = CellKind::kLut;
  std::string name;
  u16 lut_truth = 0;      ///< kLut: truth table; kSrl16: initial contents
  u8 num_inputs = 0;      ///< kLut: arity
  bool const_value = false;
  bool ff_init = false;
  /// Placement-region hint: 0 = anywhere; g>0 = column band g of the groups
  /// present in the design (used by TMR for domain separation).
  u8 placement_group = 0;
  std::vector<NetId> inputs;
  std::vector<NetId> outputs;  ///< 1 net for most kinds; 16 for kBram (DOUT)
  bool operator==(const Cell&) const = default;
};

struct Net {
  std::string name;
  CellId driver = kNoCell;
  u8 driver_pin = 0;  ///< output pin index of the driver (BRAM DOUT lane)
  struct Sink {
    CellId cell;
    u8 pin;
    bool operator==(const Sink&) const = default;
  };
  std::vector<Sink> sinks;
  bool operator==(const Net&) const = default;
};

class Netlist {
 public:
  explicit Netlist(std::string name = "design") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Same name, cells, nets, BRAM contents and ports.
  bool operator==(const Netlist&) const = default;

  // ---- Construction ----------------------------------------------------------
  NetId add_input(const std::string& port_name);
  CellId add_output(const std::string& port_name, NetId src);
  NetId const_net(bool value);  ///< memoized per value
  NetId add_lut(u16 truth, const std::vector<NetId>& ins,
                const std::string& cell_name = {});
  NetId add_ff(NetId d, bool init = false, NetId ce = kNoNet, NetId sr = kNoNet,
               const std::string& cell_name = {});
  NetId add_srl16(NetId d, const std::array<NetId, 4>& addr, NetId ce = kNoNet,
                  u16 init = 0, const std::string& cell_name = {});
  static constexpr int kBramWidthNets = 16;
  struct BramPorts {
    CellId cell;
    std::array<NetId, kBramWidthNets> dout;
  };
  BramPorts add_bram(NetId we, const std::array<NetId, 8>& addr,
                     const std::array<NetId, 16>& din,
                     const std::vector<u16>& init_words = {},
                     const std::string& cell_name = {});

  /// Sets a cell's placement-region hint (see Cell::placement_group).
  void set_placement_group(CellId cell, u8 group) {
    cells_[cell].placement_group = group;
  }

  /// Removes LUT input `pin` from `cell` (a kLut), replacing the truth
  /// table with `new_truth` over the remaining inputs. Used by the
  /// constant-folding legalization pass.
  void fold_lut_input(CellId cell, unsigned pin, u16 new_truth);

  /// Reconnects input `pin` of `cell` to `new_net`. Needed to close
  /// sequential feedback loops (counters, LFSRs): the FF is created with a
  /// placeholder D and rewired once the next-state logic exists.
  void rewire_input(CellId cell, u8 pin, NetId new_net);

  // ---- Access ----------------------------------------------------------------
  std::size_t cell_count() const { return cells_.size(); }
  std::size_t net_count() const { return nets_.size(); }
  const Cell& cell(CellId id) const { return cells_[id]; }
  const Net& net(NetId id) const { return nets_[id]; }
  const std::vector<Cell>& cells() const { return cells_; }
  const std::vector<Net>& nets() const { return nets_; }

  /// Primary ports in declaration order.
  const std::vector<CellId>& input_cells() const { return input_cells_; }
  const std::vector<CellId>& output_cells() const { return output_cells_; }
  std::size_t num_inputs() const { return input_cells_.size(); }
  std::size_t num_outputs() const { return output_cells_.size(); }

  /// BRAM initial contents (indexed like cells; empty for non-BRAM).
  const std::vector<u16>& bram_init(CellId id) const { return bram_init_[id]; }

  struct Stats {
    std::size_t luts = 0;
    std::size_t ffs = 0;
    std::size_t srl16s = 0;
    std::size_t brams = 0;
    std::size_t consts = 0;
    /// Slice estimate with LUT/FF pairing: a slice holds 2 LUT sites, each
    /// pairable with one FF.
    std::size_t slice_estimate = 0;
  };
  Stats stats() const;

 private:
  NetId new_net(CellId driver, u8 driver_pin, const std::string& net_name = {});
  void connect(NetId net, CellId cell, u8 pin);

  std::string name_;
  std::vector<Cell> cells_;
  std::vector<Net> nets_;
  std::vector<std::vector<u16>> bram_init_;
  std::vector<CellId> input_cells_;
  std::vector<CellId> output_cells_;
  NetId const_nets_[2] = {kNoNet, kNoNet};
};

}  // namespace vscrub
