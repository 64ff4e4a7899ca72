// DesignBaseline: what stays fixed for a whole fault-injection campaign on
// one design. Every corrupted run is judged against one golden configuration
// and one golden output stream (paper §III-A); those, and what is derived
// from them, are built once per process and borrowed by every injector, gang
// engine, key plan and served request on the design. Per design: the
// configured fabric, the observability map and the gang eval plan. Per
// verdict-affecting option set (stimulus seed, effective warmup, observe and
// persistence windows): the golden trace, whether the fault-free fabric
// oscillates through it, and the key plan. Each product is built on first
// ask under the entry's lock (a concurrent asker waits for that one build)
// and never changes afterwards.
#pragma once

#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "seu/cache_key.h"
#include "sim/eval_plan.h"

namespace vscrub {

class DesignBaseline {
 public:
  /// The process-wide entry for `design`'s content, never its address:
  /// geometry, frame words, netlist and harness attachments (drives, taps,
  /// external constants, BRAM bindings, dynamic LUT sites) must all match.
  /// Thread-safe; at most 16 entries are kept, and past that a new entry is
  /// returned without being inserted.
  static std::shared_ptr<const DesignBaseline> of(const PlacedDesign& design);

  /// The entry's own copy of the design, which its products are built from.
  const PlacedDesign& design() const { return design_; }

  /// The fabric `FabricSim(space)` plus `full_configure(bitstream)` gives.
  /// Copy it and restart a harness on the copy, as configure() would.
  const FabricSim& fabric() const;
  /// Per tile index: whether a flip confined to the tile could reach an
  /// output tap (SeuInjector::bit_observable).
  const std::vector<u8>& observable() const;
  /// The golden eval plan gang engines settle with, or null when the design
  /// binds BRAM, holds dynamic LUT state or has a configured loop.
  const EvalPlan* plan() const;

  /// `options` with the injector's warmup shrink applied (no dynamic LUT
  /// state: at most warmup_cycles_no_dynamic): the cycles that actually run.
  InjectionOptions effective(const InjectionOptions& options) const;
  /// The netlist's golden output trace for `options`' stimulus seed, one
  /// injection long (warmup, observe window and any persistence window).
  const std::vector<OutputWord>& golden(const InjectionOptions& options) const;
  /// Whether the fault-free fabric trips its oscillation handling on it.
  bool baseline_oscillates(const InjectionOptions& options) const;
  /// The verdict-store key plan under `options` (seu/cache_key.h).
  const CacheKeyPlan& key_plan(const InjectionOptions& options) const;

 private:
  /// The products of one verdict-affecting option set.
  struct Run {
    InjectionOptions options;  ///< effective
    std::vector<OutputWord> golden;
    bool oscillates = false;  ///< set with key_plan
    std::optional<CacheKeyPlan> key_plan;
  };

  explicit DesignBaseline(const PlacedDesign& design);
  const FabricSim& fabric_locked() const;
  /// The option set's products; with `keyed`, its key plan built too.
  Run& run_locked(const InjectionOptions& options, bool keyed) const;

  const PlacedDesign design_;

  mutable std::mutex mutex_;
  mutable std::optional<FabricSim> fabric_;
  mutable std::optional<std::vector<u8>> observable_;
  mutable bool plan_built_ = false;
  mutable std::optional<EvalPlan> plan_;
  mutable std::list<Run> runs_;
};

}  // namespace vscrub
