#include "seu/design_baseline.h"

#include <algorithm>

namespace vscrub {

namespace {

/// Everything a product reads: geometry, frames, netlist and attachments
/// (the cheap fields first).
bool same_content(const PlacedDesign& a, const PlacedDesign& b) {
  return a.space->geometry() == b.space->geometry() &&
         a.input_drives == b.input_drives && a.output_taps == b.output_taps &&
         a.external_consts == b.external_consts && a.brams == b.brams &&
         a.dynamic_lut_sites == b.dynamic_lut_sites &&
         a.bitstream == b.bitstream && *a.netlist == *b.netlist;
}

/// The effective options a verdict depends on; the key plan's arch
/// fingerprint and stimulus hash cover exactly these.
bool same_verdict_options(const InjectionOptions& a,
                          const InjectionOptions& b) {
  return a.stim_seed == b.stim_seed && a.warmup_cycles == b.warmup_cycles &&
         a.observe_cycles == b.observe_cycles &&
         a.classify_persistence == b.classify_persistence &&
         a.persistence_settle == b.persistence_settle &&
         a.persistence_check == b.persistence_check;
}

}  // namespace

std::shared_ptr<const DesignBaseline> DesignBaseline::of(
    const PlacedDesign& design) {
  static std::mutex memo_mutex;
  static std::vector<std::shared_ptr<const DesignBaseline>> memo;
  constexpr std::size_t kMaxBaselines = 16;
  // A miss usually ends at the geometry or the attachments, and a new entry
  // is only a copy of the design (its products are built on first ask), so
  // both happen under the lock.
  std::lock_guard lock(memo_mutex);
  for (const auto& e : memo) {
    if (same_content(e->design_, design)) return e;
  }
  std::shared_ptr<const DesignBaseline> entry(new DesignBaseline(design));
  if (memo.size() < kMaxBaselines) memo.push_back(entry);
  return entry;
}

DesignBaseline::DesignBaseline(const PlacedDesign& design) : design_(design) {}

const FabricSim& DesignBaseline::fabric_locked() const {
  if (!fabric_) {
    fabric_.emplace(design_.space);
    fabric_->full_configure(design_.bitstream);
  }
  return *fabric_;
}

const FabricSim& DesignBaseline::fabric() const {
  std::lock_guard lock(mutex_);
  return fabric_locked();
}

const std::vector<u8>& DesignBaseline::observable() const {
  std::lock_guard lock(mutex_);
  if (observable_) return *observable_;
  // A flip confined to tile T can only change T's own outputs and the wires
  // T drives. An *inactive* tile (omux all zero, no routed pins, no live
  // LUTs/FFs, no overrides) consumes nothing and forwards nothing, so a
  // corrupted T whose whole neighbourhood is inactive has no path to any
  // tap: its new wire values die at the first hop and nobody reads its
  // outputs. Hence: observable(T) = active(T) or any 4-neighbour active,
  // seeded with every harness attachment point so a constant-feeding tile
  // that happens to decode inactive is never pruned. Activity is read after
  // a harness restart, which force-activates the external-constant tiles.
  FabricSim sim = fabric_locked();
  DesignHarness(design_, sim).restart();
  const DeviceGeometry& geom = sim.geometry();
  std::vector<u8> obs(geom.tile_count(), 0);
  for (u32 i = 0; i < geom.tile_count(); ++i) {
    const TileCoord t = geom.tile_coord(i);
    bool o = sim.tile_active(t);
    for (int d = 0; d < kDirs && !o; ++d) {
      const auto n = geom.neighbor(t, static_cast<Dir>(d));
      o = n && sim.tile_active(*n);
    }
    obs[i] = o ? 1 : 0;
  }
  const auto seed = [&](TileCoord t) { obs[geom.tile_index(t)] = 1; };
  for (const DrivePoint& d : design_.input_drives) seed(d.tile);
  for (const TapPoint& t : design_.output_taps) seed(t.tile);
  for (const auto& ec : design_.external_consts) seed(ec.drive.tile);
  for (const auto& b : design_.brams) {
    for (std::size_t p = 0; p < b.input_taps.size(); ++p) {
      if (p < b.input_tap_valid.size() && b.input_tap_valid[p]) {
        seed(b.input_taps[p].tile);
      }
    }
    for (std::size_t l = 0; l < b.dout_drives.size(); ++l) {
      if (l < b.dout_drive_valid.size() && b.dout_drive_valid[l]) {
        seed(b.dout_drives[l].tile);
      }
    }
  }
  return observable_.emplace(std::move(obs));
}

const EvalPlan* DesignBaseline::plan() const {
  std::lock_guard lock(mutex_);
  if (plan_built_ || !design_.brams.empty() ||
      !design_.dynamic_lut_sites.empty()) {
    return plan_ ? &*plan_ : nullptr;
  }
  plan_built_ = true;
  // The schedule of the settled pre-stimulus fixpoint, with every harness
  // drive and external constant as an override.
  FabricSim sim = fabric_locked();
  DesignHarness(design_, sim).restart();
  sim.eval();
  std::vector<u8> overrides(sim.geometry().tile_count(), 0);
  const auto override = [&](const DrivePoint& dp) {
    overrides[sim.geometry().tile_index(dp.tile)] |=
        static_cast<u8>(1u << dp.out_index);
  };
  for (const auto& ec : design_.external_consts) override(ec.drive);
  for (const DrivePoint& dp : design_.input_drives) override(dp);
  try {
    return &plan_.emplace(compile_eval_plan(sim, overrides));
  } catch (const EvalPlanError&) {
    return nullptr;  // a configured combinational loop
  }
}

InjectionOptions DesignBaseline::effective(
    const InjectionOptions& options) const {
  InjectionOptions eff = options;
  if (design_.dynamic_lut_sites.empty()) {
    eff.warmup_cycles =
        std::min(eff.warmup_cycles, eff.warmup_cycles_no_dynamic);
  }
  return eff;
}

DesignBaseline::Run& DesignBaseline::run_locked(const InjectionOptions& options,
                                                bool keyed) const {
  const InjectionOptions eff = effective(options);
  auto it = std::find_if(runs_.begin(), runs_.end(), [&](const Run& r) {
    return same_verdict_options(r.options, eff);
  });
  if (it == runs_.end()) {
    const std::size_t trace_len =
        static_cast<std::size_t>(eff.warmup_cycles) + eff.observe_cycles +
        (eff.classify_persistence
             ? static_cast<std::size_t>(eff.persistence_settle) +
                   eff.persistence_check
             : 0);
    it = runs_.insert(runs_.end(),
                      {eff,
                       DesignHarness::reference_trace(*design_.netlist,
                                                      trace_len, eff.stim_seed),
                       false, std::nullopt});
  }
  Run& run = *it;
  if (keyed && !run.key_plan) {
    // Golden-run probe: replay the whole trace once on the configured
    // fabric. It answers one load-bearing question — does the *baseline*
    // design ever trip the fabric's oscillation handling? Oscillation-
    // truncated values depend on a global event budget, not just on a bit's
    // closure.
    FabricSim sim = fabric_locked();
    DesignHarness probe(design_, sim, eff.stim_seed);
    probe.restart();
    for (std::size_t t = 0; t < run.golden.size(); ++t) probe.step();
    run.oscillates = sim.oscillating();
    run.key_plan.emplace(derive_cache_key_plan(design_, eff, run.golden, sim));
  }
  return run;
}

const std::vector<OutputWord>& DesignBaseline::golden(
    const InjectionOptions& options) const {
  std::lock_guard lock(mutex_);
  return run_locked(options, false).golden;
}

bool DesignBaseline::baseline_oscillates(
    const InjectionOptions& options) const {
  std::lock_guard lock(mutex_);
  return run_locked(options, true).oscillates;
}

const CacheKeyPlan& DesignBaseline::key_plan(
    const InjectionOptions& options) const {
  std::lock_guard lock(mutex_);
  return *run_locked(options, true).key_plan;
}

}  // namespace vscrub
