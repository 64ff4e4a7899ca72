#include "seu/injector.h"

#include <algorithm>
#include <chrono>

#include "sim/eval_plan.h"
#include "sim/gang_sim.h"

namespace vscrub {

namespace {
class PhaseTimer {
 public:
  explicit PhaseTimer(double& sink)
      : sink_(sink), start_(std::chrono::steady_clock::now()) {}
  ~PhaseTimer() {
    sink_ += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start_)
                 .count();
  }

 private:
  double& sink_;
  std::chrono::steady_clock::time_point start_;
};
}  // namespace

SeuInjector::SeuInjector(const PlacedDesign& design,
                         const InjectionOptions& options)
    : design_(&design),
      options_(options),
      sim_(configured_fabric(design.space, design.bitstream)),
      harness_(design, sim_, options.stim_seed) {
  // Fail fast on an unsupported gang width: a campaign should reject it at
  // submission, not after hours of scalar injections when the first gang
  // batch finally dispatches.
  validate_gang_width(options_.gang_width);
  if (design.dynamic_lut_sites.empty()) {
    options_.warmup_cycles =
        std::min(options_.warmup_cycles, options_.warmup_cycles_no_dynamic);
  }
  const std::size_t trace_len =
      options_.warmup_cycles + options_.observe_cycles +
      (options_.classify_persistence
           ? options_.persistence_settle + options_.persistence_check
           : 0);
  golden_ = DesignHarness::reference_trace(*design_->netlist, trace_len,
                                           options_.stim_seed);
  harness_.restart();  // sim_ is configured already
  snapshot_observability();
  // The configuration just written is the dirty-tracking baseline every
  // incremental repair restores to, and the post-restart FF state is the
  // hermetic-reset baseline every injection rolls back to.
  sim_.clear_dirty_frames();
  ff_baseline_ = sim_.ff_state_snapshot();
}

SeuInjector::~SeuInjector() = default;

bool SeuInjector::gang_capable() const {
  if (options_.gang_width < 2 || !design_->brams.empty() ||
      !design_->dynamic_lut_sites.empty() || gang_unplannable_) {
    return false;
  }
  if (!gang_) {
    try {
      gang_ = std::make_unique<GangSim>(*design_);
    } catch (const EvalPlanError&) {
      gang_unplannable_ = true;  // a configured combinational loop
      return false;
    }
  }
  return true;
}

bool SeuInjector::gang_eligible(const BitAddress& addr) const {
  if (addr.frame.kind != ColumnKind::kClb) return false;
  // Pruned bits stay scalar: inject() short-circuits them (no clocked run at
  // all), which is faster than any gang lane and keeps the pruned counter
  // meaningful.
  if (options_.prune_unobservable && !bit_observable(addr)) return false;
  return true;
}

std::vector<InjectionResult> SeuInjector::run_gang(
    const std::vector<BitAddress>& addrs) {
  std::vector<InjectionResult> out;
  out.reserve(addrs.size());
  if (!gang_capable()) {
    for (const BitAddress& addr : addrs) out.push_back(inject(addr));
    return out;
  }

  GangSim::RunParams params;
  params.warmup_cycles = options_.warmup_cycles;
  params.observe_cycles = options_.observe_cycles;
  params.classify_persistence = options_.classify_persistence;
  params.persistence_settle = options_.persistence_settle;
  params.persistence_check = options_.persistence_check;
  params.stim_seed = options_.stim_seed;
  params.golden = &golden_;

  const std::size_t lanes_per_run =
      static_cast<std::size_t>(gang_->max_variants());
  std::vector<GangSim::LaneResult> lanes(lanes_per_run);
  const SimTime per_bit = modeled_iteration_time();

  for (std::size_t base = 0; base < addrs.size(); base += lanes_per_run) {
    const std::size_t n = std::min(lanes_per_run, addrs.size() - base);
    GangSim::RunStats stats;
    {
      PhaseTimer timer(phases_.run_s);
      PhaseTimer gang_timer(phases_.gang_s);
      gang_->run(addrs.data() + base, n, params, lanes.data(), &stats);
    }
    ++phases_.gang_runs;
    phases_.gang_lanes += n;
    if (stats.early_exit) ++phases_.gang_early_exits;
    for (std::size_t i = 0; i < n; ++i) {
      if (lanes[i].fallback) {
        ++phases_.gang_fallbacks;
        out.push_back(inject(addrs[base + i]));
        continue;
      }
      InjectionResult r;
      r.addr = addrs[base + i];
      r.output_error = lanes[i].output_error;
      r.persistent = lanes[i].persistent;
      r.first_error_cycle = lanes[i].first_error_cycle;
      r.error_output_mask_lo = lanes[i].error_output_mask_lo;
      // Modeled hardware time is per-bit: the real testbed runs the loop
      // serially no matter how the host simulates it.
      r.modeled_time = per_bit;
      out.push_back(r);
    }
  }
  return out;
}

void SeuInjector::snapshot_observability() {
  // A flip confined to tile T can only change T's own outputs and the wires
  // T drives. An *inactive* tile (omux all zero, no routed pins, no live
  // LUTs/FFs, no overrides) consumes nothing and forwards nothing, so a
  // corrupted T whose whole neighbourhood is inactive has no path to any
  // tap: its new wire values die at the first hop and nobody reads its
  // outputs. Hence: observable(T) = active(T) or any 4-neighbour active,
  // seeded with every harness attachment point so a constant-feeding tile
  // that happens to decode inactive is never pruned.
  const DeviceGeometry& geom = sim_.geometry();
  observable_.assign(geom.tile_count(), 0);
  for (u16 r = 0; r < geom.rows; ++r) {
    for (u16 c = 0; c < geom.cols; ++c) {
      bool obs = sim_.tile_active({r, c});
      if (!obs && r > 0) obs = sim_.tile_active({static_cast<u16>(r - 1), c});
      if (!obs && r + 1 < geom.rows)
        obs = sim_.tile_active({static_cast<u16>(r + 1), c});
      if (!obs && c > 0) obs = sim_.tile_active({r, static_cast<u16>(c - 1)});
      if (!obs && c + 1 < geom.cols)
        obs = sim_.tile_active({r, static_cast<u16>(c + 1)});
      if (obs) observable_[geom.tile_index({r, c})] = 1;
    }
  }
  auto seed = [&](TileCoord t) { observable_[geom.tile_index(t)] = 1; };
  for (const DrivePoint& d : design_->input_drives) seed(d.tile);
  for (const TapPoint& t : design_->output_taps) seed(t.tile);
  for (const auto& ec : design_->external_consts) seed(ec.drive.tile);
  for (const auto& b : design_->brams) {
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
  // BRAM content/config bits matter only when the design binds a block.
  bram_observable_ = !design_->brams.empty();
}

bool SeuInjector::bit_observable(const BitAddress& addr) const {
  if (addr.frame.kind == ColumnKind::kBram) return bram_observable_;
  // Writing any frame that covers live SRL16/RAM16 cells clobbers their
  // shifting contents with stale baseline values (the §IV-A read-modify-
  // write hazard) — an effect of the *write*, not the flipped bit, and one
  // the full loop faithfully reproduces. Never prune those injections.
  if (frame_is_dynamic_masked(addr.frame)) return true;
  const ConfigSpace::TileRef ref = sim_.space().tile_ref_of(addr);
  if (!ref.valid) return false;  // padding slot: no hardware behind it
  return observable_[sim_.geometry().tile_index(ref.tile)] != 0;
}

SimTime modeled_injection_iteration_time(const PlacedDesign& design,
                                         const InjectionOptions& options) {
  const SelectMapPort port(design.space.get(), options.timing);
  // Corrupt-frame write + observation window + repair write + reset pulse.
  BitAddress any;
  any.frame = FrameAddress{ColumnKind::kClb, 0, 0};
  const SimTime frame_op = port.frame_cost(any.frame);
  const SimTime observe = SimTime::seconds(
      static_cast<double>(options.observe_cycles) / options.clock_hz);
  return frame_op + observe + frame_op + SimTime::microseconds(8);
}

SimTime SeuInjector::modeled_iteration_time() const {
  return modeled_injection_iteration_time(*design_, options_);
}

bool SeuInjector::frame_is_dynamic_masked(const FrameAddress& fa) const {
  if (fa.kind != ColumnKind::kClb) return false;
  for (const LutSiteRef& site : design_->dynamic_lut_sites) {
    if (site.tile.col == fa.col &&
        ConfigSpace::frame_holds_slice_lut_bits(fa.frame,
                                                site.lut / kLutsPerSlice)) {
      return true;
    }
  }
  return false;
}

void SeuInjector::scrub_restore(const BitAddress& addr) {
  // Incremental repair: FabricSim records every frame whose readback may
  // have diverged since the last repair (partial-reconfiguration writes,
  // runtime SRL16/RAM16 shifts, BRAM port writes), so only that set — not a
  // whole-column sweep — needs restoring from the golden image. A frame not
  // in the set provably still reads back its baseline content. The dirty
  // set naturally covers collateral corruption beyond the flipped bit's own
  // frame — e.g. a LutMode flip turns a LUT into a shift register, whose
  // contents (16 truth bits in other frames) shift away while the clock
  // runs, marking those frames as they go.
  //
  // Frames covering the design's *legitimate* dynamic LUT state get the
  // paper's §IV read-modify-write treatment: the golden frame is written
  // with the dynamic sites' bits taken from the live readback, so repairing
  // the static bits does not clobber shifting SRL contents. (A flip
  // injected *into* a dynamic bit is deliberately left in place — it is a
  // data upset that the design flushes naturally, not configuration
  // damage.)
  const u32 injected_gf = sim_.space().global_frame_index(addr.frame);
  // Copy: the write_frame calls below re-mark the frames they touch.
  const std::vector<u32> dirty = sim_.dirty_frames();
  residual_frames_.clear();
  for (const u32 gf : dirty) {
    const FrameAddress fa = sim_.space().frame_of_global(gf);
    if (fa.kind == ColumnKind::kBram) {
      // Runtime writes through the design's own BRAM ports are live data,
      // not corruption — restore only the frame the injection hit.
      if (gf == injected_gf) {
        sim_.write_frame(fa, design_->bitstream.frame(fa));
      } else {
        residual_frames_.push_back(gf);
      }
      continue;
    }
    const BitVector live = sim_.read_frame(fa);
    BitVector golden = design_->bitstream.frame(fa);
    if (frame_is_dynamic_masked(fa)) {
      residual_frames_.push_back(gf);
      for (const LutSiteRef& site : design_->dynamic_lut_sites) {
        if (site.tile.col != fa.col ||
            !ConfigSpace::frame_holds_slice_lut_bits(
                fa.frame, site.lut / kLutsPerSlice)) {
          continue;
        }
        const u32 offset =
            static_cast<u32>(site.tile.row) * kBitsPerTilePerFrame +
            static_cast<u32>(site.lut % kLutsPerSlice);
        golden.set(offset, live.get(offset));
      }
    }
    if (!(live == golden)) sim_.write_frame(fa, golden);
  }
  // Everything now matches the baseline again except the deliberately-kept
  // frames recorded in residual_frames_, which hermetic_reset() reloads
  // before the next injection starts.
  sim_.clear_dirty_frames();
}

void SeuInjector::hermetic_reset() {
  // Every injection must be a pure function of its bit: any state a run can
  // leave behind — live SRL/RAM16 contents and BRAM data kept by the repair
  // (plus anything the persistence window shifted or wrote afterwards), and
  // FF values in sites only a corrupted decode ever clocked (reset() skips
  // unused FFs by design) — is rolled back to the post-configure baseline.
  if (sim_.oscillating()) {
    // A run that hit the oscillation bound drained its dirty queue with
    // wire and comb values unsettled, and re-evaluating only the dirty
    // tiles would carry them into the next bit. Start over from the
    // configured fabric instead; the harness keeps its reference to sim_.
    residual_frames_.clear();
    sim_ = configured_fabric(design_->space, design_->bitstream);
    harness_.restart();
    sim_.clear_dirty_frames();
    return;
  }
  std::vector<u32> stale = std::move(residual_frames_);
  residual_frames_.clear();
  const std::vector<u32>& dirty = sim_.dirty_frames();
  stale.insert(stale.end(), dirty.begin(), dirty.end());
  for (const u32 gf : stale) {
    const FrameAddress fa = sim_.space().frame_of_global(gf);
    sim_.write_frame(fa, design_->bitstream.frame(fa));
  }
  sim_.clear_dirty_frames();
  // Drop the input-drive overrides left by the last stepped cycle. Without
  // this the next injection's corrupt-time settle starts from the previous
  // run's final drive/comb fixpoint instead of the post-configure baseline —
  // and for flips that create feedback paths (multiple fixpoints) the verdict
  // depends on that starting state, breaking purity. restart() re-applies the
  // external constants, exactly as the constructor-time baseline had them.
  sim_.clear_drives();
  sim_.restore_ff_state(ff_baseline_);
  harness_.restart();
}

InjectionResult SeuInjector::inject(const BitAddress& addr) {
  InjectionResult result;
  result.addr = addr;

  // Observability pruning: when the flipped bit provably cannot reach a tap,
  // the clocked run is a foregone conclusion — no output error, no
  // persistence, and (since no clock edge occurs) no design state to reset.
  // The corrupt/repair round trip is still performed so the configuration
  // memory sees exactly the traffic the full loop would generate. Modeled
  // hardware time is unchanged: the real testbed cannot prune.
  const bool pruned =
      options_.prune_unobservable && !bit_observable(addr);

  // 1. Corrupt the bit: partial reconfiguration with the *original* frame
  //    image XOR the target bit (the simulator holds the original bitstream
  //    on the host, §III-A).
  {
    PhaseTimer timer(phases_.corrupt_s);
    BitVector img = design_->bitstream.frame(addr.frame);
    img.flip(addr.offset);
    sim_.write_frame(addr.frame, img);
  }

  // 2. Run with the clock going; the X0-style comparator checks outputs
  //    against the golden design every cycle.
  const u32 compare_from = options_.warmup_cycles;
  const u32 run_until = options_.warmup_cycles + options_.observe_cycles;
  if (!pruned) {
    PhaseTimer timer(phases_.run_s);
    for (u32 t = 0; t < run_until; ++t) {
      harness_.step();
      if (t < compare_from) continue;
      const OutputWord& got = harness_.last_outputs();
      const OutputWord& want = golden_[t];
      if (!(got == want)) {
        result.output_error = true;
        result.first_error_cycle = t;
        result.error_output_mask_lo = got.lo ^ want.lo;
        break;
      }
    }
  }

  // 3. Repair via scrubbing: restore the corrupted frames from the golden
  //    image (the flipped bit plus any collateral configuration damage).
  {
    PhaseTimer timer(phases_.repair_s);
    scrub_restore(addr);
  }

  // 4. Persistence classification: with the configuration repaired but the
  //    design NOT reset, does the error disappear (non-persistent) or does
  //    corrupted state keep the output diverged (persistent)?
  if (options_.classify_persistence && result.output_error) {
    PhaseTimer timer(phases_.persist_s);
    // Advance (unchecked) to the end of the observation window so the golden
    // trace stays cycle-aligned, then settle and check.
    while (harness_.cycle() < run_until) harness_.step();
    const u64 settle_until = run_until + options_.persistence_settle;
    while (harness_.cycle() < settle_until) harness_.step();
    const u64 check_until = settle_until + options_.persistence_check;
    while (harness_.cycle() < check_until) {
      harness_.step();
      if (!(harness_.last_outputs() == golden_[harness_.cycle() - 1])) {
        result.persistent = true;
        break;
      }
    }
  }

  // Sticky oscillation flag (cleared by the reset below): did this
  // injection ever drive the fabric through its oscillation handling?
  result.fabric_oscillated = sim_.oscillating();

  // 5. Reset for the next iteration — hermetically, so every injection is a
  //    pure function of its bit (the campaign scheduler depends on this: it
  //    hands bits to workers in a nondeterministic order). A pruned
  //    injection never clocked or re-decoded anything the repair didn't
  //    undo, so the design is still sitting in its baseline state — unless
  //    the corrupt-time decode tripped the (sticky) oscillation flag, which
  //    only a reset clears; reset then, or it would taint every later
  //    injection's fabric_oscillated.
  if (!pruned) {
    hermetic_reset();
  } else {
    ++phases_.pruned;
    if (result.fabric_oscillated) hermetic_reset();
  }

  result.modeled_time = modeled_iteration_time();
  return result;
}

}  // namespace vscrub
