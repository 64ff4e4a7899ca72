// The SEU simulator (paper §III-A, Figs. 6 & 8): corrupt one configuration
// bit through the configuration port, run the design against its golden
// trace, log discrepancies, repair the bit, optionally classify persistence,
// reset, repeat.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bitstream/selectmap.h"
#include "pnr/placed_design.h"
#include "sim/harness.h"
#include "sim/simd.h"

namespace vscrub {

struct InjectionOptions {
  u64 stim_seed = 7;
  /// Cycles run before output comparison starts (lets post-reset SRL state
  /// flush; must exceed design latency).
  u32 warmup_cycles = 48;
  /// When the design holds no dynamic LUT state (nothing survives a reset),
  /// shrink the warmup to this value: a large saving on exhaustive campaigns.
  u32 warmup_cycles_no_dynamic = 8;
  /// Compared window per injection.
  u32 observe_cycles = 64;
  /// Persistence check (paper §III, Table II): after repairing the bit, run
  /// `persistence_settle` cycles unchecked, then compare `persistence_check`
  /// cycles; any mismatch => the error is persistent (a reset is required).
  bool classify_persistence = false;
  u32 persistence_settle = 64;
  u32 persistence_check = 64;
  /// Design clock for the modeled-time accounting.
  double clock_hz = 20e6;  // "operate the designs at speed (up to 20 MHz)"
  SelectMapTiming timing = SelectMapTiming::pci_profile();
  /// Observability pruning: skip the clocked run for bits that provably
  /// cannot reach an output tap (padding slots, BRAM bits of BRAM-less
  /// designs, and bits of tiles whose whole neighbourhood decodes inactive).
  /// Sound — pruned bits report exactly what the full run would — and the
  /// main host-side speedup on low-utilization devices. Disable to force
  /// every bit through the full corrupt/run/repair loop.
  bool prune_unobservable = true;
  /// Bit-sliced gang evaluation: 0 or 1 runs every bit through the scalar
  /// loop; the host engine's width (preferred_gang_width(): 512 on
  /// AVX-512, 256 elsewhere) packs that many lanes, golden reference
  /// included, into one word-parallel simulation. Results are bit-for-bit
  /// identical to the scalar loop either way. Only designs without BRAM
  /// bindings or legitimate dynamic LUT state, and whose golden cone
  /// compiles to an eval plan, are gang-capable; everything else falls back
  /// to the scalar path automatically. Any other width throws
  /// GangWidthError at injector construction.
  u32 gang_width = preferred_gang_width();

  // Fluent construction, so call sites can assemble options in one
  // expression instead of mutating an aggregate field-by-field.
  InjectionOptions& with_stim_seed(u64 v) { stim_seed = v; return *this; }
  InjectionOptions& with_warmup_cycles(u32 v) { warmup_cycles = v; return *this; }
  InjectionOptions& with_observe_cycles(u32 v) { observe_cycles = v; return *this; }
  InjectionOptions& with_persistence(bool on = true) {
    classify_persistence = on;
    return *this;
  }
  InjectionOptions& with_persistence_window(u32 settle, u32 check) {
    classify_persistence = true;
    persistence_settle = settle;
    persistence_check = check;
    return *this;
  }
  InjectionOptions& with_pruning(bool on) { prune_unobservable = on; return *this; }
  InjectionOptions& with_gang_width(u32 w) { gang_width = w; return *this; }
};

/// Wall-clock telemetry accumulated across inject() calls; feeds the
/// campaign's per-phase progress reports.
struct InjectionPhases {
  double corrupt_s = 0.0;  ///< planting the upset (frame write)
  double run_s = 0.0;      ///< clocked run + golden comparison
  double repair_s = 0.0;   ///< incremental scrub restore
  double persist_s = 0.0;  ///< persistence classification window
  double gang_s = 0.0;     ///< wall clock inside gang dispatches (within run_s)
  u64 pruned = 0;  ///< injections short-circuited by observability pruning
  u64 gang_runs = 0;           ///< gang evaluations dispatched
  u64 gang_lanes = 0;          ///< candidate lanes across all gang runs
  u64 gang_early_exits = 0;    ///< gang runs retired before their full window
  u64 gang_fallbacks = 0;      ///< lanes re-run through the scalar path

  InjectionPhases& operator+=(const InjectionPhases& o) {
    corrupt_s += o.corrupt_s;
    run_s += o.run_s;
    repair_s += o.repair_s;
    persist_s += o.persist_s;
    gang_s += o.gang_s;
    pruned += o.pruned;
    gang_runs += o.gang_runs;
    gang_lanes += o.gang_lanes;
    gang_early_exits += o.gang_early_exits;
    gang_fallbacks += o.gang_fallbacks;
    return *this;
  }
};

struct InjectionResult {
  BitAddress addr;
  bool output_error = false;
  bool persistent = false;
  u32 first_error_cycle = 0;  ///< cycle index of the first mismatch
  u64 error_output_mask_lo = 0;  ///< which outputs differed first (bits 0..63)
  SimTime modeled_time;  ///< SLAAC-1V-style hardware time for this iteration
  /// The run tripped the fabric's oscillation handling (a flip-created
  /// combinational loop or an eval past the event budget). Such values are
  /// truncated by a *global* budget, so the verdict is not provably a
  /// function of the bit's influence closure alone — the verdict cache
  /// stores these under its conservative whole-design key.
  bool fabric_oscillated = false;
};

/// Modeled hardware time for one no-error loop iteration under `options`
/// (corrupt write + observation window + repair write + reset pulse). Also
/// the per-verdict cost the campaign charges for verdict-store hits: the
/// real testbed cannot cache, so cached and fresh iterations bill alike.
SimTime modeled_injection_iteration_time(const PlacedDesign& design,
                                         const InjectionOptions& options);

class DesignBaseline;
class GangSim;

/// Drives injections against one fabric instance. Reusable across many bits;
/// owns its fabric copy, harness and gang engine, and borrows the golden
/// trace, observability map and eval plan from the design's DesignBaseline.
class SeuInjector {
 public:
  /// Borrows DesignBaseline::of(design).
  SeuInjector(const PlacedDesign& design, const InjectionOptions& options);
  /// Borrows `baseline` and injects into its copy of the design.
  SeuInjector(std::shared_ptr<const DesignBaseline> baseline,
              const InjectionOptions& options);
  ~SeuInjector();

  /// Full injection loop for one configuration bit (Fig. 8): corrupt ->
  /// observe -> log -> repair -> (persistence check) -> reset.
  InjectionResult inject(const BitAddress& addr);

  /// Whether this design supports gang evaluation at all with the current
  /// options: a gang width of at least 2 and a baseline eval plan (no BRAM
  /// bindings, no legitimate dynamic LUT state, an acyclic golden cone).
  bool gang_capable() const;
  /// Whether `addr` may ride in a gang run. Bits the observability pruner
  /// would skip stay on the scalar path (which short-circuits them), as do
  /// BRAM-column bits.
  bool gang_eligible(const BitAddress& addr) const;
  /// Evaluates a batch of bits through the bit-sliced gang engine, up to
  /// options().gang_width - 1 candidates per run. Verdicts are bit-for-bit
  /// identical to per-bit inject() calls; lanes the engine cannot decide
  /// exactly are transparently re-run through the scalar loop. results[i]
  /// corresponds to addrs[i].
  std::vector<InjectionResult> run_gang(const std::vector<BitAddress>& addrs);

  /// Modeled time for one loop iteration with no error found (the common
  /// case, which dominates campaign wall-clock on the real testbed).
  SimTime modeled_iteration_time() const;

  const PlacedDesign& design() const { return *design_; }
  const DesignBaseline& baseline() const { return *baseline_; }
  /// The effective options (DesignBaseline::effective).
  const InjectionOptions& options() const { return options_; }
  FabricSim& fabric() { return sim_; }
  DesignHarness& harness() { return harness_; }
  const std::vector<OutputWord>& golden() const { return *golden_; }

  /// Whether flipping `addr` could possibly change an observed output (see
  /// InjectionOptions::prune_unobservable for the argument).
  bool bit_observable(const BitAddress& addr) const;

  /// Accumulated per-phase wall clock since construction / reset_phases().
  const InjectionPhases& phases() const { return phases_; }
  void reset_phases() { phases_ = InjectionPhases{}; }

 private:
  bool frame_is_dynamic_masked(const FrameAddress& fa) const;
  void scrub_restore(const BitAddress& addr);
  void hermetic_reset();

  std::shared_ptr<const DesignBaseline> baseline_;
  const PlacedDesign* design_;
  InjectionOptions options_;
  FabricSim sim_;
  DesignHarness harness_;
  const std::vector<OutputWord>* golden_;
  const std::vector<u8>* observable_;  ///< DesignBaseline::observable()
  // Hermetic-reset baseline: FF state right after configuration + restart().
  std::vector<u8> ff_baseline_;
  // Frames scrub_restore() deliberately left diverged from the golden image
  // (live SRL/RAM16 contents, BRAM data written by the design's own ports);
  // hermetic_reset() reloads them before the next injection.
  std::vector<u32> residual_frames_;
  // Gang engine, built by the first run_gang(). Fully independent of
  // sim_/harness_ (it owns its own fabric), so scalar fallback re-runs are
  // safe mid-batch.
  std::unique_ptr<GangSim> gang_;
  InjectionPhases phases_;
};

}  // namespace vscrub
