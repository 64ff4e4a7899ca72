// GangSim: the bit-sliced gang evaluator. Packs injection candidates plus
// one golden reference into a single simulation by widening every
// wire/output/FF value to a lane word whose bit *i* carries lane *i*'s logic
// value (lane 0 is reserved for the uncorrupted golden design).
//
// The engine reuses FabricSim's decoded tile structures, resolved-source
// encodings and settle semantics — the word-level pass is, per lane, exactly
// the scalar pass — so gang results are
// bit-for-bit identical to running SeuInjector::inject() per candidate.
// Each lane's configuration delta is confined to one tile (a configuration
// bit decodes into exactly one tile's field); that tile is re-evaluated
// per-lane with the variant decode and its bits spliced back into the words,
// while every other tile is evaluated once for all lanes.
//
// This class is a thin facade over one of two engines, chosen by the host:
// the engine is a template over the lane word, instantiated as 512 lanes in
// the AVX-512 translation unit and as 256 portable lanes everywhere else
// (see sim/simd.h). Both produce identical verdicts, which
// tests/test_gang_wide asserts differentially. Golden combinational settles
// run from an ahead-of-time compiled eval plan (sim/eval_plan.h); a design
// whose golden cone does not compile to one is not gang-capable. The plan and
// the configured fabric (the engine's decode oracle is a copy) are built once
// per design by seu/design_baseline.h.
//
// Early exit: once a lane's configuration is repaired (the persistence
// phase), its state is a pure function of state the golden lane also holds —
// the cycle its divergence mask goes to zero with no pending FF delta it can
// never diverge again, so the lane retires with a non-persistent verdict.
// Lanes whose evaluation the engine cannot reproduce exactly (a corrupted
// decode oscillating past the settle bound) come back flagged `fallback` and
// must be re-run through the scalar path.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "pnr/placed_design.h"
#include "sim/harness.h"
#include "sim/simd.h"

namespace vscrub {

class GangEngineBase;
struct EvalPlan;

class GangSim {
 public:
  /// Verdict for one candidate lane; field meanings match InjectionResult.
  struct LaneResult {
    bool fallback = false;  ///< verdict unavailable: re-run the scalar path
    bool output_error = false;
    bool persistent = false;
    u32 first_error_cycle = 0;
    u64 error_output_mask_lo = 0;
  };

  /// Run schedule; mirrors the InjectionOptions fields the scalar loop uses.
  struct RunParams {
    u32 warmup_cycles = 0;
    u32 observe_cycles = 0;
    bool classify_persistence = false;
    u32 persistence_settle = 0;
    u32 persistence_check = 0;
    u64 stim_seed = 7;
    /// Reference output trace (from the netlist simulator). The golden lane
    /// self-checks against it every compared cycle; a mismatch aborts the
    /// run with every undecided lane flagged fallback.
    const std::vector<OutputWord>* golden = nullptr;
  };

  struct RunStats {
    u64 cycles_run = 0;
    u64 cycles_full = 0;  ///< cycles the run would take with no early exit
    bool early_exit = false;
  };

  /// Requires a BRAM-free design with no legitimate dynamic LUT state
  /// (flips may still *create* SRL16/RAM16 sites — those are modeled
  /// per-lane). `configured` is the fabric full_configure() gives and `plan`
  /// its compiled golden cone, borrowed for the engine's lifetime. Runs the
  /// host's engine (resolve_simd_isa(kAuto)); throws SimdIsaError on an
  /// unusable VSCRUB_FORCE_ISA.
  GangSim(const PlacedDesign& design, const FabricSim& configured,
          const EvalPlan& plan);
  ~GangSim();

  /// Evaluates `count` (<= max_variants()) candidate bit flips against one
  /// shared stimulus stream; results[i] is the verdict for addrs[i].
  void run(const BitAddress* addrs, std::size_t count, const RunParams& p,
           LaneResult* results, RunStats* stats);

  /// Candidate lanes per run: width - 1 (one lane is the golden reference).
  int max_variants() const { return static_cast<int>(width_) - 1; }
  /// Lanes per run: 512 on AVX-512, 256 on the portable engine.
  u32 width() const { return width_; }
  /// The SIMD tier executing.
  SimdIsa isa() const { return isa_; }
  /// The compiled golden eval plan the engine settles with.
  const EvalPlan& plan() const { return *plan_; }

 private:
  SimdIsa isa_;
  u32 width_;
  const EvalPlan* plan_;
  std::unique_ptr<GangEngineBase> engine_;
};

}  // namespace vscrub
