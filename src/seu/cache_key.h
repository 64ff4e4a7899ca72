// Content-addressed keying for the verdict store: what, exactly, does one
// injection verdict depend on?
//
// The verdict of flipping bit b in tile T is a pure function of
//   (1) the architecture and the verdict-affecting injection options
//       (effective warmup, observation window, persistence window) — the
//       arch fingerprint;
//   (2) the stimulus: seed, input width and the golden output trace the
//       comparator checks against — the stimulus hash;
//   (3) the content of b's own frame — the frame hash;
//   (4) the configuration of the logic the flip can propagate through — the
//       influence hash. A flip confined to T reaches at most T's own outputs
//       and the wires T drives, so it can only propagate through T, T's
//       4-neighbours, and the connected components of *active* tiles
//       (harness attachment points counted as active) touching that
//       neighbourhood: inactive tiles forward nothing, so new wire values
//       die at the first inactive hop. The influence hash folds the tile
//       configs and harness attachments of exactly that closure;
//   (5) the bit index itself.
// Two campaigns agreeing on all five get identical verdicts, which is what
// lets a delta re-campaign of a *changed* design reuse verdicts for bits
// whose closure the change did not touch.
//
// Conservative fallbacks, never unsound shortcuts: designs with BRAM
// bindings or legitimate dynamic LUT state key every bit against a
// whole-design hash (any change re-injects everything — still a 100% warm
// hit on an unchanged design). Injections that drive the fabric past its
// oscillation bound have values truncated by a *global* event budget, so
// their verdicts are stored under the whole-design fallback key too (see
// CacheKeyPlan::fallback_key_of).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "seu/injector.h"
#include "store/verdict_store.h"

namespace vscrub {

struct CacheKeyPlan {
  u64 arch_fingerprint = 0;
  u64 stimulus_hash = 0;
  std::vector<u64> frame_hashes;    ///< per global frame index
  std::vector<u64> tile_influence;  ///< per tile index (empty in whole-design mode)
  /// Whole-design keying: BRAM bindings or dynamic LUT state make precise
  /// influence closures unsound, so every bit keys against the full image.
  bool whole_design_influence = false;
  u64 whole_design_hash = 0;

  /// The exact content-addressed key for one configuration bit.
  VerdictKey key_of(const ConfigSpace& space, const BitAddress& addr,
                    u64 linear) const;
  /// The conservative variant: influence widened to the whole design image.
  /// Verdicts whose evaluation is not provably context-free (oscillation-
  /// bounded runs) are stored and probed under this key — exact for an
  /// unchanged design, invalidated by any frame change. Equal to key_of()
  /// when whole_design_influence is already set.
  VerdictKey fallback_key_of(const ConfigSpace& space, const BitAddress& addr,
                             u64 linear) const;
  /// Both keys of each bit in `linears`, as a store probe takes them:
  /// (*out)[i] == {key_of(...), fallback_key_of(...)} for linears[i]. The
  /// fields every key shares are folded once per batch.
  void key_pairs_of(const ConfigSpace& space, std::span<const u64> linears,
                    std::vector<VerdictKeyPair>* out) const;
};

/// The key plan for a design under the given injection options: a copy of
/// the one its DesignBaseline builds once per process (seu/design_baseline.h).
CacheKeyPlan build_cache_key_plan(const PlacedDesign& design,
                                  const InjectionOptions& options);

/// How DesignBaseline builds a plan from the effective options, their golden
/// trace and a configured fabric that has just run that whole trace.
CacheKeyPlan derive_cache_key_plan(const PlacedDesign& design,
                                   const InjectionOptions& effective,
                                   const std::vector<OutputWord>& golden,
                                   const FabricSim& golden_run);

}  // namespace vscrub
