// Ahead-of-time compiled evaluation plan for the gang engine.
//
// FabricSim evaluates combinational logic by interpreting the fabric graph
// per cycle: a dirty-tile worklist, per-tile switches over resolved-source
// encodings, bounded re-passes for local feedback. That is the right
// machinery for *corrupted* decodes — they can form loops and oscillators —
// but the golden structure of a compiled design is a fixed acyclic dataflow
// graph, re-discovered identically millions of times per campaign.
//
// compile_eval_plan() topologically sorts the active cone once per design
// into a flat, branch-free op array: one op per live LUT output, per
// harness-overridden output and per driven wire, each reading its inputs
// from the same flat out/wire value arrays FabricSim uses. The gang engine
// executes the array front-to-back per settle; lanes whose configuration
// diverges from golden are then re-evaluated per lane on top, confined to
// their own tiles.
//
// A plan is schedule plus folded constants, not behaviour: it never changes
// what any lane computes, only the order in which the golden fixpoint is
// reached and which LUT inputs are read at all. LUT inputs that are constant
// under the golden configuration (pins tied off, pins reading a constant
// source, pins reading a half-latch, whose value no configuration write
// changes) are cofactored into the op's truth table at compile time, so a
// LUT op carries only its live inputs. Designs whose golden cone is *not*
// acyclic (a configured combinational loop) are rejected with a typed
// error; such a design is not gang-capable, and the injector runs it on the
// scalar path.
#pragma once

#include <string>
#include <vector>

#include "sim/fabric_sim.h"

namespace vscrub {

/// Typed rejection for plans that cannot be compiled or fail validation
/// (hostile/corrupted plans must never reach the execution loop, which
/// trades bounds checks away for speed).
class EvalPlanError : public Error {
 public:
  enum class Kind : u8 {
    kCombinationalCycle,  ///< golden cone is not acyclic
    kIndexOutOfRange,     ///< op reads or writes outside the value arrays
    kDuplicateWriter,     ///< two ops write the same destination
    kTopologyViolation,   ///< op reads a value a later op writes
    kBadOpKind,           ///< unknown op kind or array selector
    kBadLutArity,         ///< LUT arity above 4, or truth bits beyond it
  };
  EvalPlanError(Kind kind, const std::string& what)
      : Error(what), kind_(kind) {}
  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

const char* eval_plan_error_kind_name(EvalPlanError::Kind kind);

struct EvalPlan {
  /// Value-array selector for operand references and destinations. Indexing
  /// matches the engines' flat arrays: outputs are tile*kClbOutputs+out,
  /// wires tile*kWiresPerClb+wire, overrides share output indexing.
  enum class Arr : u8 {
    kOut = 0,
    kWire = 1,
    kOvr = 2,        ///< harness override words (sources only)
    kConstZero = 3,  ///< sources only; compiled plans use it for copies
  };
  enum class OpKind : u8 {
    kLut = 0,   ///< dst = cells[src[arity-1..0] index]
    kCopy = 1,  ///< dst = src[0]
  };
  struct Ref {
    Arr arr = Arr::kConstZero;
    u32 idx = 0;
  };
  struct Op {
    OpKind kind = OpKind::kCopy;
    Arr dst_arr = Arr::kOut;  ///< kOut or kWire
    /// Live LUT inputs (kLut only, 0..4): src[0..arity) index the truth
    /// table, whose bits at and above 2^arity are zero.
    u8 arity = 0;
    u32 dst = 0;
    u16 cells = 0;  ///< LUT truth table over the live inputs (kLut only)
    Ref src[kLutInputs];

    /// Operands the op reads: src[0..inputs()).
    int inputs() const { return kind == OpKind::kLut ? arity : 1; }
  };

  /// Topologically ordered: every op's plan-computed operands are written by
  /// earlier ops. Registered outputs, overrides and undriven wires are
  /// external inputs.
  std::vector<Op> ops;
  u32 num_outs = 0;
  u32 num_wires = 0;

  /// Full structural check of the invariants the executor relies on; throws
  /// EvalPlanError on the first violation. compile_eval_plan() output always
  /// passes; anything else (mutated, corrupted, hand-built) must be
  /// validated before execution.
  void validate() const;
};

/// Compiles the golden evaluation schedule of `fabric`'s current
/// configuration, folding its current half-latch values into the LUT ops
/// that read them. `ovr_mask[tile]` gives the effective per-tile override
/// mask (harness drives and external constants) — overridden outputs become
/// copies from the override array instead of LUT evaluations, and a tile
/// with any override stays in the plan even when its decode is inactive,
/// mirroring set_drive()'s force-activation in the scalar engine.
/// Throws EvalPlanError (kCombinationalCycle) when the active cone has a
/// configured combinational loop.
EvalPlan compile_eval_plan(const FabricSim& fabric,
                           const std::vector<u8>& ovr_mask);

/// Scalar reference executor over per-bit value arrays; the oracle the
/// property tests compare engines against. `outs`/`wires` are read-written
/// in place, `ovr` is indexed like `outs`.
void plan_execute(const EvalPlan& plan, const std::vector<u8>& ovr,
                  std::vector<u8>& outs, std::vector<u8>& wires);

}  // namespace vscrub
