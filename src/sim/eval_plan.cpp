#include "sim/eval_plan.h"

#include <functional>
#include <optional>
#include <queue>

namespace vscrub {
namespace {

constexpr u32 kSrcPayload = FabricSim::kSrcPayload;
constexpr u32 kSrcHalfLatch = FabricSim::kSrcHalfLatch;
constexpr u32 kSrcWire = FabricSim::kSrcWire;
constexpr u32 kSrcOutput = FabricSim::kSrcOutput;

/// A resolved-source encoding as a live plan operand, or nullopt when the
/// source is constant under the golden configuration: a half-latch (no
/// configuration write changes its value) or the constant-zero source.
std::optional<EvalPlan::Ref> live_ref(u32 enc) {
  const u32 payload = enc & kSrcPayload;
  switch (enc & ~kSrcPayload) {
    case kSrcWire:
      return EvalPlan::Ref{EvalPlan::Arr::kWire, payload};
    case kSrcOutput:
      return EvalPlan::Ref{EvalPlan::Arr::kOut, payload};
    default:
      return std::nullopt;
  }
}

u8 load_scalar(const EvalPlan::Ref& r, const std::vector<u8>& ovr,
               const std::vector<u8>& outs, const std::vector<u8>& wires) {
  switch (r.arr) {
    case EvalPlan::Arr::kOut:
      return outs[r.idx] ? 1 : 0;
    case EvalPlan::Arr::kWire:
      return wires[r.idx] ? 1 : 0;
    case EvalPlan::Arr::kOvr:
      return ovr[r.idx] ? 1 : 0;
    case EvalPlan::Arr::kConstZero:
      return 0;
  }
  return 0;
}

}  // namespace

const char* eval_plan_error_kind_name(EvalPlanError::Kind kind) {
  switch (kind) {
    case EvalPlanError::Kind::kCombinationalCycle:
      return "combinational-cycle";
    case EvalPlanError::Kind::kIndexOutOfRange:
      return "index-out-of-range";
    case EvalPlanError::Kind::kDuplicateWriter:
      return "duplicate-writer";
    case EvalPlanError::Kind::kTopologyViolation:
      return "topology-violation";
    case EvalPlanError::Kind::kBadOpKind:
      return "bad-op-kind";
    case EvalPlanError::Kind::kBadLutArity:
      return "bad-lut-arity";
  }
  return "?";
}

void EvalPlan::validate() const {
  const auto fail = [](EvalPlanError::Kind kind, const std::string& detail) {
    throw EvalPlanError(
        kind, std::string("eval plan rejected (") +
                  eval_plan_error_kind_name(kind) + "): " + detail);
  };
  // Node id space: outputs then wires. ~0 marks "not written by the plan".
  const std::size_t nodes =
      static_cast<std::size_t>(num_outs) + static_cast<std::size_t>(num_wires);
  std::vector<u32> writer_pos(nodes, ~u32{0});

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const std::string at = "op " + std::to_string(i);
    if (op.kind != OpKind::kLut && op.kind != OpKind::kCopy) {
      fail(EvalPlanError::Kind::kBadOpKind, at + " has unknown kind");
    }
    if (op.kind == OpKind::kLut &&
        (op.arity > kLutInputs ||
         (op.arity < kLutInputs && (op.cells >> (1u << op.arity)) != 0))) {
      fail(EvalPlanError::Kind::kBadLutArity,
           at + " has arity " + std::to_string(op.arity) +
               " with truth table " + std::to_string(op.cells));
    }
    std::size_t node;
    if (op.dst_arr == Arr::kOut) {
      if (op.dst >= num_outs) {
        fail(EvalPlanError::Kind::kIndexOutOfRange,
             at + " writes output " + std::to_string(op.dst) + " of " +
                 std::to_string(num_outs));
      }
      node = op.dst;
    } else if (op.dst_arr == Arr::kWire) {
      if (op.dst >= num_wires) {
        fail(EvalPlanError::Kind::kIndexOutOfRange,
             at + " writes wire " + std::to_string(op.dst) + " of " +
                 std::to_string(num_wires));
      }
      node = static_cast<std::size_t>(num_outs) + op.dst;
    } else {
      fail(EvalPlanError::Kind::kBadOpKind,
           at + " writes a read-only array");
      return;  // unreachable; placates flow analysis
    }
    if (writer_pos[node] != ~u32{0}) {
      fail(EvalPlanError::Kind::kDuplicateWriter,
           at + " rewrites a destination op " +
               std::to_string(writer_pos[node]) + " already wrote");
    }
    writer_pos[node] = static_cast<u32>(i);

    for (int k = 0; k < op.inputs(); ++k) {
      const Ref& r = op.src[k];
      switch (r.arr) {
        case Arr::kOut:
        case Arr::kOvr:
          if (r.idx >= num_outs) {
            fail(EvalPlanError::Kind::kIndexOutOfRange,
                 at + " reads output " + std::to_string(r.idx) + " of " +
                     std::to_string(num_outs));
          }
          break;
        case Arr::kWire:
          if (r.idx >= num_wires) {
            fail(EvalPlanError::Kind::kIndexOutOfRange,
                 at + " reads wire " + std::to_string(r.idx) + " of " +
                     std::to_string(num_wires));
          }
          break;
        case Arr::kConstZero:
          break;
        default:
          fail(EvalPlanError::Kind::kBadOpKind,
               at + " reads an unknown array");
      }
    }
  }

  // Second pass for topology: every plan-computed operand's writer must
  // precede the reader.
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    for (int k = 0; k < op.inputs(); ++k) {
      const Ref& r = op.src[k];
      std::size_t src_node = nodes;
      if (r.arr == Arr::kOut) src_node = r.idx;
      if (r.arr == Arr::kWire) {
        src_node = static_cast<std::size_t>(num_outs) + r.idx;
      }
      if (src_node >= nodes) continue;
      const u32 w = writer_pos[src_node];
      if (w != ~u32{0} && w >= i) {
        fail(EvalPlanError::Kind::kTopologyViolation,
             "op " + std::to_string(i) + " reads a value op " +
                 std::to_string(w) + " writes later");
      }
    }
  }
}

EvalPlan compile_eval_plan(const FabricSim& fabric,
                           const std::vector<u8>& ovr_mask) {
  const u32 ntiles = fabric.geometry().tile_count();
  VSCRUB_CHECK(ovr_mask.size() == ntiles,
               "override-mask size does not match the device");

  EvalPlan plan;
  plan.num_outs = ntiles * static_cast<u32>(kClbOutputs);
  plan.num_wires = ntiles * static_cast<u32>(kWiresPerClb);
  const std::vector<u8>& halflatch = fabric.halflatch_values();

  // Emit ops tile-major (good execution locality when the schedule happens
  // to already be topological); record each plan node's op index for the
  // dependency edges.
  const std::size_t nodes = static_cast<std::size_t>(plan.num_outs) +
                            static_cast<std::size_t>(plan.num_wires);
  constexpr u32 kNoOp = ~u32{0};
  std::vector<u32> node_op(nodes, kNoOp);
  const auto node_of = [&](const EvalPlan::Ref& r) -> std::size_t {
    if (r.arr == EvalPlan::Arr::kOut) return r.idx;
    if (r.arr == EvalPlan::Arr::kWire) {
      return static_cast<std::size_t>(plan.num_outs) + r.idx;
    }
    return nodes;
  };

  for (u32 t = 0; t < ntiles; ++t) {
    const FabricSim::Tile& tl = fabric.tile_state(t);
    const u8 ovr = ovr_mask[t];
    if (!tl.active && ovr == 0) continue;
    const u32 ob = t * static_cast<u32>(kClbOutputs);
    const u32 wb = t * static_cast<u32>(kWiresPerClb);

    for (int l = 0; l < kLutsPerClb; ++l) {
      const int out = (l / 2) * 4 + (l % 2);
      const u8 mask = static_cast<u8>(1u << out);
      const bool overridden = (ovr & mask) != 0;
      if (!(tl.active_lut_mask & (1u << l)) && !overridden) continue;
      EvalPlan::Op op;
      op.dst_arr = EvalPlan::Arr::kOut;
      op.dst = ob + static_cast<u32>(out);
      if (overridden) {
        op.kind = EvalPlan::OpKind::kCopy;
        op.src[0] = {EvalPlan::Arr::kOvr, op.dst};
      } else {
        // Cofactor the constant inputs into the truth table: `base` holds
        // their index bits, live_pin[k] the LUT input behind operand k.
        op.kind = EvalPlan::OpKind::kLut;
        unsigned base = 0;
        int live_pin[kLutInputs];
        for (int i = 0; i < kLutInputs; ++i) {
          if (!(tl.lut_dyn_mask[l] & (1u << i))) {
            base |= tl.lut_base_idx[l] & (1u << i);
            continue;
          }
          const u32 enc =
              fabric.pin_source(t, static_cast<u8>(lut_input_pin(l, i)));
          if (const auto r = live_ref(enc)) {
            live_pin[op.arity] = i;
            op.src[op.arity++] = *r;
          } else if ((enc & ~kSrcPayload) == kSrcHalfLatch &&
                     halflatch[enc & kSrcPayload] != 0) {
            base |= 1u << i;
          }
        }
        for (unsigned m = 0; m < (1u << op.arity); ++m) {
          unsigned idx = base;
          for (int k = 0; k < op.arity; ++k) {
            if (m & (1u << k)) idx |= 1u << live_pin[k];
          }
          if ((tl.lut_cells[l] >> idx) & 1) {
            op.cells = static_cast<u16>(op.cells | (1u << m));
          }
        }
      }
      node_op[op.dst] = static_cast<u32>(plan.ops.size());
      plan.ops.push_back(op);
    }

    for (u8 wire : tl.driven_wires) {
      EvalPlan::Op op;
      op.kind = EvalPlan::OpKind::kCopy;
      op.dst_arr = EvalPlan::Arr::kWire;
      op.dst = wb + wire;
      // The interpreter's wire copies read anything that is not a wire or
      // an output (half-latches included) as zero.
      op.src[0] = live_ref(fabric.wire_source(t, wire))
                      .value_or(EvalPlan::Ref{EvalPlan::Arr::kConstZero, 0});
      node_op[static_cast<std::size_t>(plan.num_outs) + op.dst] =
          static_cast<u32>(plan.ops.size());
      plan.ops.push_back(op);
    }
  }

  // Kahn's algorithm over op dependencies, lowest-op-index first: the order
  // is deterministic and keeps the emission (tile-major) locality wherever
  // the dependencies allow.
  const std::size_t nops = plan.ops.size();
  std::vector<u32> indeg(nops, 0);
  std::vector<std::vector<u32>> dependents(nops);
  for (std::size_t i = 0; i < nops; ++i) {
    const EvalPlan::Op& op = plan.ops[i];
    for (int k = 0; k < op.inputs(); ++k) {
      const std::size_t n = node_of(op.src[k]);
      if (n >= nodes) continue;
      const u32 w = node_op[n];
      if (w == kNoOp) continue;  // external input (FF output, undriven wire)
      ++indeg[i];
      dependents[w].push_back(static_cast<u32>(i));
    }
  }
  std::priority_queue<u32, std::vector<u32>, std::greater<u32>> ready;
  for (std::size_t i = 0; i < nops; ++i) {
    if (indeg[i] == 0) ready.push(static_cast<u32>(i));
  }
  std::vector<EvalPlan::Op> ordered;
  ordered.reserve(nops);
  while (!ready.empty()) {
    const u32 i = ready.top();
    ready.pop();
    ordered.push_back(plan.ops[i]);
    for (u32 d : dependents[i]) {
      if (--indeg[d] == 0) ready.push(d);
    }
  }
  if (ordered.size() != nops) {
    throw EvalPlanError(
        EvalPlanError::Kind::kCombinationalCycle,
        "eval plan rejected (combinational-cycle): " +
            std::to_string(nops - ordered.size()) +
            " of " + std::to_string(nops) +
            " ops form a combinational loop in the configured design");
  }
  plan.ops = std::move(ordered);

  // Compiler self-check: the executor's invariants hold by construction,
  // but a cheap one-time validate() keeps that claim tested on every design
  // rather than asserted in a comment.
  plan.validate();
  return plan;
}

void plan_execute(const EvalPlan& plan, const std::vector<u8>& ovr,
                  std::vector<u8>& outs, std::vector<u8>& wires) {
  VSCRUB_CHECK(outs.size() == plan.num_outs &&
                   wires.size() == plan.num_wires &&
                   ovr.size() == plan.num_outs,
               "plan_execute array sizes do not match the plan");
  for (const EvalPlan::Op& op : plan.ops) {
    u8 v;
    if (op.kind == EvalPlan::OpKind::kLut) {
      unsigned idx = 0;
      for (int k = 0; k < op.arity; ++k) {
        idx |= static_cast<unsigned>(load_scalar(op.src[k], ovr, outs, wires))
               << k;
      }
      v = (op.cells >> idx) & 1;
    } else {
      v = load_scalar(op.src[0], ovr, outs, wires);
    }
    if (op.dst_arr == EvalPlan::Arr::kOut) {
      outs[op.dst] = v;
    } else {
      wires[op.dst] = v;
    }
  }
}

}  // namespace vscrub
