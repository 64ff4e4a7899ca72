// The eval-plan compiler (sim/eval_plan.h): differential equivalence of the
// compiled (constant-folded) schedule against the interpreting FabricSim,
// per cycle and per value; typed rejection of cyclic cones; and the
// validate() gauntlet over hostile/corrupted plans, one test per error kind.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/vscrub.h"
#include "seu/design_baseline.h"
#include "sim/eval_plan.h"
#include "svc/requests.h"

using namespace vscrub;

namespace {

/// Per-tile effective override mask, read back from the configured fabric
/// (harness drives + external constants both land in Tile::override_mask).
std::vector<u8> override_mask_of(const FabricSim& sim) {
  std::vector<u8> mask(sim.geometry().tile_count());
  for (u32 t = 0; t < mask.size(); ++t) mask[t] = sim.tile_state(t).override_mask;
  return mask;
}

/// Override *values*, indexed like the flat out array.
std::vector<u8> override_values_of(const FabricSim& sim) {
  std::vector<u8> ovr(static_cast<std::size_t>(sim.geometry().tile_count()) *
                      kClbOutputs);
  for (u32 t = 0; t < sim.geometry().tile_count(); ++t) {
    const FabricSim::Tile& tl = sim.tile_state(t);
    for (int o = 0; o < kClbOutputs; ++o) {
      if (tl.override_mask & (1u << o)) {
        ovr[static_cast<std::size_t>(t) * kClbOutputs +
            static_cast<std::size_t>(o)] = (tl.override_vals >> o) & 1;
      }
    }
  }
  return ovr;
}

/// Scrambles every plan-written entry, executes the plan from the fabric's
/// registered/external state, and asserts the result is exactly the
/// interpreter's settled fixpoint. The scramble is what makes this a real
/// differential test: the plan must *recompute* each value, not keep it.
void expect_plan_reproduces_fixpoint(const EvalPlan& plan, FabricSim& sim,
                                     const std::string& context) {
  std::vector<u8> outs = sim.out_values();
  std::vector<u8> wires = sim.wire_values();
  for (const EvalPlan::Op& op : plan.ops) {
    if (op.dst_arr == EvalPlan::Arr::kOut) {
      outs[op.dst] ^= 1;
    } else {
      wires[op.dst] ^= 1;
    }
  }
  plan_execute(plan, override_values_of(sim), outs, wires);
  const std::vector<u8>& want_outs = sim.out_values();
  const std::vector<u8>& want_wires = sim.wire_values();
  for (std::size_t i = 0; i < outs.size(); ++i) {
    ASSERT_EQ(outs[i] != 0, want_outs[i] != 0)
        << context << ": output " << i << " diverges from the interpreter";
  }
  for (std::size_t i = 0; i < wires.size(); ++i) {
    ASSERT_EQ(wires[i] != 0, want_wires[i] != 0)
        << context << ": wire " << i << " diverges from the interpreter";
  }
}

bool op_equal(const EvalPlan::Op& a, const EvalPlan::Op& b) {
  if (a.kind != b.kind || a.dst_arr != b.dst_arr || a.dst != b.dst ||
      a.arity != b.arity || a.cells != b.cells) {
    return false;
  }
  for (int k = 0; k < a.inputs(); ++k) {
    if (a.src[k].arr != b.src[k].arr || a.src[k].idx != b.src[k].idx) {
      return false;
    }
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Differential: compiled plan vs interpreter, cycle by cycle
// ---------------------------------------------------------------------------

TEST(EvalPlan, MatchesInterpreterPerCycleOnStaticDesigns) {
  struct Case {
    const char* name;
    Netlist netlist;
    DeviceGeometry device;
  };
  std::vector<Case> cases;
  cases.push_back({"counter_adder", designs::counter_adder(4), device_tiny(4, 6)});
  cases.push_back({"mult_tree", designs::mult_tree(4), device_tiny(8, 12)});
  cases.push_back({"lfsr_cluster", designs::lfsr_cluster(2), device_tiny(8, 8)});

  for (Case& c : cases) {
    const auto design = compile(std::move(c.netlist), c.device);
    FabricSim sim(design.space);
    DesignHarness harness(design, sim);
    harness.configure();
    sim.eval();

    const EvalPlan plan = compile_eval_plan(sim, override_mask_of(sim));
    EXPECT_NO_THROW(plan.validate()) << c.name;
    EXPECT_GT(plan.ops.size(), 0u) << c.name;

    // Per-cycle state snapshots: after every clocked cycle the plan must
    // rebuild the interpreter's exact settled state from scratch.
    for (int cycle = 0; cycle < 48; ++cycle) {
      harness.step();
      sim.eval();  // make the post-clock state a settled fixpoint
      expect_plan_reproduces_fixpoint(
          plan, sim, std::string(c.name) + " cycle " + std::to_string(cycle));
    }
  }
}

TEST(EvalPlan, CompilesOnBramAttachedDesigns) {
  // BRAM blocks live outside the CLB tile arrays the plan schedules; the
  // relay tiles the harness drives are plan inputs (override copies). The
  // *gang engine* refuses BRAM designs for other reasons (readback hazards),
  // but the compiler itself must handle the CLB cone fine.
  const auto design = compile(designs::bram_selftest(1), device_tiny(8, 8, 2));
  FabricSim sim(design.space);
  DesignHarness harness(design, sim);
  harness.configure();
  sim.eval();

  const EvalPlan plan = compile_eval_plan(sim, override_mask_of(sim));
  EXPECT_GT(plan.ops.size(), 0u);
  for (int cycle = 0; cycle < 16; ++cycle) {
    harness.step();
    sim.eval();
    expect_plan_reproduces_fixpoint(plan, sim,
                                    "bram cycle " + std::to_string(cycle));
  }
}

TEST(EvalPlan, CompilationIsDeterministic) {
  const auto design = compile(designs::counter_adder(4), device_tiny(4, 6));
  FabricSim sim(design.space);
  DesignHarness harness(design, sim);
  harness.configure();
  sim.eval();

  const EvalPlan a = compile_eval_plan(sim, override_mask_of(sim));
  const EvalPlan b = compile_eval_plan(sim, override_mask_of(sim));
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_TRUE(op_equal(a.ops[i], b.ops[i])) << "op " << i;
  }
}

TEST(EvalPlan, GangCapableDesignsFoldEveryConstantLutInput) {
  // Constants and golden half-latches are cofactored into the truth tables
  // at compile time, so the engines' plans of every gang-capable served
  // design read only live words at their LUT inputs. (Copies may still read
  // constant zero: an undriven-source wire.)
  for (const char* name : {"lfsr", "mult", "vmult", "counter", "multadd",
                           "lfsrmult", "selfcheck"}) {
    const auto baseline = DesignBaseline::of(*request_design(name, "campaign"));
    ASSERT_NE(baseline->plan(), nullptr) << name;
    const EvalPlan& plan = *baseline->plan();
    std::size_t luts = 0;
    for (const EvalPlan::Op& op : plan.ops) {
      if (op.kind != EvalPlan::OpKind::kLut) continue;
      ++luts;
      ASSERT_LE(op.arity, kLutInputs) << name;
      for (int k = 0; k < op.arity; ++k) {
        const EvalPlan::Arr arr = op.src[k].arr;
        EXPECT_TRUE(arr == EvalPlan::Arr::kOut || arr == EvalPlan::Arr::kWire ||
                    arr == EvalPlan::Arr::kOvr)
            << name << ": LUT op writing " << op.dst << " reads a constant";
      }
    }
    EXPECT_GT(luts, 0u) << name;
  }
}

// ---------------------------------------------------------------------------
// Property fuzz: randomly corrupted configurations
// ---------------------------------------------------------------------------

TEST(EvalPlan, CorruptedConfigsEitherCompileAndMatchOrRejectAsCyclic) {
  // Random multi-bit corruptions produce hostile decodes: rerouted cones,
  // feedback loops, oscillators, LUTs flipped into dynamic modes. For every
  // such configuration the compiler must either (a) produce a plan whose
  // execution is bit-identical to the interpreter's settled state across
  // several clocked cycles, or (b) reject with the typed combinational-cycle
  // error. Nothing else is acceptable.
  const auto design = compile(designs::counter_adder(4), device_tiny(4, 6));
  FabricSim sim(design.space);
  Rng rng(0xE5A1u);
  const u64 total = design.space->total_bits();

  int compiled = 0, cyclic = 0;
  for (int trial = 0; trial < 120; ++trial) {
    Bitstream corrupt = design.bitstream;
    // Alternate light corruption (a handful of upsets, the realistic case)
    // with heavy corruption (hundreds of flips, which is what it takes to
    // reroute a closed combinational path on a device this small).
    const int flips = (trial % 2 == 0)
                          ? 1 + static_cast<int>(rng.next() % 24)
                          : 64 + static_cast<int>(rng.next() % 512);
    for (int f = 0; f < flips; ++f) {
      corrupt.flip_bit(design.space->address_of_linear(rng.next() % total));
    }
    sim.full_configure(corrupt);
    sim.eval();

    const std::vector<u8> no_ovr(sim.geometry().tile_count(), 0);
    try {
      const EvalPlan plan = compile_eval_plan(sim, no_ovr);
      ++compiled;
      // A flip can create SRL16/RAM16 sites whose cells change under
      // clocking; the plan snapshots cells at compile time, so only the
      // unclocked settled state is comparable here. That is exactly how the
      // gang engine uses plans too (it refuses dynamic designs).
      expect_plan_reproduces_fixpoint(plan, sim,
                                      "trial " + std::to_string(trial));
    } catch (const EvalPlanError& e) {
      EXPECT_EQ(e.kind(), EvalPlanError::Kind::kCombinationalCycle)
          << "trial " << trial << ": " << e.what();
      EXPECT_NE(std::string(e.what()).find("combinational"), std::string::npos);
      ++cyclic;
    }
  }
  // Both outcomes must actually be exercised by the seed above.
  EXPECT_GT(compiled, 0);
  EXPECT_GT(cyclic, 0) << "fuzz seed never produced a combinational loop; "
                          "pick a different seed";
}

// ---------------------------------------------------------------------------
// Hostile plans: validate() must stop anything malformed before execution
// ---------------------------------------------------------------------------

namespace {

EvalPlan small_plan() {
  static const PlacedDesign design =
      compile(designs::counter_adder(4), device_tiny(4, 6));
  FabricSim sim(design.space);
  DesignHarness harness(design, sim);
  harness.configure();
  sim.eval();
  return compile_eval_plan(sim, override_mask_of(sim));
}

/// Index of the first op that reads at least one operand (a LUT whose
/// inputs all folded to constants reads none).
std::size_t first_reading_op(const EvalPlan& plan) {
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    if (plan.ops[i].inputs() > 0) return i;
  }
  return plan.ops.size();
}

/// Index of the first LUT op with fewer than four live inputs.
std::size_t first_folded_lut(const EvalPlan& plan) {
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    const EvalPlan::Op& op = plan.ops[i];
    if (op.kind == EvalPlan::OpKind::kLut && op.arity < kLutInputs) return i;
  }
  return plan.ops.size();
}

void expect_rejected(EvalPlan plan, EvalPlanError::Kind kind) {
  try {
    plan.validate();
    FAIL() << "expected rejection with kind "
           << eval_plan_error_kind_name(kind);
  } catch (const EvalPlanError& e) {
    EXPECT_EQ(e.kind(), kind) << e.what();
    EXPECT_NE(std::string(e.what()).find(eval_plan_error_kind_name(kind)),
              std::string::npos)
        << e.what();
  }
}

}  // namespace

TEST(EvalPlanValidate, AcceptsCompilerOutput) {
  EXPECT_NO_THROW(small_plan().validate());
}

TEST(EvalPlanValidate, RejectsUnknownOpKind) {
  EvalPlan plan = small_plan();
  plan.ops[0].kind = static_cast<EvalPlan::OpKind>(7);
  expect_rejected(std::move(plan), EvalPlanError::Kind::kBadOpKind);
}

TEST(EvalPlanValidate, RejectsWritesToReadOnlyArrays) {
  EvalPlan plan = small_plan();
  plan.ops[0].dst_arr = EvalPlan::Arr::kOvr;
  expect_rejected(std::move(plan), EvalPlanError::Kind::kBadOpKind);
}

TEST(EvalPlanValidate, RejectsDestinationOutOfRange) {
  {
    EvalPlan plan = small_plan();
    plan.ops[0].dst_arr = EvalPlan::Arr::kOut;
    plan.ops[0].dst = plan.num_outs;
    expect_rejected(std::move(plan), EvalPlanError::Kind::kIndexOutOfRange);
  }
  {
    EvalPlan plan = small_plan();
    plan.ops[0].dst_arr = EvalPlan::Arr::kWire;
    plan.ops[0].dst = plan.num_wires + 17;
    expect_rejected(std::move(plan), EvalPlanError::Kind::kIndexOutOfRange);
  }
}

TEST(EvalPlanValidate, RejectsSourceOutOfRange) {
  const std::size_t i = first_reading_op(small_plan());
  ASSERT_LT(i, small_plan().ops.size());
  {
    EvalPlan plan = small_plan();
    plan.ops[i].src[0] = {EvalPlan::Arr::kWire, plan.num_wires};
    expect_rejected(std::move(plan), EvalPlanError::Kind::kIndexOutOfRange);
  }
  {
    EvalPlan plan = small_plan();
    plan.ops[i].src[0] = {EvalPlan::Arr::kOut, plan.num_outs};
    expect_rejected(std::move(plan), EvalPlanError::Kind::kIndexOutOfRange);
  }
  {
    EvalPlan plan = small_plan();
    plan.ops[i].src[0] = {EvalPlan::Arr::kOvr, plan.num_outs + 1};
    expect_rejected(std::move(plan), EvalPlanError::Kind::kIndexOutOfRange);
  }
}

TEST(EvalPlanValidate, RejectsUnknownSourceArray) {
  EvalPlan plan = small_plan();
  const std::size_t i = first_reading_op(plan);
  ASSERT_LT(i, plan.ops.size());
  plan.ops[i].src[0].arr = static_cast<EvalPlan::Arr>(9);
  expect_rejected(std::move(plan), EvalPlanError::Kind::kBadOpKind);
}

TEST(EvalPlanValidate, RejectsLutArityAboveFour) {
  EvalPlan plan = small_plan();
  const std::size_t i = first_folded_lut(plan);
  ASSERT_LT(i, plan.ops.size()) << "design folds no LUT input";
  plan.ops[i].arity = kLutInputs + 1;
  expect_rejected(std::move(plan), EvalPlanError::Kind::kBadLutArity);
}

TEST(EvalPlanValidate, RejectsTruthBitsAboveTheArity) {
  EvalPlan plan = small_plan();
  const std::size_t i = first_folded_lut(plan);
  ASSERT_LT(i, plan.ops.size()) << "design folds no LUT input";
  // Bit 2^arity would be read by an input the op does not have.
  EvalPlan::Op& op = plan.ops[i];
  op.cells = static_cast<u16>(op.cells | (1u << (1u << op.arity)));
  expect_rejected(std::move(plan), EvalPlanError::Kind::kBadLutArity);
}

TEST(EvalPlanValidate, RejectsDuplicateWriters) {
  EvalPlan plan = small_plan();
  plan.ops.push_back(plan.ops[0]);
  expect_rejected(std::move(plan), EvalPlanError::Kind::kDuplicateWriter);
}

TEST(EvalPlanValidate, RejectsTopologyViolations) {
  EvalPlan plan = small_plan();
  // Find a (writer, reader) pair and swap them: the reader then consumes a
  // value written later, which the branch-free executor would silently
  // evaluate with stale data.
  std::size_t writer = plan.ops.size(), reader = plan.ops.size();
  for (std::size_t i = 0; i < plan.ops.size() && reader == plan.ops.size();
       ++i) {
    const EvalPlan::Op& op = plan.ops[i];
    for (int k = 0; k < op.inputs(); ++k) {
      const EvalPlan::Ref& r = op.src[k];
      if (r.arr != EvalPlan::Arr::kOut && r.arr != EvalPlan::Arr::kWire) {
        continue;
      }
      for (std::size_t w = 0; w < i; ++w) {
        const EvalPlan::Op& cand = plan.ops[w];
        const EvalPlan::Arr want = r.arr;
        if (cand.dst_arr == want && cand.dst == r.idx) {
          writer = w;
          reader = i;
          break;
        }
      }
      if (reader != plan.ops.size()) break;
    }
  }
  ASSERT_LT(reader, plan.ops.size())
      << "design has no internal dataflow edge to corrupt";
  std::swap(plan.ops[writer], plan.ops[reader]);
  expect_rejected(std::move(plan), EvalPlanError::Kind::kTopologyViolation);
}

TEST(EvalPlanValidate, ErrorKindNamesAreStable) {
  // The kind names ride in VSRP1 error payloads; renaming them is a
  // protocol change, not a refactor.
  EXPECT_STREQ(eval_plan_error_kind_name(EvalPlanError::Kind::kCombinationalCycle),
               "combinational-cycle");
  EXPECT_STREQ(eval_plan_error_kind_name(EvalPlanError::Kind::kIndexOutOfRange),
               "index-out-of-range");
  EXPECT_STREQ(eval_plan_error_kind_name(EvalPlanError::Kind::kDuplicateWriter),
               "duplicate-writer");
  EXPECT_STREQ(eval_plan_error_kind_name(EvalPlanError::Kind::kTopologyViolation),
               "topology-violation");
  EXPECT_STREQ(eval_plan_error_kind_name(EvalPlanError::Kind::kBadOpKind),
               "bad-op-kind");
  EXPECT_STREQ(eval_plan_error_kind_name(EvalPlanError::Kind::kBadLutArity),
               "bad-lut-arity");
}
