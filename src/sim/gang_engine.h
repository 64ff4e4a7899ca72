// Internal seam between the GangSim facade and the two engine translation
// units. Each TU compiles the same engine template (gang_engine.inc over
// wide_word.inc) inside its own namespace — distinct symbols, no ODR merging
// across ISA tiers — and exports one factory the facade calls after runtime
// feature detection.
#pragma once

#include <memory>

#include "sim/eval_plan.h"
#include "sim/gang_sim.h"

namespace vscrub {

class GangEngineBase {
 public:
  virtual ~GangEngineBase() = default;
  virtual void run(const BitAddress* addrs, std::size_t count,
                   const GangSim::RunParams& p, GangSim::LaneResult* results,
                   GangSim::RunStats* stats) = 0;
  virtual const EvalPlan& plan() const = 0;
};

// The portable engine: 256 lanes in four u64 limbs at the baseline ISA.
namespace gang_scalar {
std::unique_ptr<GangEngineBase> make_engine(const PlacedDesign& design);
}  // namespace gang_scalar

#if VSCRUB_HAVE_ISA_AVX512
// The AVX-512 engine: 512 lanes, one vector per lane word.
namespace gang_avx512 {
std::unique_ptr<GangEngineBase> make_engine(const PlacedDesign& design);
}  // namespace gang_avx512
#endif

}  // namespace vscrub
