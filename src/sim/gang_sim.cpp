// GangSim facade: resolves the host's SIMD tier and builds that tier's
// engine. The engine bodies live in gang_engine_{scalar,avx512}.cpp.
#include "sim/gang_sim.h"

#include "sim/gang_engine.h"

namespace vscrub {

GangSim::GangSim(const PlacedDesign& design, const FabricSim& configured,
                 const EvalPlan& plan)
    : isa_(resolve_simd_isa(SimdIsa::kAuto)),
      width_(gang_width_of(isa_)),
      plan_(&plan) {
#if VSCRUB_HAVE_ISA_AVX512
  if (isa_ == SimdIsa::kAvx512) {
    engine_ = gang_avx512::make_engine(design, configured, plan);
    return;
  }
#endif
  engine_ = gang_scalar::make_engine(design, configured, plan);
}

GangSim::~GangSim() = default;

void GangSim::run(const BitAddress* addrs, std::size_t count,
                  const RunParams& p, LaneResult* results, RunStats* stats) {
  VSCRUB_CHECK(count >= 1 && count <= static_cast<std::size_t>(max_variants()),
               "gang lane count exceeds max_variants()");
  engine_->run(addrs, count, p, results, stats);
}

}  // namespace vscrub
