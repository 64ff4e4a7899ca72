// Portable (baseline-ISA) instantiation of the gang engine: 256 lanes, no
// target pragma. It runs on any x86-64 (or non-x86) host, and is the engine
// every host without AVX-512 uses.
#include "sim/gang_engine_prelude.h"

namespace vscrub {
namespace gang_scalar {

#include "sim/wide_word.inc"
#include "sim/gang_engine.inc"

std::unique_ptr<GangEngineBase> make_engine(const PlacedDesign& design,
                                            const FabricSim& configured,
                                            const EvalPlan& plan) {
  return std::make_unique<GangEngine<4>>(design, configured, plan);
}

}  // namespace gang_scalar
}  // namespace vscrub
