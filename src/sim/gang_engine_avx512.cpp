// AVX-512 instantiation of the gang engine: 512 lanes. The target pragma
// covers ONLY the code lexically inside this namespace region: the prelude
// has already pulled every std/vscrub dependency in at baseline ISA, so
// nothing an AVX-512-less host could call gets vector codegen, and the
// namespace keeps these symbols distinct from the portable engine's (no ODR
// merging of differently-compiled bodies). f+bw+vl+dq is the feature set the
// facade's runtime check requires before dispatching here.
#include "sim/gang_engine_prelude.h"

#if VSCRUB_HAVE_ISA_AVX512

#pragma GCC push_options
#pragma GCC target("avx512f,avx512bw,avx512vl,avx512dq")

namespace vscrub {
namespace gang_avx512 {

#include "sim/wide_word.inc"
#include "sim/gang_engine.inc"

std::unique_ptr<GangEngineBase> make_engine(const PlacedDesign& design) {
  return std::make_unique<GangEngine<8>>(design);
}

}  // namespace gang_avx512
}  // namespace vscrub

#pragma GCC pop_options

#endif  // VSCRUB_HAVE_ISA_AVX512
