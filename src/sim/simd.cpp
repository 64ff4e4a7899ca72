#include "sim/simd.h"

#include <cstdlib>

namespace vscrub {
namespace {

bool usable(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kAuto:
    case SimdIsa::kScalar:
      return true;
    case SimdIsa::kAvx512:
#if VSCRUB_HAVE_ISA_AVX512
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0;
#else
      return false;
#endif
  }
  return false;
}

std::string usable_isa_list() {
  return usable(SimdIsa::kAvx512) ? "scalar, avx512" : "scalar";
}

SimdIsa parse_forced_isa(const std::string& name) {
  if (name == "auto") return SimdIsa::kAuto;
  if (name == "scalar") return SimdIsa::kScalar;
  if (name == "avx512") return SimdIsa::kAvx512;
  throw SimdIsaError("unknown VSCRUB_FORCE_ISA '" + name +
                     "' (valid: auto, scalar, avx512)");
}

}  // namespace

const char* simd_isa_name(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kAuto:
      return "auto";
    case SimdIsa::kScalar:
      return "scalar";
    case SimdIsa::kAvx512:
      return "avx512";
  }
  return "?";
}

SimdIsa resolve_simd_isa(SimdIsa requested) {
  if (requested == SimdIsa::kAuto) {
    if (const char* forced = std::getenv("VSCRUB_FORCE_ISA");
        forced != nullptr && forced[0] != '\0') {
      requested = parse_forced_isa(forced);
    }
  }
  if (!usable(requested)) {
    throw SimdIsaError(std::string("gang ISA '") + simd_isa_name(requested) +
                       "' is not usable in this binary/CPU (usable: " +
                       usable_isa_list() + ")");
  }
  if (requested != SimdIsa::kAuto) return requested;
  return usable(SimdIsa::kAvx512) ? SimdIsa::kAvx512 : SimdIsa::kScalar;
}

u32 preferred_gang_width() {
  return gang_width_of(resolve_simd_isa(SimdIsa::kAuto));
}

void validate_gang_width(u32 width) {
  const u32 host = preferred_gang_width();
  if (width <= 1 || width == host) return;
  throw GangWidthError("unsupported gang width " + std::to_string(width) +
                       " (legal: 0 or 1 for the scalar path, " +
                       std::to_string(host) + " for this host's engine)");
}

}  // namespace vscrub
