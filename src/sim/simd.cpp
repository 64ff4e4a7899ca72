#include "sim/simd.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "sim/gang_isa_support.h"

namespace vscrub {
namespace {

bool cpu_supports(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar:
      return true;
#if defined(__x86_64__) || defined(__i386__)
    case SimdIsa::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case SimdIsa::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0;
#else
    case SimdIsa::kAvx2:
    case SimdIsa::kAvx512:
      return false;
#endif
    case SimdIsa::kAuto:
      return true;
  }
  return false;
}

std::string usable_isa_list() {
  std::ostringstream os;
  bool first = true;
  for (SimdIsa isa : compiled_simd_isas()) {
    if (!cpu_supports(isa)) continue;
    if (!first) os << ", ";
    os << simd_isa_name(isa);
    first = false;
  }
  return os.str();
}

}  // namespace

const char* simd_isa_name(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kAuto:
      return "auto";
    case SimdIsa::kScalar:
      return "scalar";
    case SimdIsa::kAvx2:
      return "avx2";
    case SimdIsa::kAvx512:
      return "avx512";
  }
  return "?";
}

SimdIsa parse_simd_isa(const std::string& name) {
  if (name.empty() || name == "auto") return SimdIsa::kAuto;
  if (name == "scalar") return SimdIsa::kScalar;
  if (name == "avx2") return SimdIsa::kAvx2;
  if (name == "avx512") return SimdIsa::kAvx512;
  throw SimdIsaError("unknown gang ISA '" + name +
                     "' (valid: auto, scalar, avx2, avx512)");
}

const std::vector<SimdIsa>& compiled_simd_isas() {
  static const std::vector<SimdIsa> isas = [] {
    std::vector<SimdIsa> v;
    v.reserve(3);
    v.push_back(SimdIsa::kScalar);
#if VSCRUB_HAVE_ISA_AVX2
    v.push_back(SimdIsa::kAvx2);
#endif
#if VSCRUB_HAVE_ISA_AVX512
    v.push_back(SimdIsa::kAvx512);
#endif
    return v;
  }();
  return isas;
}

bool simd_isa_usable(SimdIsa isa) {
  if (isa == SimdIsa::kAuto) return true;
  const auto& compiled = compiled_simd_isas();
  if (std::find(compiled.begin(), compiled.end(), isa) == compiled.end()) {
    return false;
  }
  return cpu_supports(isa);
}

SimdIsa resolve_simd_isa(SimdIsa requested) {
  if (requested == SimdIsa::kAuto) {
    if (const char* forced = std::getenv("VSCRUB_FORCE_ISA");
        forced != nullptr && forced[0] != '\0') {
      requested = parse_simd_isa(forced);
      if (requested != SimdIsa::kAuto && !simd_isa_usable(requested)) {
        throw SimdIsaError(std::string("VSCRUB_FORCE_ISA=") + forced +
                           " is not usable in this binary/CPU (usable: " +
                           usable_isa_list() + ")");
      }
    }
  } else if (!simd_isa_usable(requested)) {
    throw SimdIsaError(std::string("gang ISA '") + simd_isa_name(requested) +
                       "' is not usable in this binary/CPU (usable: " +
                       usable_isa_list() + ")");
  }
  if (requested != SimdIsa::kAuto) return requested;
  // Widest usable tier wins; kScalar is always usable.
  SimdIsa best = SimdIsa::kScalar;
  for (SimdIsa isa : compiled_simd_isas()) {
    if (cpu_supports(isa) && static_cast<u8>(isa) > static_cast<u8>(best)) {
      best = isa;
    }
  }
  return best;
}

const GangWidths& supported_gang_widths() {
  static const GangWidths widths = [] {
    GangWidths w;
    w.max_narrow = 64;
    w.wide = {256, kWidestGangWidth};
    return w;
  }();
  return widths;
}

bool gang_width_supported(u32 width) {
  const GangWidths& w = supported_gang_widths();
  if (width >= 1 && width <= w.max_narrow) return true;
  return std::find(w.wide.begin(), w.wide.end(), width) != w.wide.end();
}

std::string supported_gang_widths_list() {
  const GangWidths& w = supported_gang_widths();
  std::ostringstream os;
  os << "1.." << w.max_narrow;
  for (u32 wide : w.wide) os << ", " << wide;
  return os.str();
}

void validate_gang_width(u32 width) {
  if (gang_width_supported(width)) return;
  throw GangWidthError("unsupported gang width " + std::to_string(width) +
                       " (this binary supports: " +
                       supported_gang_widths_list() + ")");
}

u32 preferred_gang_width() {
  const SimdIsa isa = resolve_simd_isa(SimdIsa::kAuto);
  u32 native = supported_gang_widths().max_narrow;
  if (isa == SimdIsa::kAvx2) native = 256;
  if (isa == SimdIsa::kAvx512) native = kWidestGangWidth;
  return gang_width_supported(native) ? native
                                      : supported_gang_widths().max_narrow;
}

}  // namespace vscrub
