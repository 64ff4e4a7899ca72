// Runtime SIMD selection for the gang engine.
//
// The engine is compiled twice: a portable build of 256 lanes (four u64
// limbs at the baseline ISA) and a 512-lane build whose namespace sits under
// `#pragma GCC target("avx512...")` (see gang_engine_prelude.h for why that
// is SIGILL-safe). The host picks one: an AVX-512 CPU runs the 512-lane
// engine, every other CPU the portable one. Both run the identical
// lane-for-lane algorithm, so verdicts are bit-identical across them (the
// differential suite in tests/test_gang_wide enforces exactly that).
#pragma once

#include <string>

#include "common/types.h"

// Whether this build carries the AVX-512 engine. It is built by
// target-annotating only the engine's own functions (#pragma GCC target
// inside its translation unit) — shared inline code stays at the baseline
// ISA, so nothing outside the runtime-dispatched engine can emit an
// instruction the host might lack. That mechanism needs x86-64 plus a
// GCC-compatible compiler; everywhere else only the portable engine exists.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VSCRUB_HAVE_ISA_AVX512 1
#else
#define VSCRUB_HAVE_ISA_AVX512 0
#endif

namespace vscrub {

enum class SimdIsa : u8 {
  kAuto = 0,    ///< the host's tier (honours VSCRUB_FORCE_ISA)
  kScalar = 1,  ///< portable u64-array words: the 256-lane engine
  kAvx512 = 2,  ///< 512-bit words: the 512-lane engine
};

const char* simd_isa_name(SimdIsa isa);

/// Typed error for an unusable tier: a VSCRUB_FORCE_ISA value that names no
/// tier, or a tier this binary or CPU cannot run.
class SimdIsaError : public Error {
 public:
  explicit SimdIsaError(const std::string& what) : Error(what) {}
};

/// Resolves a requested tier to the one a run will execute. kAuto picks
/// AVX-512 when the binary carries it and the CPU runs it, else scalar —
/// unless the VSCRUB_FORCE_ISA environment variable names a tier ("scalar"
/// or "avx512"; the CI forced-scalar legs run the identical binary on the
/// portable engine this way). An explicit non-auto request beats the
/// environment; an unusable tier throws SimdIsaError naming the usable ones.
SimdIsa resolve_simd_isa(SimdIsa requested);

/// The widest gang lane word this build carries (the AVX-512 engine). A
/// constant of the build, not of the host.
inline constexpr u32 kWidestGangWidth = 512;

/// Lanes of the engine a resolved tier runs: 512 for AVX-512, 256 for the
/// portable engine.
constexpr u32 gang_width_of(SimdIsa isa) {
  return isa == SimdIsa::kAvx512 ? kWidestGangWidth : 256;
}

/// The host engine's width: gang_width_of(resolve_simd_isa(kAuto)). Honors
/// VSCRUB_FORCE_ISA through the resolver, so a forced-scalar leg gets 256.
u32 preferred_gang_width();

/// Typed error for an unsupported gang width. The message lists the legal
/// values: 0 and 1 (the scalar path) and the host engine's width.
class GangWidthError : public Error {
 public:
  explicit GangWidthError(const std::string& what) : Error(what) {}
};
/// Throws GangWidthError unless `width` is 0, 1 or preferred_gang_width().
void validate_gang_width(u32 width);

}  // namespace vscrub
