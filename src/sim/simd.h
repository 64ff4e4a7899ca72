// Runtime SIMD instruction-set selection for the wide gang engine.
//
// The gang engine's word loops are compiled three times — once per ISA tier
// (portable scalar u64 arrays, AVX2, AVX-512) — into separate translation
// units whose engine namespaces sit under the matching `#pragma GCC target`
// (see gang_engine_prelude.h for why that is SIGILL-safe). This header is
// the dispatch
// surface: which tiers the binary carries, which the host CPU can run, and
// which one a run should use. Selection is a pure performance knob: every
// tier executes the identical lane-for-lane algorithm, so verdicts are
// bit-identical across ISAs (the differential suite in tests/test_gang_wide
// enforces exactly that).
#pragma once

#include <string>
#include <vector>

#include "common/types.h"

namespace vscrub {

enum class SimdIsa : u8 {
  kAuto = 0,    ///< pick the best compiled-in tier the CPU supports
  kScalar = 1,  ///< portable u64-array words (always available)
  kAvx2 = 2,    ///< 256-bit words, one lane-op per 4 u64 limbs
  kAvx512 = 3,  ///< 512-bit words, one lane-op per 8 u64 limbs
};

const char* simd_isa_name(SimdIsa isa);

/// Typed error for unusable --gang-isa / gang_isa values: unknown names,
/// tiers not compiled into this binary, tiers the host CPU lacks.
class SimdIsaError : public Error {
 public:
  explicit SimdIsaError(const std::string& what) : Error(what) {}
};

/// Parses "auto" | "scalar" | "avx2" | "avx512" (empty = auto).
/// Throws SimdIsaError on anything else, listing the valid names.
SimdIsa parse_simd_isa(const std::string& name);

/// ISA tiers compiled into this binary (always contains kScalar).
const std::vector<SimdIsa>& compiled_simd_isas();
/// Whether `isa` is both compiled in and supported by the host CPU.
bool simd_isa_usable(SimdIsa isa);

/// Resolves a requested tier to the one a run will execute. kAuto picks the
/// widest usable tier, unless the VSCRUB_FORCE_ISA environment variable
/// names one (the test/CI override: a forced-scalar leg runs the identical
/// binary with every auto-selected run pinned to the fallback). An explicit
/// non-auto request beats the environment; requesting an unusable tier
/// throws SimdIsaError naming the usable ones.
SimdIsa resolve_simd_isa(SimdIsa requested);

/// The widest gang lane word any tier is compiled for (the 512-lane engine).
/// A constant of the build, not of the host: every tier, scalar included,
/// carries it.
inline constexpr u32 kWidestGangWidth = 512;

/// Gang lane widths this binary supports: 1..64 (the u64 engine, optionally
/// lane-capped) plus each wide word width compiled in (256, 512).
struct GangWidths {
  u32 max_narrow = 64;      ///< every width in [1, max_narrow] is valid
  std::vector<u32> wide;    ///< exact wide widths (256, 512)
};
const GangWidths& supported_gang_widths();
bool gang_width_supported(u32 width);
/// One-line human list, e.g. "1..64, 256, 512".
std::string supported_gang_widths_list();

/// Typed error for unsupported --gang-width / gang_width values. Widths
/// above the supported maximum (or in the gaps between wide words) are
/// rejected here rather than silently clamped; the message lists the widths
/// compiled into this binary.
class GangWidthError : public Error {
 public:
  explicit GangWidthError(const std::string& what) : Error(what) {}
};
/// Throws GangWidthError unless gang_width_supported(width).
void validate_gang_width(u32 width);

/// The widest gang width the auto-resolved SIMD tier runs natively: 512 when
/// resolve_simd_isa(kAuto) picks AVX-512, 256 for AVX2, max_narrow (64) for
/// scalar. Honors VSCRUB_FORCE_ISA through the resolver, so a forced-scalar
/// leg prefers 64. This is a throughput default only — every width computes
/// identical verdicts.
u32 preferred_gang_width();

}  // namespace vscrub
