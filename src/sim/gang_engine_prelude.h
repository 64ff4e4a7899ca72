// Shared prelude for the per-ISA gang engine translation units. Every
// dependency of wide_word.inc / gang_engine.inc is included here, at global
// scope, BEFORE the TU opens its ISA namespace and (for AVX-512) its
// target pragma — so no std/vscrub inline function is ever compiled under a
// vector ISA the host CPU might lack. Keep this the TUs' only #include.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "sim/gang_engine.h"
