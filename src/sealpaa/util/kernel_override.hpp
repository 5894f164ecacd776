// Process-wide SIMD kernel-level override for the runtime-dispatched
// bit-sliced simulation kernels (sim/bitsliced_x86.cpp).
//
// Dispatch normally picks the widest instruction set the CPU reports,
// which means one machine exercises exactly one code path.  The
// `SEALPAA_FORCE_KERNEL` environment variable caps the dispatch level so
// CI (or a user chasing a kernel-specific bug) can run the scalar and
// AVX-512 paths of the same binary on one box:
//
//   SEALPAA_FORCE_KERNEL=scalar   portable reference paths only
//   SEALPAA_FORCE_KERNEL=avx2     the same as scalar: no kernel is
//                                 dispatched at the AVX2 tier
//   SEALPAA_FORCE_KERNEL=avx512   at most the AVX-512 kernels (i.e. no
//                                 cap — still falls back when the CPU
//                                 lacks the instructions)
//
// Forcing a level the CPU cannot execute is a *cap*, never a promise:
// dispatchers take min(cpu, override), so `avx512` on an AVX2-only box
// runs AVX2.  An unrecognized value is diagnosed once on stderr and
// ignored — a daemon must not crash over a typo in its environment.
//
// Tests use set_forced_kernel() to walk every level in one process; the
// environment variable is read once and then only consulted when no
// programmatic override is set.
#pragma once

#include <optional>
#include <string_view>

namespace sealpaa::util {

/// Dispatch tiers, ordered: a forced level allows every tier at or
/// below it.  kAvx2 selects no kernel of its own (the only dispatched
/// SIMD tier is AVX-512), so capping at it runs the scalar kernels.
enum class KernelLevel { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// "scalar", "avx2" or "avx512".
[[nodiscard]] std::string_view kernel_level_name(KernelLevel level) noexcept;

/// The active cap: the programmatic override if set, else the parsed
/// `SEALPAA_FORCE_KERNEL` value, else nullopt (no cap).  Lock-free and
/// safe to call from any thread, including inside noexcept dispatchers.
[[nodiscard]] std::optional<KernelLevel> forced_kernel() noexcept;

/// Installs a process-wide cap that shadows the environment variable;
/// nullopt clears it and falls back to `SEALPAA_FORCE_KERNEL` again.
/// For tests that walk every dispatch level in one process; not meant
/// for production configuration.
void set_forced_kernel(std::optional<KernelLevel> level) noexcept;

/// True when the cap (if any) admits `level`: no override, or
/// override >= level.  Callers still AND this with their own CPU-feature
/// check.
[[nodiscard]] bool kernel_level_allowed(KernelLevel level) noexcept;

}  // namespace sealpaa::util
