// Runtime-dispatched AVX-512 + GFNI fast paths for the bit-sliced
// kernel's fixed per-batch tail work: the 64x64 bit-matrix transpose
// behind transpose64_fast, the first-failed-stage fold and the per-lane
// error extraction.  Portable fallbacks live in this file too, so every
// build has identical behaviour — the SIMD variants are pure bit
// permutations / masked moves and can never change results; unit tests
// pin them against the portable implementations.
//
// The transpose runs in ~56 instructions:
//
//   1. A three-level permutex2var byte-shuffle network gathers column
//      byte C of all 64 rows into one register per C, with the rows of
//      every 8-row group reversed (step 2 needs the reversal, so it is
//      folded into the gather's index tables for free).
//   2. VGF2P8AFFINEQB with the data operand set to identity bytes
//      e_0..e_7 returns, for each qword of the *matrix* operand X,
//      result.byte[b].bit[k] = X.byte[7-k].bit[b] — with the pre-reversed
//      rows, exactly the 8x8 bit transpose of each block.
//   3. One VPERMB per register restores row-major byte order.
#include <bit>
#include <cstddef>
#include <cstdint>

#include "sealpaa/sim/bitsliced.hpp"
#include "sealpaa/util/kernel_override.hpp"

namespace sealpaa::sim {

namespace {

void scatter_first_failed_portable(
    const std::uint64_t* failed_masks, std::size_t n,
    std::array<std::int8_t, 64>& first_failed) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::uint64_t w = failed_masks[i]; w != 0; w &= w - 1) {
      first_failed[static_cast<std::size_t>(std::countr_zero(w))] =
          static_cast<std::int8_t>(i);
    }
  }
}

void finalize_errors_portable(std::array<std::uint64_t, 64>& approx,
                              std::array<std::uint64_t, 64>& exact,
                              std::uint64_t value_error_mask,
                              std::array<std::int64_t, 64>& error) noexcept {
  transpose64(approx);
  transpose64(exact);
  error.fill(0);
  for (std::uint64_t w = value_error_mask; w != 0; w &= w - 1) {
    const auto lane = static_cast<std::size_t>(std::countr_zero(w));
    error[lane] = static_cast<std::int64_t>(approx[lane] - exact[lane]);
  }
}

}  // namespace

}  // namespace sealpaa::sim

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#include <immintrin.h>

namespace sealpaa::sim {

namespace {

// Level 1 gathers, for each pair of input registers (rows 16p..16p+15),
// the four column bytes C = 4h..4h+3: dest byte 16*Cl + r16 takes row
// 16p + r16's byte C = 4h + Cl.
constexpr std::array<std::uint8_t, 64> l1_index(unsigned h) {
  std::array<std::uint8_t, 64> idx{};
  for (unsigned cl = 0; cl < 4; ++cl) {
    for (unsigned r = 0; r < 16; ++r) {
      idx[16 * cl + r] = static_cast<std::uint8_t>(
          (r >= 8 ? 64 : 0) + 8 * (r & 7) + 4 * h + cl);
    }
  }
  return idx;
}

// Level 2 widens to 32-row spans and two column bytes C = 4h + 2*h2 +
// Cl2: dest byte 32*Cl2 + r32 takes row 32q + r32's entry from the
// level-1 layout.
constexpr std::array<std::uint8_t, 64> l2_index(unsigned h2) {
  std::array<std::uint8_t, 64> idx{};
  for (unsigned cl2 = 0; cl2 < 2; ++cl2) {
    for (unsigned r = 0; r < 32; ++r) {
      idx[32 * cl2 + r] = static_cast<std::uint8_t>(
          (r >= 16 ? 64 : 0) + 16 * (2 * h2 + cl2) + (r & 15));
    }
  }
  return idx;
}

// Level 3 produces one full column register c[C]: byte r holds row
// (r & 56) | (7 - (r & 7))'s byte C — the row order inside every 8-row
// group is reversed here so the affine step below lands on the pure
// transpose.
constexpr std::array<std::uint8_t, 64> l3_index(unsigned c1) {
  std::array<std::uint8_t, 64> idx{};
  for (unsigned r = 0; r < 64; ++r) {
    const unsigned src_r = (r & 56U) | (7U - (r & 7U));
    idx[r] = static_cast<std::uint8_t>((r >= 32 ? 64 : 0) + 32 * c1 +
                                       (src_r & 31));
  }
  return idx;
}

// After the affine step, qword Q byte b of c[C] is output row 8C + b's
// byte Q; this permutation moves it to row-major position 8b + Q.
constexpr std::array<std::uint8_t, 64> final_index() {
  std::array<std::uint8_t, 64> idx{};
  for (unsigned j = 0; j < 64; ++j) {
    idx[j] = static_cast<std::uint8_t>(8 * (j & 7) + (j >> 3));
  }
  return idx;
}

alignas(64) constexpr std::array<std::uint8_t, 64> kL1[2] = {l1_index(0),
                                                             l1_index(1)};
alignas(64) constexpr std::array<std::uint8_t, 64> kL2[2] = {l2_index(0),
                                                             l2_index(1)};
alignas(64) constexpr std::array<std::uint8_t, 64> kL3[2] = {l3_index(0),
                                                             l3_index(1)};
alignas(64) constexpr std::array<std::uint8_t, 64> kFinal = final_index();

// Identity bytes e_0..e_7: as the *data* operand of VGF2P8AFFINEQB this
// turns the instruction into "read out the matrix operand's rows".
constexpr long long kIdentityBytes =
    static_cast<long long>(0x8040'2010'0804'0201ULL);

// The eight shuffle/affine constants, loaded once per entry point so
// fused multi-plane transposes don't re-read them per plane.
struct TransposeConstants {
  __m512i l1_0, l1_1, l2_0, l2_1, l3_0, l3_1, fin, identity;
};

[[gnu::target("avx512f,avx512bw,avx512vbmi,gfni")]]
inline TransposeConstants load_transpose_constants() noexcept {
  return TransposeConstants{_mm512_load_si512(kL1[0].data()),
                            _mm512_load_si512(kL1[1].data()),
                            _mm512_load_si512(kL2[0].data()),
                            _mm512_load_si512(kL2[1].data()),
                            _mm512_load_si512(kL3[0].data()),
                            _mm512_load_si512(kL3[1].data()),
                            _mm512_load_si512(kFinal.data()),
                            _mm512_set1_epi64(kIdentityBytes)};
}

[[gnu::target("avx512f,avx512bw,avx512vbmi,gfni")]]
inline void transpose64_core(std::uint64_t* m,
                             const TransposeConstants& k) noexcept {
  const __m512i l1_0 = k.l1_0;
  const __m512i l1_1 = k.l1_1;
  const __m512i l2_0 = k.l2_0;
  const __m512i l2_1 = k.l2_1;
  const __m512i l3_0 = k.l3_0;
  const __m512i l3_1 = k.l3_1;
  const __m512i fin = k.fin;
  const __m512i identity = k.identity;

  __m512i z[8];
  for (int r = 0; r < 8; ++r) z[r] = _mm512_loadu_si512(m + 8 * r);

  __m512i a[2][4];  // [h][p]: rows 16p..16p+15, column bytes 4h..4h+3
  for (int p = 0; p < 4; ++p) {
    a[0][p] = _mm512_permutex2var_epi8(z[2 * p], l1_0, z[2 * p + 1]);
    a[1][p] = _mm512_permutex2var_epi8(z[2 * p], l1_1, z[2 * p + 1]);
  }

  __m512i o[2][2][2];  // [h][h2][q]: rows 32q..32q+31, bytes 4h+2*h2..+1
  for (int h = 0; h < 2; ++h) {
    for (int q = 0; q < 2; ++q) {
      o[h][0][q] =
          _mm512_permutex2var_epi8(a[h][2 * q], l2_0, a[h][2 * q + 1]);
      o[h][1][q] =
          _mm512_permutex2var_epi8(a[h][2 * q], l2_1, a[h][2 * q + 1]);
    }
  }

  for (int c = 0; c < 8; ++c) {
    const int h = c >> 2;
    const int h2 = (c >> 1) & 1;
    const __m512i col = _mm512_permutex2var_epi8(
        o[h][h2][0], (c & 1) != 0 ? l3_1 : l3_0, o[h][h2][1]);
    const __m512i bits = _mm512_gf2p8affine_epi64_epi8(identity, col, 0);
    // The maskz form with every lane selected: gcc 12's unmasked
    // intrinsic passes _mm512_undefined_epi32() through and warns about
    // it (GCC bug 105593).
    _mm512_storeu_si512(
        m + 8 * c, _mm512_maskz_permutexvar_epi8(~__mmask64{0}, fin, bits));
  }
}

[[gnu::target("avx512f,avx512bw,avx512vbmi,gfni")]]
void transpose64_zmm(std::uint64_t* m) noexcept {
  transpose64_core(m, load_transpose_constants());
}

// One masked byte-blend per stage, no data-dependent iteration counts:
// lanes that fail at stage i take the broadcast stage index, all other
// lanes keep their current value.  Stages run in ascending order and the
// masks are disjoint, so the result equals the portable scatter.
[[gnu::target("avx512f,avx512bw")]]
void scatter_first_failed_zmm(
    const std::uint64_t* failed_masks, std::size_t n,
    std::array<std::int8_t, 64>& first_failed) noexcept {
  __m512i ff = _mm512_loadu_si512(first_failed.data());
  for (std::size_t i = 0; i < n; ++i) {
    ff = _mm512_mask_blend_epi8(
        static_cast<__mmask64>(failed_masks[i]), ff,
        _mm512_set1_epi8(static_cast<char>(static_cast<unsigned char>(i))));
  }
  _mm512_storeu_si512(first_failed.data(), ff);
}

// Fused two-plane transpose (constants loaded once, planes interleaved
// by the out-of-order core) followed by masked lane-wise subtraction:
// lanes in the mask get int64(approx - exact), every other lane is
// zeroed by the maskz store.
[[gnu::target("avx512f,avx512bw,avx512vbmi,gfni")]]
void finalize_errors_zmm(std::array<std::uint64_t, 64>& approx,
                         std::array<std::uint64_t, 64>& exact,
                         std::uint64_t value_error_mask,
                         std::array<std::int64_t, 64>& error) noexcept {
  const TransposeConstants k = load_transpose_constants();
  transpose64_core(approx.data(), k);
  transpose64_core(exact.data(), k);
  for (int q = 0; q < 8; ++q) {
    const auto mask =
        static_cast<__mmask8>((value_error_mask >> (8 * q)) & 0xFFU);
    const __m512i va = _mm512_loadu_si512(approx.data() + 8 * q);
    const __m512i ve = _mm512_loadu_si512(exact.data() + 8 * q);
    _mm512_storeu_si512(error.data() + 8 * q,
                        _mm512_maskz_sub_epi64(mask, va, ve));
  }
}

// Applies an arbitrary 8-bit truth table to three 512-bit lane words in
// one VPTERNLOGQ.  The instruction indexes its immediate with
// (src1<<2)|(src2<<1)|src3 per bit — exactly the paper's Table 1 row
// order (a<<2)|(b<<1)|cin — so the table byte IS the immediate.  The
// immediate must be a compile-time constant, hence the 256-way switch;
// it compiles to one predictable indirect jump, amortized over the 8
// batches (512 lanes) each call evaluates.
#define SEALPAA_TERN_CASE(n) \
  case (n):                  \
    return _mm512_ternarylogic_epi64(a, b, c, (n));
#define SEALPAA_TERN_CASES16(base)                            \
  SEALPAA_TERN_CASE((base) + 0) SEALPAA_TERN_CASE((base) + 1) \
  SEALPAA_TERN_CASE((base) + 2) SEALPAA_TERN_CASE((base) + 3) \
  SEALPAA_TERN_CASE((base) + 4) SEALPAA_TERN_CASE((base) + 5) \
  SEALPAA_TERN_CASE((base) + 6) SEALPAA_TERN_CASE((base) + 7) \
  SEALPAA_TERN_CASE((base) + 8) SEALPAA_TERN_CASE((base) + 9) \
  SEALPAA_TERN_CASE((base) + 10) SEALPAA_TERN_CASE((base) + 11) \
  SEALPAA_TERN_CASE((base) + 12) SEALPAA_TERN_CASE((base) + 13) \
  SEALPAA_TERN_CASE((base) + 14) SEALPAA_TERN_CASE((base) + 15)

[[gnu::target("avx512f")]] [[gnu::always_inline]]
inline __m512i tern_table(std::uint8_t truth, __m512i a, __m512i b,
                          __m512i c) noexcept {
  switch (truth) {
    SEALPAA_TERN_CASES16(0)
    SEALPAA_TERN_CASES16(16)
    SEALPAA_TERN_CASES16(32)
    SEALPAA_TERN_CASES16(48)
    SEALPAA_TERN_CASES16(64)
    SEALPAA_TERN_CASES16(80)
    SEALPAA_TERN_CASES16(96)
    SEALPAA_TERN_CASES16(112)
    SEALPAA_TERN_CASES16(128)
    SEALPAA_TERN_CASES16(144)
    SEALPAA_TERN_CASES16(160)
    SEALPAA_TERN_CASES16(176)
    SEALPAA_TERN_CASES16(192)
    SEALPAA_TERN_CASES16(208)
    SEALPAA_TERN_CASES16(224)
    SEALPAA_TERN_CASES16(240)
  }
  return _mm512_setzero_si512();  // unreachable: all 256 bytes covered
}

#undef SEALPAA_TERN_CASES16
#undef SEALPAA_TERN_CASE

// The grouped stage loop: 8 batches ripple side by side, one qword per
// batch in every 512-bit signal word.  Per stage that is three
// VPTERNLOGQ for the approximate cell (sum / success / carry-out), two
// for the exact reference (0x96 parity, 0xE8 majority) and one folding
// this stage's sum-vs-exact difference into the running mask
// ((s ^ e) | d = table 0xBE over (s, e, d)).  The per-batch tail work —
// first-failed fold, plane transposes, error extraction — then reuses
// the single-batch zmm helpers on columns peeled from the stage-major
// stores.
[[gnu::target("avx512f,avx512bw,avx512vbmi,gfni")]]
void run_packed_group_zmm_impl(const detail::StageTruth* truths,
                               std::size_t n, const std::uint64_t* a_words,
                               const std::uint64_t* b_group,
                               std::uint64_t cin_word,
                               BitSlicedKernel::Result* results) noexcept {
  constexpr std::size_t kBatches = BitSlicedKernel::kGroupBatches;
  alignas(64) std::uint64_t ap8[64][kBatches];
  alignas(64) std::uint64_t ex8[64][kBatches];
  alignas(64) std::uint64_t fm8[64][kBatches];
  alignas(64) std::uint64_t ok8[kBatches];
  alignas(64) std::uint64_t sd8[kBatches];

  __m512i carry = _mm512_set1_epi64(static_cast<long long>(cin_word));
  __m512i exact_carry = carry;
  __m512i ok = _mm512_set1_epi64(-1);
  __m512i sum_diff = _mm512_setzero_si512();

  for (std::size_t i = 0; i < n; ++i) {
    const __m512i a =
        _mm512_set1_epi64(static_cast<long long>(a_words[i]));
    // loadu: callers owe no alignment for b_group (the exhaustive shard
    // aligns its buffer anyway, where loadu costs nothing).
    const __m512i b = _mm512_loadu_si512(b_group + kBatches * i);

    const __m512i sum = tern_table(truths[i].sum, a, b, carry);
    const __m512i success = tern_table(truths[i].success, a, b, carry);
    const __m512i next_carry = tern_table(truths[i].carry, a, b, carry);

    // ~success & ok, in the all-lanes maskz form (see transpose64_core).
    _mm512_store_si512(fm8[i], _mm512_maskz_andnot_epi64(
                                   static_cast<__mmask8>(0xFF), success, ok));
    ok = _mm512_and_si512(ok, success);

    const __m512i exact_sum =
        _mm512_ternarylogic_epi64(a, b, exact_carry, 0x96);
    const __m512i next_exact =
        _mm512_ternarylogic_epi64(a, b, exact_carry, 0xE8);
    sum_diff = _mm512_ternarylogic_epi64(sum, exact_sum, sum_diff, 0xBE);

    _mm512_store_si512(ap8[i], sum);
    _mm512_store_si512(ex8[i], exact_sum);
    carry = next_carry;
    exact_carry = next_exact;
  }
  _mm512_store_si512(ap8[n], carry);
  _mm512_store_si512(ex8[n], exact_carry);
  _mm512_store_si512(ok8, ok);
  _mm512_store_si512(sd8, sum_diff);

  alignas(64) std::array<std::uint64_t, 64> approx;
  alignas(64) std::array<std::uint64_t, 64> exact;
  std::uint64_t fm_col[64];
  for (std::size_t j = 0; j < kBatches; ++j) {
    BitSlicedKernel::Result& r = results[j];
    r.lane_mask = ~0ULL;
    r.sum_bits_error_mask = sd8[j];
    r.value_error_mask = sd8[j] | (ap8[n][j] ^ ex8[n][j]);
    r.stage_fail_mask = ~ok8[j];
    r.first_failed.fill(-1);
    if (r.stage_fail_mask != 0) {
      for (std::size_t i = 0; i < n; ++i) fm_col[i] = fm8[i][j];
      scatter_first_failed_zmm(fm_col, n, r.first_failed);
    }
    if (r.value_error_mask != 0) {
      for (std::size_t i = 0; i <= n; ++i) {
        approx[i] = ap8[i][j];
        exact[i] = ex8[i][j];
      }
      for (std::size_t i = n + 1; i < 64; ++i) {
        approx[i] = 0;
        exact[i] = 0;
      }
      finalize_errors_zmm(approx, exact, r.value_error_mask, r.error);
    } else {
      r.error.fill(0);
    }
  }
}

bool cpu_has_zmm_kernels() noexcept {
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512bw") != 0 &&
         __builtin_cpu_supports("avx512vbmi") != 0 &&
         __builtin_cpu_supports("gfni") != 0;
}

}  // namespace

bool transpose64_accelerated() noexcept {
  // CPU support is immutable and latched once; the SEALPAA_FORCE_KERNEL
  // cap is consulted per call (one relaxed atomic load) so tests can
  // flip dispatch levels mid-process.  The sim has exactly two tiers —
  // portable and AVX-512 — so any cap below avx512 selects portable.
  static const bool supported = cpu_has_zmm_kernels();
  return supported &&
         util::kernel_level_allowed(util::KernelLevel::kAvx512);
}

void transpose64_fast(std::array<std::uint64_t, 64>& m) noexcept {
  if (transpose64_accelerated()) {
    transpose64_zmm(m.data());
    return;
  }
  transpose64(m);
}

namespace detail {

void scatter_first_failed(const std::uint64_t* failed_masks, std::size_t n,
                          std::array<std::int8_t, 64>& first_failed) noexcept {
  if (transpose64_accelerated()) {
    scatter_first_failed_zmm(failed_masks, n, first_failed);
    return;
  }
  scatter_first_failed_portable(failed_masks, n, first_failed);
}

void finalize_errors(std::array<std::uint64_t, 64>& approx,
                     std::array<std::uint64_t, 64>& exact,
                     std::uint64_t value_error_mask,
                     std::array<std::int64_t, 64>& error) noexcept {
  if (transpose64_accelerated()) {
    finalize_errors_zmm(approx, exact, value_error_mask, error);
    return;
  }
  finalize_errors_portable(approx, exact, value_error_mask, error);
}

void run_packed_group_zmm(const StageTruth* truths, std::size_t n,
                          const std::uint64_t* a_words,
                          const std::uint64_t* b_group,
                          std::uint64_t cin_word,
                          BitSlicedKernel::Result* results) noexcept {
  run_packed_group_zmm_impl(truths, n, a_words, b_group, cin_word, results);
}

}  // namespace detail

}  // namespace sealpaa::sim

#else  // non-x86 or unsupported compiler: portable paths only.

namespace sealpaa::sim {

bool transpose64_accelerated() noexcept { return false; }

void transpose64_fast(std::array<std::uint64_t, 64>& m) noexcept {
  transpose64(m);
}

namespace detail {

void scatter_first_failed(const std::uint64_t* failed_masks, std::size_t n,
                          std::array<std::int8_t, 64>& first_failed) noexcept {
  scatter_first_failed_portable(failed_masks, n, first_failed);
}

void finalize_errors(std::array<std::uint64_t, 64>& approx,
                     std::array<std::uint64_t, 64>& exact,
                     std::uint64_t value_error_mask,
                     std::array<std::int64_t, 64>& error) noexcept {
  finalize_errors_portable(approx, exact, value_error_mask, error);
}

void run_packed_group_zmm(const StageTruth*, std::size_t,
                          const std::uint64_t*, const std::uint64_t*,
                          std::uint64_t, BitSlicedKernel::Result*) noexcept {
  // Unreachable: run_packed_group only dispatches here when
  // transpose64_accelerated() is true, which this build never reports.
}

}  // namespace detail

}  // namespace sealpaa::sim

#endif
