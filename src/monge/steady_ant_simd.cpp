#include "monge/steady_ant_simd.h"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "monge/permutation.h"
#include "monge/steady_ant_simd_impl.h"
#include "util/check.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#define MONGE_STEADY_ANT_HAVE_SSE2 1
#endif
#if defined(__ARM_NEON) && defined(__aarch64__)
#include <arm_neon.h>
#define MONGE_STEADY_ANT_HAVE_NEON 1
#endif

namespace monge {

namespace {

#if defined(MONGE_STEADY_ANT_HAVE_SSE2)

/// SSE2 block primitives (W = 4). No hardware gather, so resolve_block
/// spills the four column indices and loads t[c+1] scalar; the compare and
/// blend halves stay vectorized (blend emulated with and/andnot/or — SSE2
/// has no blendv).
struct Sse2Ops {
  static constexpr std::int64_t kWidth = 4;

  static std::uint32_t step_mask(const std::int32_t* rows, std::int32_t thr) {
    const __m128i pk =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows));
    const __m128i one = _mm_set1_epi32(1);
    // (pk > thr) XOR (pk odd), both as 0/-1 lane masks.
    const __m128i gt = _mm_cmpgt_epi32(pk, _mm_set1_epi32(thr));
    const __m128i odd = _mm_cmpeq_epi32(_mm_and_si128(pk, one), one);
    return static_cast<std::uint32_t>(
        _mm_movemask_ps(_mm_castsi128_ps(_mm_xor_si128(gt, odd))));
  }

  static void resolve_block(const std::int32_t* rows, std::int32_t r0,
                            const std::int32_t* t, std::int32_t* out) {
    const __m128i pk =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows));
    const __m128i one = _mm_set1_epi32(1);
    const __m128i c = _mm_srli_epi32(pk, 1);
    alignas(16) std::int32_t ci[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(ci), c);
    const __m128i tcp1 =
        _mm_setr_epi32(t[ci[0] + 1], t[ci[1] + 1], t[ci[2] + 1], t[ci[3] + 1]);
    const __m128i rv =
        _mm_add_epi32(_mm_set1_epi32(r0), _mm_setr_epi32(0, 1, 2, 3));
    // e = [r >= t[c+1]] = NOT (t[c+1] > r); write iff odd == e, i.e. the
    // XOR of the odd mask with NOT-e is all-ones.
    const __m128i not_e = _mm_cmpgt_epi32(tcp1, rv);
    const __m128i odd = _mm_cmpeq_epi32(_mm_and_si128(pk, one), one);
    const __m128i wr = _mm_xor_si128(odd, not_e);
    const __m128i old =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(out));
    const __m128i res =
        _mm_or_si128(_mm_and_si128(wr, c), _mm_andnot_si128(wr, old));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out), res);
  }
};

#endif  // MONGE_STEADY_ANT_HAVE_SSE2

#if defined(MONGE_STEADY_ANT_HAVE_NEON)

/// NEON block primitives (W = 4), aarch64 only (vaddvq). Mirrors Sse2Ops;
/// the blend is a native vbslq.
struct NeonOps {
  static constexpr std::int64_t kWidth = 4;

  static std::uint32_t step_mask(const std::int32_t* rows, std::int32_t thr) {
    const int32x4_t pk = vld1q_s32(rows);
    const int32x4_t one = vdupq_n_s32(1);
    const uint32x4_t gt = vcgtq_s32(pk, vdupq_n_s32(thr));
    const uint32x4_t odd =
        vceqq_s32(vandq_s32(pk, one), one);
    const uint32x4_t step = veorq_u32(gt, odd);
    static const std::uint32_t kBits[4] = {1u, 2u, 4u, 8u};
    return vaddvq_u32(vandq_u32(step, vld1q_u32(kBits)));
  }

  static void resolve_block(const std::int32_t* rows, std::int32_t r0,
                            const std::int32_t* t, std::int32_t* out) {
    const int32x4_t pk = vld1q_s32(rows);
    const int32x4_t one = vdupq_n_s32(1);
    // Packs are non-negative, so the arithmetic shift equals a logical one.
    const int32x4_t c = vshrq_n_s32(pk, 1);
    std::int32_t ci[4];
    vst1q_s32(ci, c);
    const std::int32_t tc[4] = {t[ci[0] + 1], t[ci[1] + 1], t[ci[2] + 1],
                                t[ci[3] + 1]};
    const int32x4_t tcp1 = vld1q_s32(tc);
    static const std::int32_t kLane[4] = {0, 1, 2, 3};
    const int32x4_t rv = vaddq_s32(vdupq_n_s32(r0), vld1q_s32(kLane));
    const uint32x4_t not_e = vcgtq_s32(tcp1, rv);
    const uint32x4_t odd = vceqq_s32(vandq_s32(pk, one), one);
    const uint32x4_t wr = veorq_u32(odd, not_e);
    const int32x4_t old = vld1q_s32(out);
    vst1q_s32(out, vbslq_s32(wr, c, old));
  }
};

#endif  // MONGE_STEADY_ANT_HAVE_NEON

/// The packed scalar combine: the branchy reference walk (data-dependent
/// descent, per-row resolution branch) behind SteadyAntIsa::kScalar, which
/// every accelerated path must reproduce bit for bit (`out`, `t` and
/// `col_pk`). Same packed contract as steady_ant_packed_into.
// monge-lint: hot
void steady_ant_packed_scalar(std::span<const std::int32_t> row_pk,
                              std::span<std::int32_t> col_pk,
                              std::span<std::int32_t> t,
                              std::span<std::int32_t> out) {
  const auto n = static_cast<std::int64_t>(row_pk.size());
  for (std::int64_t r = 0; r < n; ++r) {
    const std::int32_t pk = row_pk[static_cast<std::size_t>(r)];
    const std::int32_t c = pk >> 1;
    MONGE_DCHECK(c >= 0 && c < n);
    col_pk[static_cast<std::size_t>(c)] =
        static_cast<std::int32_t>((r << 1) | (pk & 1));
  }
#ifndef NDEBUG
  std::fill(out.begin(), out.end(), kNone);
#endif
  std::int64_t i = n;
  std::int64_t delta = 0;
  t[0] = static_cast<std::int32_t>(n);
  for (std::int64_t j = 0; j < n; ++j) {
    const std::int32_t pk = col_pk[static_cast<std::size_t>(j)];
    const std::int32_t pr = pk >> 1;
    delta += (pk & 1) == 0 ? (pr >= i ? 1 : 0) : (pr < i ? 1 : 0);
    const std::int64_t prev = i;
    while (delta > 0) {
      MONGE_DCHECK(i > 0);
      --i;
      const std::int32_t qk = row_pk[static_cast<std::size_t>(i)];
      const std::int32_t qc = qk >> 1;
      delta -= (qk & 1) == 0 ? (qc >= j + 1 ? 1 : 0) : (qc < j + 1 ? 1 : 0);
    }
    t[static_cast<std::size_t>(j) + 1] = static_cast<std::int32_t>(i);
    if (i < prev) {
      // Interesting cell (Lemma 3.9): t drops strictly at column j.
      MONGE_DCHECK(out[static_cast<std::size_t>(i)] == kNone);
      out[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(j);
    }
  }
  // Every other cell: PC(r,c) = PC,e(r,c) with e = opt(r+1, c+1).
  for (std::int64_t r = 0; r < n; ++r) {
    const std::int32_t pk = row_pk[static_cast<std::size_t>(r)];
    const std::int64_t c = pk >> 1;
    if (r == t[static_cast<std::size_t>(c) + 1] &&
        r + 1 <= t[static_cast<std::size_t>(c)]) {
      continue;  // interesting cell, already placed during the walk
    }
    const std::int32_t e = (r + 1 <= t[static_cast<std::size_t>(c) + 1]) ? 0 : 1;
    if ((pk & 1) == e) {
      MONGE_DCHECK(out[static_cast<std::size_t>(r)] == kNone);
      out[static_cast<std::size_t>(r)] = static_cast<std::int32_t>(c);
    }
  }
#ifndef NDEBUG
  for (std::int64_t r = 0; r < n; ++r) {
    MONGE_DCHECK(out[static_cast<std::size_t>(r)] != kNone);
  }
#endif
}

bool force_scalar_env() {
  const char* v = std::getenv("MONGE_FORCE_SCALAR");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

bool cpu_has_avx2() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

const std::vector<SteadyAntIsa>& available_isas_vec() {
  static const std::vector<SteadyAntIsa> isas = [] {
    std::vector<SteadyAntIsa> v{SteadyAntIsa::kScalar};
#if defined(MONGE_STEADY_ANT_HAVE_SSE2)
    v.push_back(SteadyAntIsa::kSse2);
#endif
    if (detail::steady_ant_avx2_compiled() && cpu_has_avx2()) {
      v.push_back(SteadyAntIsa::kAvx2);
    }
#if defined(MONGE_STEADY_ANT_HAVE_NEON)
    v.push_back(SteadyAntIsa::kNeon);
#endif
    return v;
  }();
  return isas;
}

}  // namespace

const char* steady_ant_isa_name(SteadyAntIsa isa) {
  switch (isa) {
    case SteadyAntIsa::kScalar:
      return "scalar";
    case SteadyAntIsa::kSse2:
      return "sse2";
    case SteadyAntIsa::kAvx2:
      return "avx2";
    case SteadyAntIsa::kNeon:
      return "neon";
  }
  return "unknown";
}

std::span<const SteadyAntIsa> steady_ant_available_isas() {
  return available_isas_vec();
}

SteadyAntIsa steady_ant_active_isa() {
  static const SteadyAntIsa isa = force_scalar_env()
                                      ? SteadyAntIsa::kScalar
                                      : available_isas_vec().back();
  return isa;
}

// monge-lint: hot
void steady_ant_packed_into(SteadyAntIsa isa,
                            std::span<const std::int32_t> row_pk,
                            std::span<std::int32_t> col_pk,
                            std::span<std::int32_t> t,
                            std::span<std::int32_t> out) {
  const auto n = row_pk.size();
  MONGE_CHECK(col_pk.size() == n && out.size() == n && t.size() == n + 1);
  // Degenerate shapes resolve here, before any kernel is selected: the
  // ISA paths (and their W-row block loads) never run on empty spans. The
  // scalar walk handles n <= 1 exactly (no descent, no block loads), so
  // delegate rather than hand-replicate its output.
  if (n <= 1) {
    steady_ant_packed_scalar(row_pk, col_pk, t, out);
    return;
  }
  switch (isa) {
    case SteadyAntIsa::kScalar:
      steady_ant_packed_scalar(row_pk, col_pk, t, out);
      return;
    case SteadyAntIsa::kSse2:
#if defined(MONGE_STEADY_ANT_HAVE_SSE2)
      detail::combine_blocked<Sse2Ops>(row_pk, col_pk, t, out);
      return;
#else
      break;
#endif
    case SteadyAntIsa::kAvx2:
      if (detail::steady_ant_avx2_compiled() && cpu_has_avx2()) {
        detail::steady_ant_packed_avx2(row_pk, col_pk, t, out);
        return;
      }
      break;
    case SteadyAntIsa::kNeon:
#if defined(MONGE_STEADY_ANT_HAVE_NEON)
      detail::combine_blocked<NeonOps>(row_pk, col_pk, t, out);
      return;
#else
      break;
#endif
  }
  MONGE_CHECK_MSG(false, "steady-ant ISA path not available in this build: "
                             << steady_ant_isa_name(isa));
}

// monge-lint: hot
void steady_ant_packed_into(std::span<const std::int32_t> row_pk,
                            std::span<std::int32_t> col_pk,
                            std::span<std::int32_t> t,
                            std::span<std::int32_t> out) {
  steady_ant_packed_into(steady_ant_active_isa(), row_pk, col_pk, t, out);
}

}  // namespace monge
