// SIMD-friendly steady-ant combine with runtime ISA dispatch.
//
// The steady-ant walk is the hot inner loop of every seaweed product: the
// H = 2 combine of §3 (Lemmas 3.3/3.4 for the demarcation line t, Lemmas
// 3.7–3.10 for the product's points) runs once per node of the multiply
// recursion, for every entry point of the SeaweedEngine. The scalar walk
// (SteadyAntIsa::kScalar) is branch-heavy in two places — the
// data-dependent `while (delta > 0)` descent, and the per-row resolution
// pass. The accelerated paths here restructure both:
//
//   * the descent advances in W-row blocks: one vector compare over the
//     packed `row_pk` slab yields the Lemma 3.4 step bits for W rows at
//     once (a movemask; the stopping row is the mask's top set bit), so a
//     long descent costs O(steps / W) branch-light block hops instead of
//     `steps` dependent branches;
//   * the non-interesting-row resolution pass becomes a pure mask-select
//     over `row_pk`: per row, write the point's column iff its color equals
//     e = [r >= t(c+1)] — a compare + blend with no branches. (The write is
//     idempotent on interesting cells, which the walk already placed, so
//     no per-row "interesting?" test is needed.)
//
// Explicit SSE2 (W=4), AVX2 (W=8, hardware gathers) and NEON (W=4) kernels
// are selected by runtime feature detection; compilation of each path is
// gated by CMake (see MONGE_STEADY_ANT_ENABLE_* in CMakeLists.txt). Every
// path is bit-identical to the scalar walk — `out`, `t` and `col_pk` — for
// every input; the differential fuzz and pinned goldens in
// tests/test_steady_ant.cpp enforce this.
//
// Escape hatch: setting the MONGE_FORCE_SCALAR environment variable to a
// non-empty value other than "0" pins the dispatched entry point to the
// scalar walk (resolved once, at first use). This maps any benchmark or
// repro back onto the pre-SIMD path without rebuilding.
#pragma once

#include <cstdint>
#include <span>

namespace monge {

/// The combine kernels this build knows about. kScalar is always present;
/// the others exist only when compiled in AND supported by the host CPU.
enum class SteadyAntIsa : std::uint8_t { kScalar, kSse2, kAvx2, kNeon };

/// Human-readable name ("scalar", "sse2", "avx2", "neon"); never null.
const char* steady_ant_isa_name(SteadyAntIsa isa);

/// The ISA paths usable in this process: compiled into the binary and
/// passing runtime CPU feature detection. Ordered narrowest to widest;
/// the first entry is always kScalar. Stable for the process lifetime.
std::span<const SteadyAntIsa> steady_ant_available_isas();

/// The path the dispatched steady_ant_packed_into uses: the widest
/// available ISA, unless MONGE_FORCE_SCALAR (see file comment) pins it to
/// kScalar. Resolved once, on first use.
SteadyAntIsa steady_ant_active_isa();

/// The steady-ant combine on packed points, forced onto a specific ISA
/// path (tests and A/B benchmarks; kScalar is the reference walk every
/// other path reproduces bit for bit). `row_pk[r]` = (col << 1) | color of
/// row r's point in the full n-point union; `col_pk` (size n) and `t`
/// (size n + 1) are scratch, overwritten with the column->row+color packs
/// and the demarcation thresholds; `out` (size n) receives the combined
/// product's row->col array. Degenerate shapes (n == 0, n == 1) are
/// resolved by explicit early-outs before the ISA path is even consulted,
/// so ISA kernels never see an empty span — and those shapes succeed for
/// every `isa` value. For n >= 2, throws if `isa` is not available in
/// this process (check steady_ant_available_isas()).
void steady_ant_packed_into(SteadyAntIsa isa,
                            std::span<const std::int32_t> row_pk,
                            std::span<std::int32_t> col_pk,
                            std::span<std::int32_t> t,
                            std::span<std::int32_t> out);

/// Dispatched form: runs steady_ant_active_isa(). This is what the
/// SeaweedEngine's combine calls at every recursion node.
void steady_ant_packed_into(std::span<const std::int32_t> row_pk,
                            std::span<std::int32_t> col_pk,
                            std::span<std::int32_t> t,
                            std::span<std::int32_t> out);

}  // namespace monge
