// Runtime CPU-feature dispatch for the solver's hot kernels.
//
// The library is built for baseline x86-64 (SSE2), which gives the
// vectorizer half the vector width of an AVX2 host. A dispatched kernel is
// written once, as an always_inline body, and instantiated twice: a
// baseline wrapper and an XG_TARGET_AVX2 wrapper. Inlined into the AVX2
// wrapper, the body's loops are compiled for 256-bit vectors. The caller
// picks the wrapper with kernel_isa(), a CPU check made once per process.
//
// The no-FMA rule. Every dispatched kernel must give bit-identical results
// on both paths. IEEE add, sub and mul round the same at any vector width,
// so a vectorized loop that keeps each element's operations and their order
// matches the scalar one. A fused multiply-add rounds once where mul then
// add round twice, and GCC compiles C++ with -ffp-contract=fast, so it
// contracts a·b + c whenever the target has FMA. XG_TARGET_AVX2 therefore
// names "avx2" alone: never add "fma", and never an "avx512*" target (GCC
// implies FMA with avx512f). No file-scope `#pragma GCC target` either: it
// would also compile the inline header functions a file instantiates for
// AVX2, and the linker may then keep that copy for every caller.
#pragma once

namespace xg {

/// The instruction sets a dispatched kernel has a wrapper for.
enum class Isa { kBaseline, kAvx2 };

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define XG_TARGET_AVX2 [[gnu::target("avx2")]]

/// True when this CPU executes AVX2 (probed once).
inline bool cpu_has_avx2() {
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
}
#else
// Other ISAs: the "AVX2" wrapper is a second baseline copy, never selected.
#define XG_TARGET_AVX2
inline bool cpu_has_avx2() { return false; }
#endif

/// The ISA the dispatched kernels run at on this CPU.
inline Isa kernel_isa() {
  return cpu_has_avx2() ? Isa::kAvx2 : Isa::kBaseline;
}

}  // namespace xg
