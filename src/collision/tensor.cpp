#include "collision/tensor.hpp"

#include <algorithm>

#include "util/cpu.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace xg::collision {

namespace {
/// Panel columns per blocking pass of apply_batch: bounds the per-row
/// accumulator (2·kBatchBlock doubles) so it stays in registers/L1 while the
/// inner loop streams a full cmat row.
constexpr int kBatchBlock = 16;

/// Panel kernel body with a compile-time width W (doubles, i.e. 2·columns):
/// the fixed trip count lets the compiler keep the accumulator in vector
/// registers and fully vectorize the inner loop, which a runtime-width loop
/// does not achieve at -O2. Per output element the accumulation over j is
/// sequential j = 0..nv-1 — identical to the scalar apply(), so the batched
/// path is bit-exact with it regardless of W or ISA (mul and add are kept as
/// separate operations; no FMA contraction).
template <int W>
[[gnu::always_inline]] inline void panel_body(const float* __restrict a,
                                              int nv, int batch, int b0,
                                              const double* __restrict xs,
                                              double* __restrict ys) {
  for (int i = 0; i < nv; ++i) {
    double acc[W] = {};
    const float* __restrict row = a + static_cast<size_t>(i) * nv;
    for (int j = 0; j < nv; ++j) {
      const double aij = row[j];
      const double* __restrict xj =
          xs + (static_cast<size_t>(j) * batch + b0) * 2;
      for (int b = 0; b < W; ++b) acc[b] += aij * xj[b];
    }
    double* __restrict yi = ys + (static_cast<size_t>(i) * batch + b0) * 2;
    for (int b = 0; b < W; ++b) yi[b] = acc[b];
  }
}

/// AVX2 clone of panel_body (see util/cpu.hpp for the dispatch and its
/// no-FMA rule).
template <int W>
XG_TARGET_AVX2 void panel_avx2(const float* __restrict a, int nv, int batch,
                               int b0, const double* __restrict xs,
                               double* __restrict ys) {
  panel_body<W>(a, nv, batch, b0, xs, ys);
}

template <int W>
void panel(const float* __restrict a, int nv, int batch, int b0,
           const double* __restrict xs, double* __restrict ys) {
  if (cpu_has_avx2()) {
    panel_avx2<W>(a, nv, batch, b0, xs, ys);
    return;
  }
  panel_body<W>(a, nv, batch, b0, xs, ys);
}
}  // namespace

CollisionTensor::CollisionTensor(int nv, int n_cells)
    : nv_(nv), n_cells_(n_cells),
      data_(static_cast<size_t>(nv) * nv * n_cells, 0.0f),
      scratch_(static_cast<size_t>(nv)) {
  XG_REQUIRE(nv >= 1 && n_cells >= 0, "CollisionTensor: bad shape");
}

void CollisionTensor::set_cell(int cell, const la::MatrixD& a) {
  XG_ASSERT(cell >= 0 && cell < n_cells_);
  XG_REQUIRE(a.rows() == nv_ && a.cols() == nv_,
             "CollisionTensor::set_cell: matrix shape mismatch");
  float* dst = data_.data() + static_cast<size_t>(cell) * nv_ * nv_;
  const auto src = a.data();
  for (size_t i = 0; i < src.size(); ++i) dst[i] = static_cast<float>(src[i]);
}

std::span<const float> CollisionTensor::cell(int cell) const {
  XG_ASSERT(cell >= 0 && cell < n_cells_);
  return {data_.data() + static_cast<size_t>(cell) * nv_ * nv_,
          static_cast<size_t>(nv_) * nv_};
}

void CollisionTensor::apply(int cell, std::span<const cplx> x,
                            std::span<cplx> y) const {
  XG_ASSERT(x.size() == static_cast<size_t>(nv_));
  XG_ASSERT(y.size() == static_cast<size_t>(nv_));
  const float* a = data_.data() + static_cast<size_t>(cell) * nv_ * nv_;
  for (int i = 0; i < nv_; ++i) {
    double re = 0.0, im = 0.0;
    const float* row = a + static_cast<size_t>(i) * nv_;
    for (int j = 0; j < nv_; ++j) {
      re += row[j] * x[j].real();
      im += row[j] * x[j].imag();
    }
    y[i] = {re, im};
  }
}

void CollisionTensor::apply_batch(int cell, std::span<const cplx> x,
                                  std::span<cplx> y, int batch) const {
  XG_ASSERT(cell >= 0 && cell < n_cells_);
  XG_ASSERT(batch >= 1);
  XG_ASSERT(x.size() == static_cast<size_t>(nv_) * batch);
  XG_ASSERT(y.size() == static_cast<size_t>(nv_) * batch);
  const float* __restrict a =
      data_.data() + static_cast<size_t>(cell) * nv_ * nv_;
  // View the complex panels as interleaved doubles: column b of velocity row
  // j lives at xs[(j·batch + b)·2 + {0,1}]. The real matrix entry multiplies
  // both components identically, so the inner loop is a contiguous fused
  // multiply-add over 2·bw doubles.
  const double* __restrict xs = reinterpret_cast<const double*>(x.data());
  double* __restrict ys = reinterpret_cast<double*>(y.data());
  // Full 16-column blocks, then one narrower tail block. Every width is a
  // compile-time constant so each panel instantiation vectorizes cleanly.
  const int full = batch / kBatchBlock;
  const int rem = batch % kBatchBlock;
  int b0 = 0;
  for (int blk = 0; blk < full; ++blk, b0 += kBatchBlock) {
    panel<2 * kBatchBlock>(a, nv_, batch, b0, xs, ys);
  }
  switch (rem) {
    case 0: break;
#define XG_TAIL_CASE(N) \
  case N:               \
    panel<2 * (N)>(a, nv_, batch, b0, xs, ys); \
    break;
    XG_TAIL_CASE(1)
    XG_TAIL_CASE(2)
    XG_TAIL_CASE(3)
    XG_TAIL_CASE(4)
    XG_TAIL_CASE(5)
    XG_TAIL_CASE(6)
    XG_TAIL_CASE(7)
    XG_TAIL_CASE(8)
    XG_TAIL_CASE(9)
    XG_TAIL_CASE(10)
    XG_TAIL_CASE(11)
    XG_TAIL_CASE(12)
    XG_TAIL_CASE(13)
    XG_TAIL_CASE(14)
    XG_TAIL_CASE(15)
#undef XG_TAIL_CASE
  }
}

void CollisionTensor::apply_in_place(int cell, std::span<cplx> x) {
  apply(cell, x, scratch_);
  std::copy(scratch_.begin(), scratch_.end(), x.begin());
}

void CollisionTensor::copy_cell(int dst_cell, int src_cell) {
  XG_ASSERT(dst_cell >= 0 && dst_cell < n_cells_);
  XG_ASSERT(src_cell >= 0 && src_cell < n_cells_);
  const size_t n = static_cast<size_t>(nv_) * nv_;
  std::copy_n(data_.data() + static_cast<size_t>(src_cell) * n, n,
              data_.data() + static_cast<size_t>(dst_cell) * n);
}

std::uint64_t CollisionTensor::fingerprint() const {
  Hasher h;
  h.i64(nv_).i64(n_cells_);
  // Bulk-hash the raw fp32 buffer in cache-sized chunks. Bit-exact on the
  // stored values; hashing 4 raw bytes per entry replaces the old
  // per-element double widening (8 bytes hashed per entry plus a call each).
  constexpr size_t kChunkBytes = size_t{1} << 16;
  const auto* p = reinterpret_cast<const unsigned char*>(data_.data());
  const size_t total = data_.size() * sizeof(float);
  for (size_t off = 0; off < total; off += kChunkBytes) {
    h.bytes(p + off, std::min(kChunkBytes, total - off));
  }
  return h.digest();
}

la::MatrixD CmatRecipe::build_cell(const vgrid::VelocityGrid& grid,
                                   const la::MatrixD& scattering,
                                   double kperp2) const {
  const auto rates = gyro_diffusion_rates(grid, params, kperp2);
  const auto c = build_cell_operator(scattering, rates);
  return build_implicit_step_matrix(c, dt);
}

}  // namespace xg::collision
