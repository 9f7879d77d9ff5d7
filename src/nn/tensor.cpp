#include "nn/tensor.h"

#include <algorithm>
#include <cstddef>
#include <sstream>

#include "nn/arena.h"
#include "nn/gemm_inner.h"

#if defined(__AVX2__) && defined(__FMA__)
#define EAGLE_GEMM_SIMD 1
#include <immintrin.h>
#endif

namespace eagle::nn {

Tensor::Tensor(int rows, int cols, float fill) : rows_(rows), cols_(cols) {
  EAGLE_CHECK_MSG(rows >= 0 && cols >= 0,
                  "bad tensor shape " << rows << "x" << cols);
  data_ = detail::ArenaAcquire(size());
  Fill(fill);
}

Tensor Tensor::FromData(int rows, int cols, std::vector<float> data) {
  EAGLE_CHECK_MSG(static_cast<std::int64_t>(data.size()) ==
                      static_cast<std::int64_t>(rows) * cols,
                  "data size " << data.size() << " != " << rows << "x" << cols);
  Tensor t;
  t.rows_ = rows;
  t.cols_ = cols;
  t.data_ = detail::ArenaAcquire(t.size());
  std::copy(data.begin(), data.end(), t.data_);
  return t;
}

Tensor::Tensor(const Tensor& other) : rows_(other.rows_), cols_(other.cols_) {
  data_ = detail::ArenaAcquire(size());
  std::copy(other.data_, other.data_ + size(), data_);
}

Tensor::Tensor(Tensor&& other) noexcept
    : rows_(other.rows_), cols_(other.cols_), data_(other.data_) {
  other.rows_ = 0;
  other.cols_ = 0;
  other.data_ = nullptr;
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  if (size() != other.size()) {
    detail::ArenaRelease(data_);
    data_ = detail::ArenaAcquire(other.size());
  }
  rows_ = other.rows_;
  cols_ = other.cols_;
  std::copy(other.data_, other.data_ + size(), data_);
  return *this;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  detail::ArenaRelease(data_);
  rows_ = other.rows_;
  cols_ = other.cols_;
  data_ = other.data_;
  other.rows_ = 0;
  other.cols_ = 0;
  other.data_ = nullptr;
  return *this;
}

Tensor::~Tensor() { detail::ArenaRelease(data_); }

void Tensor::Fill(float v) { std::fill(data_, data_ + size(), v); }

std::string Tensor::ShapeString() const {
  std::ostringstream os;
  os << rows_ << "x" << cols_;
  return os.str();
}

Tensor Transposed(const Tensor& t) {
  const int rows = t.rows(), cols = t.cols();
  Tensor out(cols, rows);
  // 16×16 tiles keep both the strided reads and the strided writes of a
  // tile inside L1 when the matrix is larger than the cache.
  constexpr int kTile = 16;
  const float* src = t.data();
  float* dst = out.data();
  for (int r0 = 0; r0 < rows; r0 += kTile) {
    const int r1 = std::min(r0 + kTile, rows);
    for (int c0 = 0; c0 < cols; c0 += kTile) {
      const int c1 = std::min(c0 + kTile, cols);
      for (int r = r0; r < r1; ++r)
        for (int c = c0; c < c1; ++c)
          dst[static_cast<std::ptrdiff_t>(c) * rows + r] =
              src[static_cast<std::ptrdiff_t>(r) * cols + c];
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Blocked GEMM kernels.
//
// Bit-identity with the naive reference (nn/naive_ref.cpp) holds because
// each output element's value is a fold over one reduction index in
// ascending order, every step a single detail::MulAdd, and keeping that
// fold in a register across the loop instead of in out-memory performs
// the exact same rounding sequence. The blocking below only rearranges
// *which* element's fold advances next, never the order within a fold.
//
// All three GEMMs share one panel kernel: out[r, j] += Σ_p A(r, p) ·
// b[p, j] with A addressed through a (row stride, reduction stride) pair
// — (lda, 1) for A = a and (1, lda) for A = aᵀ. The panel holds a kMr×kNr
// accumulator tile in registers; the j-inner loops have compile-time trip
// count kNr so they vectorize, and the AVX2+FMA path writes the same tile
// with fma intrinsics (lane-wise identical to scalar fma).
//
// The epilogue is a compile-time choice. GemmAccum and GemmTransAAccum
// fold straight into out: the tile starts from out's values and is
// stored back. GemmTransBAccum's reference folds each dot product from
// 0.0f and adds the finished sum to out once, so it runs the kernel
// against bᵀ with FromZero set: the tile starts at 0.0f, folds p
// ascending, and the store adds it to out — the same rounding sequence.
// ---------------------------------------------------------------------------

namespace {

using detail::MulAdd;

constexpr int kMr = 4;   // rows per register tile
constexpr int kNr = 16;  // max tile width in columns (two 8-float vectors)

template <bool FromZero>
float TileStart(const float* o) {
  if constexpr (FromZero) {
    return 0.0f;
  } else {
    return *o;
  }
}

template <bool FromZero>
void TileStore(float* o, float acc) {
  if constexpr (FromZero) {
    *o += acc;
  } else {
    *o = acc;
  }
}

#if EAGLE_GEMM_SIMD
// MR×(8·NV) tile: o[r, 0:8NV] += Σ_p A(r, p) · b[p, 0:8NV]. The k loop is
// unrolled by two — each accumulator still folds p in ascending order,
// the unroll only amortizes loop control and address arithmetic over
// twice the fma work.
template <int MR, int NV, bool FromZero>
void GemmPanelSimd(const float* a, std::ptrdiff_t a_row_stride,
                   std::ptrdiff_t a_red_stride, const float* b,
                   std::ptrdiff_t ldb, float* o, std::ptrdiff_t ldo, int kk) {
  __m256 acc[MR][NV];
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) {
      if constexpr (FromZero) {
        acc[r][v] = _mm256_setzero_ps();
      } else {
        acc[r][v] = _mm256_loadu_ps(o + r * ldo + 8 * v);
      }
    }
  int p = 0;
  for (; p + 2 <= kk; p += 2) {
    const float* bp0 = b + p * ldb;
    const float* bp1 = bp0 + ldb;
    __m256 b0[NV], b1[NV];
    for (int v = 0; v < NV; ++v) {
      b0[v] = _mm256_loadu_ps(bp0 + 8 * v);
      b1[v] = _mm256_loadu_ps(bp1 + 8 * v);
    }
    const float* ap = a + p * a_red_stride;
    for (int r = 0; r < MR; ++r) {
      const __m256 av0 = _mm256_set1_ps(ap[r * a_row_stride]);
      for (int v = 0; v < NV; ++v)
        acc[r][v] = _mm256_fmadd_ps(av0, b0[v], acc[r][v]);
      const __m256 av1 = _mm256_set1_ps(ap[r * a_row_stride + a_red_stride]);
      for (int v = 0; v < NV; ++v)
        acc[r][v] = _mm256_fmadd_ps(av1, b1[v], acc[r][v]);
    }
  }
  for (; p < kk; ++p) {
    const float* bp = b + p * ldb;
    __m256 bv[NV];
    for (int v = 0; v < NV; ++v) bv[v] = _mm256_loadu_ps(bp + 8 * v);
    for (int r = 0; r < MR; ++r) {
      const __m256 av =
          _mm256_set1_ps(a[r * a_row_stride + p * a_red_stride]);
      for (int v = 0; v < NV; ++v)
        acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
    }
  }
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) {
      float* dst = o + r * ldo + 8 * v;
      if constexpr (FromZero) {
        _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), acc[r][v]));
      } else {
        _mm256_storeu_ps(dst, acc[r][v]);
      }
    }
}
#endif  // EAGLE_GEMM_SIMD

// Portable tile with compile-time bounds so the accumulators stay in
// registers and the c-loops vectorize.
template <int MR, int NR, bool FromZero>
void GemmPanelFixed(const float* a, std::ptrdiff_t a_row_stride,
                    std::ptrdiff_t a_red_stride, const float* b,
                    std::ptrdiff_t ldb, float* o, std::ptrdiff_t ldo,
                    int kk) {
  float acc[MR][NR];
  for (int r = 0; r < MR; ++r)
    for (int c = 0; c < NR; ++c)
      acc[r][c] = TileStart<FromZero>(o + r * ldo + c);
  for (int p = 0; p < kk; ++p) {
    const float* bp = b + p * ldb;
    for (int r = 0; r < MR; ++r) {
      const float av = a[r * a_row_stride + p * a_red_stride];
      for (int c = 0; c < NR; ++c) acc[r][c] = MulAdd(av, bp[c], acc[r][c]);
    }
  }
  for (int r = 0; r < MR; ++r)
    for (int c = 0; c < NR; ++c)
      TileStore<FromZero>(o + r * ldo + c, acc[r][c]);
}

// One MR-row panel of compile-time width NR (16 or 8 columns).
template <int MR, int NR, bool FromZero>
void GemmPanel(const float* a, std::ptrdiff_t a_row_stride,
               std::ptrdiff_t a_red_stride, const float* b,
               std::ptrdiff_t ldb, float* o, std::ptrdiff_t ldo, int kk) {
#if EAGLE_GEMM_SIMD
  GemmPanelSimd<MR, NR / 8, FromZero>(a, a_row_stride, a_red_stride, b, ldb,
                                      o, ldo, kk);
#else
  GemmPanelFixed<MR, NR, FromZero>(a, a_row_stride, a_red_stride, b, ldb, o,
                                   ldo, kk);
#endif
}

// Narrow tail (w < 8 columns), runtime bounds — only sub-vector-width
// column remainders and matrix–vector shapes land here.
template <bool FromZero>
void GemmPanelNarrow(const float* a, std::ptrdiff_t a_row_stride,
                     std::ptrdiff_t a_red_stride, const float* b,
                     std::ptrdiff_t ldb, float* o, std::ptrdiff_t ldo,
                     int mr, int w, int kk) {
  float acc[kMr][8];
  for (int r = 0; r < mr; ++r)
    for (int c = 0; c < w; ++c)
      acc[r][c] = TileStart<FromZero>(o + r * ldo + c);
  for (int p = 0; p < kk; ++p) {
    const float* bp = b + p * ldb;
    for (int r = 0; r < mr; ++r) {
      const float av = a[r * a_row_stride + p * a_red_stride];
      for (int c = 0; c < w; ++c) acc[r][c] = MulAdd(av, bp[c], acc[r][c]);
    }
  }
  for (int r = 0; r < mr; ++r)
    for (int c = 0; c < w; ++c)
      TileStore<FromZero>(o + r * ldo + c, acc[r][c]);
}

// All m rows of one NR-wide column panel; remainder rows dispatch to
// register kernels of their exact height instead of a runtime-bound
// fallback (a 6% edge fraction through a slow path costs 2× overall).
template <int NR, bool FromZero>
void GemmRowSweep(const float* a, std::ptrdiff_t a_row_stride,
                  std::ptrdiff_t a_red_stride, const float* b,
                  std::ptrdiff_t ldb, float* o, std::ptrdiff_t ldo, int m,
                  int kk) {
  int i0 = 0;
  for (; i0 + kMr <= m; i0 += kMr) {
    GemmPanel<kMr, NR, FromZero>(a + i0 * a_row_stride, a_row_stride,
                                 a_red_stride, b, ldb, o + i0 * ldo, ldo, kk);
  }
  const float* ae = a + i0 * a_row_stride;
  float* oe = o + i0 * ldo;
  switch (m - i0) {
    case 1:
      GemmPanel<1, NR, FromZero>(ae, a_row_stride, a_red_stride, b, ldb, oe,
                                 ldo, kk);
      break;
    case 2:
      GemmPanel<2, NR, FromZero>(ae, a_row_stride, a_red_stride, b, ldb, oe,
                                 ldo, kk);
      break;
    case 3:
      GemmPanel<3, NR, FromZero>(ae, a_row_stride, a_red_stride, b, ldb, oe,
                                 ldo, kk);
      break;
    default:
      break;
  }
}

// o(m×n, stride ldo) += Σ_p A(r, p) · b[p, j] with A given as (base, row
// stride, reduction stride) and the reduction running p = 0..kk-1.
template <bool FromZero>
void GemmBlocked(const float* a, std::ptrdiff_t a_row_stride,
                 std::ptrdiff_t a_red_stride, const float* b,
                 std::ptrdiff_t ldb, float* o, std::ptrdiff_t ldo, int m,
                 int n, int kk) {
  int j0 = 0;
  for (; j0 + kNr <= n; j0 += kNr) {
    GemmRowSweep<kNr, FromZero>(a, a_row_stride, a_red_stride, b + j0, ldb,
                                o + j0, ldo, m, kk);
  }
  if (n - j0 >= 8) {
    GemmRowSweep<8, FromZero>(a, a_row_stride, a_red_stride, b + j0, ldb,
                              o + j0, ldo, m, kk);
    j0 += 8;
  }
  if (j0 < n) {
    for (int i0 = 0; i0 < m; i0 += kMr) {
      GemmPanelNarrow<FromZero>(a + i0 * a_row_stride, a_row_stride,
                                a_red_stride, b + j0, ldb, o + i0 * ldo + j0,
                                ldo, std::min(kMr, m - i0), n - j0, kk);
    }
  }
}

}  // namespace

void GemmAccum(const Tensor& a, const Tensor& b, Tensor& out) {
  EAGLE_CHECK_MSG(a.cols() == b.rows() && out.rows() == a.rows() &&
                      out.cols() == b.cols(),
                  "gemm shape mismatch: " << a.ShapeString() << " * "
                                          << b.ShapeString() << " -> "
                                          << out.ShapeString());
  const int m = a.rows(), k = a.cols(), n = b.cols();
  if (m == 0 || n == 0) return;
  GemmBlocked<false>(a.data(), /*a_row_stride=*/k, /*a_red_stride=*/1,
                     b.data(), n, out.data(), n, m, n, k);
}

void GemmTransAAccum(const Tensor& a, const Tensor& b, Tensor& out) {
  EAGLE_CHECK_MSG(a.rows() == b.rows(),
                  "gemmTA shape mismatch: " << a.ShapeString() << "ᵀ * "
                                            << b.ShapeString() << " -> "
                                            << out.ShapeString());
  GemmTransAAccumRows(a, b, a.rows(), out);
}

void GemmTransAAccumRows(const Tensor& a, const Tensor& b, int rows,
                         Tensor& out) {
  // out(k, n) += aᵀ(k, rows) * b(rows, n) over the leading rows of a (k
  // columns) and b. The reduction runs over those rows (i ascending),
  // matching the reference's i-outer loop.
  EAGLE_CHECK_MSG(rows >= 0 && rows <= a.rows() && rows <= b.rows() &&
                      out.rows() == a.cols() && out.cols() == b.cols(),
                  "gemmTA shape mismatch: " << rows << " rows of "
                                            << a.ShapeString() << "ᵀ * "
                                            << b.ShapeString() << " -> "
                                            << out.ShapeString());
  const int k = a.cols(), n = b.cols();
  if (k == 0 || n == 0) return;
  GemmBlocked<false>(a.data(), /*a_row_stride=*/1, /*a_red_stride=*/k,
                     b.data(), n, out.data(), n, k, n, rows);
}

void GemmTransBAccumPretransposed(const Tensor& a, const Tensor& b_t,
                                  Tensor& out) {
  // out(m, k) += a(m, n) * b_t(n, k), every product folded from zero.
  EAGLE_CHECK_MSG(a.cols() == b_t.rows() && out.rows() == a.rows() &&
                      out.cols() == b_t.cols(),
                  "gemmTB shape mismatch: " << a.ShapeString() << " * "
                                            << b_t.ShapeString() << " -> "
                                            << out.ShapeString());
  const int m = a.rows(), n = a.cols(), k = b_t.cols();
  if (m == 0 || k == 0) return;
  GemmBlocked<true>(a.data(), /*a_row_stride=*/n, /*a_red_stride=*/1,
                    b_t.data(), k, out.data(), k, m, k, n);
}

void GemmTransBAccum(const Tensor& a, const Tensor& b, Tensor& out) {
  // out(m, k) += a(m, n) * bᵀ(n, k), b is k×n.
  EAGLE_CHECK_MSG(a.cols() == b.cols() && out.rows() == a.rows() &&
                      out.cols() == b.rows(),
                  "gemmTB shape mismatch: " << a.ShapeString() << " * "
                                            << b.ShapeString() << "ᵀ -> "
                                            << out.ShapeString());
  GemmTransBAccumPretransposed(a, Transposed(b), out);
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  Tensor out(a.rows(), b.cols());
  GemmAccum(a, b, out);
  return out;
}

void Axpy(float alpha, const Tensor& x, Tensor& y) {
  EAGLE_CHECK_MSG(x.SameShape(y), "axpy shape mismatch");
  const float* xd = x.data();
  float* yd = y.data();
  const std::int64_t n = x.size();
  for (std::int64_t i = 0; i < n; ++i) yd[i] = MulAdd(alpha, xd[i], yd[i]);
}

double SquaredNorm(const Tensor& t) {
  double acc = 0.0;
  const float* d = t.data();
  for (std::int64_t i = 0; i < t.size(); ++i) {
    acc += static_cast<double>(d[i]) * d[i];
  }
  return acc;
}

}  // namespace eagle::nn
