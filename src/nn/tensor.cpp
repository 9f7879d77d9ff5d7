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
// GemmAccum and GemmTransAAccum share one panel kernel: both are
// out[r, j] += Σ_p A(r, p) · b[p, j] with A addressed through a (row
// stride, reduction stride) pair — (lda, 1) for A = a and (1, lda) for
// A = aᵀ. The panel holds a kMr×kNr accumulator tile in registers; the
// j-inner loops have compile-time trip count kNr so they vectorize, and
// the AVX2+FMA path writes the same tile with fma intrinsics
// (lane-wise identical to scalar fma). GemmTransBAccum is dot-product
// shaped — its per-element fold runs over the contiguous j axis, so
// vectorizing it would reassociate; instead kMr×kPr independent scalar
// fma chains run interleaved, hiding fma latency without touching any
// chain's order.
// ---------------------------------------------------------------------------

namespace {

using detail::MulAdd;

constexpr int kMr = 4;     // rows per register tile
constexpr int kNr = 16;    // max tile width in columns (two 8-float vectors)
constexpr int kDotMr = 4;  // rows per dot tile in GemmTransBAccum
constexpr int kPr = 4;     // dot-product chains per row in GemmTransBAccum

#if EAGLE_GEMM_SIMD
// MR×(8·NV) tile: o[r, 0:8NV] += Σ_p A(r, p) · b[p, 0:8NV]. The k loop is
// unrolled by two — each accumulator still folds p in ascending order,
// the unroll only amortizes loop control and address arithmetic over
// twice the fma work.
template <int MR, int NV>
void GemmPanelSimd(const float* a, std::ptrdiff_t a_row_stride,
                   std::ptrdiff_t a_red_stride, const float* b,
                   std::ptrdiff_t ldb, float* o, std::ptrdiff_t ldo, int kk) {
  __m256 acc[MR][NV];
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v)
      acc[r][v] = _mm256_loadu_ps(o + r * ldo + 8 * v);
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
    for (int v = 0; v < NV; ++v)
      _mm256_storeu_ps(o + r * ldo + 8 * v, acc[r][v]);
}
#endif  // EAGLE_GEMM_SIMD

// Portable tile with compile-time bounds so the accumulators stay in
// registers and the c-loops vectorize.
template <int MR, int NR>
void GemmPanelFixed(const float* a, std::ptrdiff_t a_row_stride,
                    std::ptrdiff_t a_red_stride, const float* b,
                    std::ptrdiff_t ldb, float* o, std::ptrdiff_t ldo,
                    int kk) {
  float acc[MR][NR];
  for (int r = 0; r < MR; ++r)
    for (int c = 0; c < NR; ++c) acc[r][c] = o[r * ldo + c];
  for (int p = 0; p < kk; ++p) {
    const float* bp = b + p * ldb;
    for (int r = 0; r < MR; ++r) {
      const float av = a[r * a_row_stride + p * a_red_stride];
      for (int c = 0; c < NR; ++c) acc[r][c] = MulAdd(av, bp[c], acc[r][c]);
    }
  }
  for (int r = 0; r < MR; ++r)
    for (int c = 0; c < NR; ++c) o[r * ldo + c] = acc[r][c];
}

// One MR-row panel of compile-time width NR (16 or 8 columns).
template <int MR, int NR>
void GemmPanel(const float* a, std::ptrdiff_t a_row_stride,
               std::ptrdiff_t a_red_stride, const float* b,
               std::ptrdiff_t ldb, float* o, std::ptrdiff_t ldo, int kk) {
#if EAGLE_GEMM_SIMD
  GemmPanelSimd<MR, NR / 8>(a, a_row_stride, a_red_stride, b, ldb, o, ldo,
                            kk);
#else
  GemmPanelFixed<MR, NR>(a, a_row_stride, a_red_stride, b, ldb, o, ldo, kk);
#endif
}

// Narrow tail (w < 8 columns), runtime bounds — only sub-vector-width
// column remainders and matrix–vector shapes land here.
void GemmPanelNarrow(const float* a, std::ptrdiff_t a_row_stride,
                     std::ptrdiff_t a_red_stride, const float* b,
                     std::ptrdiff_t ldb, float* o, std::ptrdiff_t ldo,
                     int mr, int w, int kk) {
  float acc[kMr][8];
  for (int r = 0; r < mr; ++r)
    for (int c = 0; c < w; ++c) acc[r][c] = o[r * ldo + c];
  for (int p = 0; p < kk; ++p) {
    const float* bp = b + p * ldb;
    for (int r = 0; r < mr; ++r) {
      const float av = a[r * a_row_stride + p * a_red_stride];
      for (int c = 0; c < w; ++c) acc[r][c] = MulAdd(av, bp[c], acc[r][c]);
    }
  }
  for (int r = 0; r < mr; ++r)
    for (int c = 0; c < w; ++c) o[r * ldo + c] = acc[r][c];
}

// All m rows of one NR-wide column panel; remainder rows dispatch to
// register kernels of their exact height instead of a runtime-bound
// fallback (a 6% edge fraction through a slow path costs 2× overall).
template <int NR>
void GemmRowSweep(const float* a, std::ptrdiff_t a_row_stride,
                  std::ptrdiff_t a_red_stride, const float* b,
                  std::ptrdiff_t ldb, float* o, std::ptrdiff_t ldo, int m,
                  int kk) {
  int i0 = 0;
  for (; i0 + kMr <= m; i0 += kMr) {
    GemmPanel<kMr, NR>(a + i0 * a_row_stride, a_row_stride, a_red_stride, b,
                       ldb, o + i0 * ldo, ldo, kk);
  }
  const float* ae = a + i0 * a_row_stride;
  float* oe = o + i0 * ldo;
  switch (m - i0) {
    case 1:
      GemmPanel<1, NR>(ae, a_row_stride, a_red_stride, b, ldb, oe, ldo, kk);
      break;
    case 2:
      GemmPanel<2, NR>(ae, a_row_stride, a_red_stride, b, ldb, oe, ldo, kk);
      break;
    case 3:
      GemmPanel<3, NR>(ae, a_row_stride, a_red_stride, b, ldb, oe, ldo, kk);
      break;
    default:
      break;
  }
}

// o(m×n, stride ldo) += Σ_p A(r, p) · b[p, j] with A given as (base, row
// stride, reduction stride) and the reduction running p = 0..kk-1.
void GemmBlocked(const float* a, std::ptrdiff_t a_row_stride,
                 std::ptrdiff_t a_red_stride, const float* b,
                 std::ptrdiff_t ldb, float* o, std::ptrdiff_t ldo, int m,
                 int n, int kk) {
  int j0 = 0;
  for (; j0 + kNr <= n; j0 += kNr) {
    GemmRowSweep<kNr>(a, a_row_stride, a_red_stride, b + j0, ldb, o + j0,
                      ldo, m, kk);
  }
  if (n - j0 >= 8) {
    GemmRowSweep<8>(a, a_row_stride, a_red_stride, b + j0, ldb, o + j0, ldo,
                    m, kk);
    j0 += 8;
  }
  if (j0 < n) {
    for (int i0 = 0; i0 < m; i0 += kMr) {
      GemmPanelNarrow(a + i0 * a_row_stride, a_row_stride, a_red_stride,
                      b + j0, ldb, o + i0 * ldo + j0, ldo,
                      std::min(kMr, m - i0), n - j0, kk);
    }
  }
}

// MR×PR dot tile: o[r, c] += Σ_j a[r, j] · b[c, j]. Each (r, c) chain
// starts from 0.0f and is added to o once at the end, exactly like the
// reference; the chains only run interleaved for ILP.
template <int MR, int PR>
void DotPanelFixed(const float* a, std::ptrdiff_t lda, const float* b,
                   std::ptrdiff_t ldb, float* o, std::ptrdiff_t ldo, int n) {
  float acc[MR][PR] = {};
  for (int j = 0; j < n; ++j) {
    for (int r = 0; r < MR; ++r) {
      const float av = a[r * lda + j];
      for (int c = 0; c < PR; ++c)
        acc[r][c] = MulAdd(av, b[c * ldb + j], acc[r][c]);
    }
  }
  for (int r = 0; r < MR; ++r)
    for (int c = 0; c < PR; ++c) o[r * ldo + c] += acc[r][c];
}

// One MR-row band of the dot product grid: full kPr-wide tiles, then a
// fixed-width tile for the 1–3 column remainder.
template <int MR>
void DotRowBand(const float* a, std::ptrdiff_t lda, const float* b,
                std::ptrdiff_t ldb, float* o, std::ptrdiff_t ldo, int k,
                int n) {
  int p0 = 0;
  for (; p0 + kPr <= k; p0 += kPr) {
    DotPanelFixed<MR, kPr>(a, lda, b + p0 * ldb, ldb, o + p0, ldo, n);
  }
  const float* be = b + p0 * ldb;
  switch (k - p0) {
    case 1:
      DotPanelFixed<MR, 1>(a, lda, be, ldb, o + p0, ldo, n);
      break;
    case 2:
      DotPanelFixed<MR, 2>(a, lda, be, ldb, o + p0, ldo, n);
      break;
    case 3:
      DotPanelFixed<MR, 3>(a, lda, be, ldb, o + p0, ldo, n);
      break;
    default:
      break;
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
  GemmBlocked(a.data(), /*a_row_stride=*/k, /*a_red_stride=*/1, b.data(), n,
              out.data(), n, m, n, k);
}

void GemmTransAAccum(const Tensor& a, const Tensor& b, Tensor& out) {
  // out(k, n) += aᵀ(k, m) * b(m, n), a is m×k. The reduction runs over
  // a's rows (i ascending), matching the reference's i-outer loop.
  EAGLE_CHECK_MSG(a.rows() == b.rows() && out.rows() == a.cols() &&
                      out.cols() == b.cols(),
                  "gemmTA shape mismatch: " << a.ShapeString() << "ᵀ * "
                                            << b.ShapeString() << " -> "
                                            << out.ShapeString());
  const int m = a.rows(), k = a.cols(), n = b.cols();
  if (k == 0 || n == 0) return;
  GemmBlocked(a.data(), /*a_row_stride=*/1, /*a_red_stride=*/k, b.data(), n,
              out.data(), n, k, n, m);
}

void GemmTransBAccum(const Tensor& a, const Tensor& b, Tensor& out) {
  // out(m, k) += a(m, n) * bᵀ(n, k), b is k×n.
  EAGLE_CHECK_MSG(a.cols() == b.cols() && out.rows() == a.rows() &&
                      out.cols() == b.rows(),
                  "gemmTB shape mismatch: " << a.ShapeString() << " * "
                                            << b.ShapeString() << "ᵀ -> "
                                            << out.ShapeString());
  const int m = a.rows(), n = a.cols(), k = b.rows();
  for (int i0 = 0; i0 < m; i0 += kDotMr) {
    switch (std::min(kDotMr, m - i0)) {
      case 4:
        DotRowBand<4>(a.row(i0), n, b.data(), n, out.row(i0), k, k, n);
        break;
      case 3:
        DotRowBand<3>(a.row(i0), n, b.data(), n, out.row(i0), k, k, n);
        break;
      case 2:
        DotRowBand<2>(a.row(i0), n, b.data(), n, out.row(i0), k, k, n);
        break;
      case 1:
        DotRowBand<1>(a.row(i0), n, b.data(), n, out.row(i0), k, k, n);
        break;
      default:
        break;
    }
  }
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
