#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "common/check.h"
#include "common/thread_pool.h"
#include "tensor/gemm_kernels.h"

namespace sinan {

namespace {

/** Batch rows per ParallelFor block of Conv2D::Backward — the one
 *  kernel grain that is not GrainFor: the per-block gradient partials
 *  are reduced in block order, so this grain fixes the bytes. */
constexpr int64_t kConvBatchGrain = 4;

/** Output channels per forward-matmul block. Fixed so the block
 *  structure — and therefore the bytes — never depends on the thread
 *  count; 8 rows also lets the AVX2 kernel reuse each loaded im2col
 *  row across two 4-row register panels. */
constexpr int64_t kConvOcBlock = 8;

} // namespace

Dense::Dense(int in_features, int out_features, Rng& rng)
{
    SINAN_CHECK_MSG(in_features > 0 && out_features > 0,
                    "Dense: non-positive dimensions (" << in_features
                        << "x" << out_features << ")");
    // Kaiming initialization for ReLU-dominated nets.
    const float stddev = std::sqrt(2.0f / static_cast<float>(in_features));
    w_ = Param(Tensor::Randn({in_features, out_features}, rng, stddev));
    b_ = Param(Tensor({out_features}));
}

Tensor
Dense::Forward(const Tensor& x)
{
    x_cache_ = x;
    Tensor y;
    ForwardInto(x, y);
    return y;
}

void
Dense::ForwardInto(const Tensor& x, Tensor& y) const
{
    SINAN_CHECK_EQ(x.Rank(), 2);
    SINAN_CHECK_SHAPE(x, x.Dim(0), w_.value.Dim(0));
    y.EnsureShape({x.Dim(0), w_.value.Dim(1)});
    MatMul(x, w_.value, y);
    const int out = b_.value.Dim(0);
    ParallelFor(0, x.Dim(0), GrainFor(out), [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
            float* row = y.Data() + static_cast<size_t>(i) * out;
            for (int j = 0; j < out; ++j)
                row[j] += b_.value[j];
        }
    });
}

void
Dense::ForwardSharedPrefixInto(std::initializer_list<const Tensor*> shared,
                               const Tensor& x, Tensor& prefix,
                               Tensor& y) const
{
    SINAN_CHECK_EQ(x.Rank(), 2);
    const int out = w_.value.Dim(1);
    const float* w = w_.value.Data();
    const GemmRowsFn kern = ActiveGemmRows();
    prefix.EnsureShape({1, out});
    prefix.Fill(0.0f);
    int64_t k0 = 0; // weight rows consumed so far
    for (const Tensor* s : shared) {
        SINAN_CHECK_EQ(s->Rank(), 2);
        SINAN_CHECK_EQ(s->Dim(0), 1);
        const int ks = s->Dim(1);
        SINAN_CHECK_LE(k0 + ks, int64_t{w_.value.Dim(0)});
        kern(s->Data(), ks, w + k0 * out, out, prefix.Data(), out, 0, 1,
             ks, out);
        k0 += ks;
    }
    const int kx = x.Dim(1);
    SINAN_CHECK_EQ(k0 + kx, int64_t{w_.value.Dim(0)});
    y.EnsureShape({x.Dim(0), out});
    const float* pre = prefix.Data();
    ParallelFor(0, x.Dim(0), GrainFor(int64_t{kx} * out),
                [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            std::copy(pre, pre + out, y.Data() + i * out);
        kern(x.Data(), kx, w + k0 * out, out, y.Data(), out, lo, hi, kx,
             out);
        for (int64_t i = lo; i < hi; ++i) {
            float* row = y.Data() + i * out;
            for (int j = 0; j < out; ++j)
                row[j] += b_.value[j];
        }
    });
}

Tensor
Dense::Backward(const Tensor& dy)
{
    const int batch = x_cache_.Dim(0);
    SINAN_CHECK_EQ(dy.Rank(), 2);
    SINAN_CHECK_SHAPE(dy, batch, w_.value.Dim(1));
    // dW += x^T dy ; db += colsum(dy) ; dx = dy W^T.
    MatMulTa(x_cache_, dy, w_.grad, /*accumulate=*/true);
    const int out = w_.value.Dim(1);
    // Column-blocked: each block owns a disjoint range of bias slots,
    // accumulating over the batch in the same order as the serial loop.
    ParallelFor(0, out, GrainFor(batch), [&](int64_t lo, int64_t hi) {
        for (int i = 0; i < batch; ++i) {
            const float* row = dy.Data() + static_cast<size_t>(i) * out;
            for (int64_t j = lo; j < hi; ++j)
                b_.grad[j] += row[j];
        }
    });
    Tensor dx({batch, w_.value.Dim(0)});
    MatMulTb(dy, w_.value, dx);
    return dx;
}

void
Dense::Save(std::ostream& out) const
{
    w_.value.Save(out);
    b_.value.Save(out);
}

void
Dense::Load(std::istream& in)
{
    w_ = Param(Tensor::Load(in));
    b_ = Param(Tensor::Load(in));
}

void
ReluInPlace(Tensor& t)
{
    float* p = t.Data();
    const size_t n = t.Size();
    for (size_t i = 0; i < n; ++i)
        p[i] = p[i] > 0.0f ? p[i] : 0.0f;
}

Tensor
ReLU::Forward(const Tensor& x)
{
    x_cache_ = x;
    Tensor y = x;
    for (size_t i = 0; i < y.Size(); ++i)
        y[i] = y[i] > 0.0f ? y[i] : 0.0f;
    return y;
}

Tensor
ReLU::Backward(const Tensor& dy)
{
    SINAN_CHECK_EQ(dy.Size(), x_cache_.Size());
    Tensor dx = dy;
    for (size_t i = 0; i < dx.Size(); ++i)
        dx[i] = x_cache_[i] > 0.0f ? dx[i] : 0.0f;
    return dx;
}

Conv2D::Conv2D(int in_channels, int out_channels, int kernel, Rng& rng)
    : kernel_(kernel)
{
    SINAN_CHECK_MSG(kernel > 0 && kernel % 2 == 1,
                    "Conv2D: kernel must be odd positive (got " << kernel
                        << ")");
    SINAN_CHECK_MSG(in_channels > 0 && out_channels > 0,
                    "Conv2D: non-positive channels (" << in_channels
                        << " -> " << out_channels << ")");
    const int fan_in = in_channels * kernel * kernel;
    const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
    w_ = Param(Tensor::Randn({out_channels, in_channels, kernel, kernel},
                             rng, stddev));
    b_ = Param(Tensor({out_channels}));
}

Tensor
Conv2D::Forward(const Tensor& x)
{
    x_cache_ = x;
    Tensor y;
    ForwardInto(x, y, col_);
    return y;
}

void
Conv2D::ForwardInto(const Tensor& x, Tensor& y, Tensor& col) const
{
    SINAN_CHECK_EQ(x.Rank(), 4);
    SINAN_CHECK_SHAPE(x, x.Dim(0), w_.value.Dim(1), x.Dim(2), x.Dim(3));
    const int batch = x.Dim(0), in_c = x.Dim(1), h = x.Dim(2),
              w = x.Dim(3);
    const int out_c = w_.value.Dim(0);
    const int pad = kernel_ / 2;
    // Widen before multiplying: on large h*w (many tiers x long
    // histories) the products overflow int before the old code's
    // implicit widening to size_t could help.
    const int64_t hw64 = static_cast<int64_t>(h) * w;
    const int64_t ckk64 = static_cast<int64_t>(in_c) * kernel_ * kernel_;
    SINAN_CHECK_MSG(hw64 <= std::numeric_limits<int>::max() &&
                        ckk64 <= std::numeric_limits<int>::max(),
                    "Conv2D: per-sample plane too large (" << h << "x"
                        << w << ", " << in_c << " channels)");
    const int hw = static_cast<int>(hw64);
    const int ckk = static_cast<int>(ckk64);
    y.EnsureShape({batch, out_c, h, w});
    col.EnsureShape({batch, ckk, hw});

    // Phase 1 — im2col, laid out patch-major so the matmul's innermost
    // loop runs over contiguous output positions:
    //   col[b, (c, ki, kj), i*w + j] = x[b, c, i + ki - pad, j + kj - pad]
    // with zeros outside the image. A padding zero contributes exactly
    // 0.0f to the accumulation, so including it (instead of the old
    // bounds-check skip) leaves every sum bit-identical.
    ParallelFor(0, batch, GrainFor(ckk64 * hw64), [&](int64_t lo, int64_t hi) {
        for (int64_t bi = lo; bi < hi; ++bi) {
            const float* xb =
                x.Data() + static_cast<size_t>(bi) * in_c * hw;
            float* cb = col.Data() + static_cast<size_t>(bi) * ckk * hw;
            for (int c = 0; c < in_c; ++c) {
                const float* xc = xb + static_cast<size_t>(c) * hw;
                for (int ki = 0; ki < kernel_; ++ki) {
                    for (int kj = 0; kj < kernel_; ++kj) {
                        float* crow =
                            cb + (static_cast<size_t>(c) * kernel_ *
                                      kernel_ +
                                  static_cast<size_t>(ki) * kernel_ +
                                  static_cast<size_t>(kj)) *
                                     hw;
                        // Columns j with an in-bounds source sj = j +
                        // kj - pad form one contiguous run per row.
                        const int j0 = std::max(0, pad - kj);
                        const int j1 = std::min(w, w + pad - kj);
                        for (int i = 0; i < h; ++i) {
                            const int si = i + ki - pad;
                            float* dst = crow + static_cast<size_t>(i) * w;
                            if (si < 0 || si >= h) {
                                std::fill(dst, dst + w, 0.0f);
                                continue;
                            }
                            const float* srow =
                                xc + static_cast<size_t>(si) * w;
                            for (int j = 0; j < j0; ++j)
                                dst[j] = 0.0f;
                            for (int j = j0; j < j1; ++j)
                                dst[j] = srow[j + kj - pad];
                            for (int j = j1; j < w; ++j)
                                dst[j] = 0.0f;
                        }
                    }
                }
            }
        }
    });

    // Phase 2 — dispatched row-panel matmul: y[b, oc, :] = bias[oc] +
    // sum_p w[oc, p] * col[b, p, :]. Each (sample, oc-block) panel is
    // written by exactly one ParallelFor block (structure fixed by
    // kConvOcBlock), and per output element the terms accumulate in
    // ascending p = (c, ki, kj) — the naive kernel's order — with one
    // rounded mul-then-add per term in both the scalar and the AVX2
    // kernel, so results are bit-identical across kernels and thread
    // counts.
    const float* wp = w_.value.Data();
    const GemmRowsFn kern = ActiveGemmRows();
    const int64_t oc_blocks =
        (out_c + kConvOcBlock - 1) / kConvOcBlock;
    ParallelFor(0, batch * oc_blocks, GrainFor(kConvOcBlock * ckk64 * hw64),
                [&](int64_t lo, int64_t hi) {
        for (int64_t idx = lo; idx < hi; ++idx) {
            const int64_t bi = idx / oc_blocks;
            const int64_t oc0 = (idx % oc_blocks) * kConvOcBlock;
            const int64_t oc1 =
                std::min<int64_t>(out_c, oc0 + kConvOcBlock);
            const float* cb =
                col.Data() + static_cast<size_t>(bi) * ckk * hw;
            float* yb =
                y.Data() + static_cast<size_t>(bi) * out_c * hw;
            for (int64_t oc = oc0; oc < oc1; ++oc) {
                float* yrow = yb + oc * hw;
                std::fill(yrow, yrow + hw,
                          b_.value[static_cast<size_t>(oc)]);
            }
            kern(wp, ckk, cb, hw, yb, hw, oc0, oc1, ckk, hw);
        }
    });
}

Tensor
Conv2D::Backward(const Tensor& dy)
{
    const Tensor& x = x_cache_;
    const int batch = x.Dim(0), in_c = x.Dim(1), h = x.Dim(2),
              w = x.Dim(3);
    const int out_c = w_.value.Dim(0);
    SINAN_CHECK_EQ(dy.Rank(), 4);
    SINAN_CHECK_SHAPE(dy, batch, out_c, h, w);
    const int pad = kernel_ / 2;
    Tensor dx({batch, in_c, h, w});
    // Batch-blocked: dx writes are disjoint per sample; the shared
    // weight/bias gradients go into per-block partials reduced below in
    // block order. The block structure is fixed by kConvBatchGrain, so
    // 1-thread and N-thread runs sum in exactly the same order.
    const int64_t n_blocks =
        (batch + kConvBatchGrain - 1) / kConvBatchGrain;
    std::vector<Tensor> wg(n_blocks), bg(n_blocks);
    ParallelFor(0, batch, kConvBatchGrain, [&](int64_t lo, int64_t hi) {
        const int64_t blk = lo / kConvBatchGrain;
        Tensor wgrad(w_.grad.Shape());
        Tensor bgrad(b_.grad.Shape());
        for (int64_t b = lo; b < hi; ++b) {
            for (int oc = 0; oc < out_c; ++oc) {
                for (int i = 0; i < h; ++i) {
                    for (int j = 0; j < w; ++j) {
                        const float g =
                            dy.At(static_cast<int>(b), oc, i, j);
                        if (g == 0.0f)
                            continue;
                        bgrad[oc] += g;
                        for (int c = 0; c < in_c; ++c) {
                            for (int ki = 0; ki < kernel_; ++ki) {
                                const int si = i + ki - pad;
                                if (si < 0 || si >= h)
                                    continue;
                                for (int kj = 0; kj < kernel_; ++kj) {
                                    const int sj = j + kj - pad;
                                    if (sj < 0 || sj >= w)
                                        continue;
                                    wgrad.At(oc, c, ki, kj) +=
                                        g * x.At(static_cast<int>(b), c,
                                                 si, sj);
                                    dx.At(static_cast<int>(b), c, si,
                                          sj) +=
                                        g * w_.value.At(oc, c, ki, kj);
                                }
                            }
                        }
                    }
                }
            }
        }
        wg[blk] = std::move(wgrad);
        bg[blk] = std::move(bgrad);
    });
    for (int64_t blk = 0; blk < n_blocks; ++blk) {
        w_.grad.Add(wg[blk]);
        b_.grad.Add(bg[blk]);
    }
    return dx;
}

void
Conv2D::Save(std::ostream& out) const
{
    w_.value.Save(out);
    b_.value.Save(out);
}

void
Conv2D::Load(std::istream& in)
{
    w_ = Param(Tensor::Load(in));
    b_ = Param(Tensor::Load(in));
    kernel_ = w_.value.Dim(2);
}

Tensor
Flatten::Forward(const Tensor& x)
{
    in_shape_ = x.Shape();
    SINAN_CHECK_GE(x.Rank(), 2);
    int64_t rest = 1;
    for (int d = 1; d < x.Rank(); ++d)
        rest *= x.Dim(d);
    SINAN_CHECK_MSG(rest <= std::numeric_limits<int>::max(),
                    "Flatten: flattened extent overflows int (" << rest
                        << ")");
    return x.Reshaped({x.Dim(0), static_cast<int>(rest)});
}

Tensor
Flatten::Backward(const Tensor& dy)
{
    return dy.Reshaped(in_shape_);
}

} // namespace sinan
