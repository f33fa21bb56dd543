#include "tensor/tensor.h"

#include <atomic>
#include <cstdint>
#include <istream>
#include <numeric>
#include <ostream>
#include <stdexcept>

#include "common/check.h"
#include "common/parse.h"
#include "common/thread_pool.h"
#include "tensor/gemm_kernels.h"

namespace sinan {

namespace {

size_t
ShapeSize(const std::vector<int>& shape)
{
    size_t n = 1;
    for (int d : shape) {
        SINAN_CHECK_GE(d, 0);
        n *= static_cast<size_t>(d);
    }
    return shape.empty() ? 0 : n;
}

/** Buffer-acquisition counter behind Tensor::AllocationEvents().
 *  Relaxed: the tests that read it only need a per-thread-quiescent
 *  total, never ordering against other memory. */
std::atomic<uint64_t> g_alloc_events{0};

void
BumpAllocEvents()
{
    g_alloc_events.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

Tensor::Tensor(std::vector<int> shape)
    : shape_(std::move(shape)), data_(ShapeSize(shape_), 0.0f)
{
    if (!data_.empty())
        BumpAllocEvents();
}

Tensor::Tensor(const Tensor& other)
    : shape_(other.shape_), data_(other.data_)
{
    if (!data_.empty())
        BumpAllocEvents();
}

Tensor&
Tensor::operator=(const Tensor& other)
{
    if (this != &other) {
        if (other.data_.size() > data_.capacity())
            BumpAllocEvents();
        shape_ = other.shape_;
        data_ = other.data_;
    }
    return *this;
}

uint64_t
Tensor::AllocationEvents()
{
    return g_alloc_events.load(std::memory_order_relaxed);
}

Tensor
Tensor::FromVector(const std::vector<float>& values)
{
    Tensor t({static_cast<int>(values.size())});
    for (size_t i = 0; i < values.size(); ++i)
        t[i] = values[i];
    return t;
}

Tensor
Tensor::Randn(std::vector<int> shape, Rng& rng, float stddev)
{
    Tensor t(std::move(shape));
    for (size_t i = 0; i < t.Size(); ++i)
        t[i] = static_cast<float>(rng.Normal(0.0, stddev));
    return t;
}

int
Tensor::Dim(int d) const
{
    if (d < 0 || d >= Rank())
        throw std::out_of_range("Tensor::Dim");
    return shape_[d];
}

size_t
Tensor::Offset2(int i, int j) const
{
    return static_cast<size_t>(i) * shape_[1] + j;
}

size_t
Tensor::Offset3(int i, int j, int k) const
{
    return (static_cast<size_t>(i) * shape_[1] + j) * shape_[2] + k;
}

size_t
Tensor::Offset4(int i, int j, int k, int l) const
{
    return ((static_cast<size_t>(i) * shape_[1] + j) * shape_[2] + k) *
               shape_[3] +
           l;
}

Tensor
Tensor::Reshaped(std::vector<int> shape) const
{
    SINAN_CHECK_EQ(ShapeSize(shape), Size());
    Tensor t;
    t.shape_ = std::move(shape);
    t.data_ = data_;
    if (!t.data_.empty())
        BumpAllocEvents();
    return t;
}

void
Tensor::ReshapeInPlace(const std::vector<int>& shape)
{
    SINAN_CHECK_EQ(ShapeSize(shape), Size());
    shape_ = shape;
}

void
Tensor::EnsureShape(const std::vector<int>& shape)
{
    if (shape_ == shape)
        return;
    const size_t n = ShapeSize(shape);
    if (n > data_.capacity()) {
        BumpAllocEvents();
        // Pad fresh workspace allocations to a full 8-float SIMD lane:
        // the microkernels use unaligned loads and scalar tails, so
        // this is not a correctness requirement, but the rounded
        // capacity absorbs the +/- few-element shape wobble between
        // candidate batches without reallocating.
        data_.reserve((n + 7) & ~static_cast<size_t>(7));
    }
    shape_ = shape;
    data_.resize(n);
}

void
Tensor::Fill(float v)
{
    std::fill(data_.begin(), data_.end(), v);
}

void
Tensor::Scale(float s)
{
    for (float& v : data_)
        v *= s;
}

void
Tensor::Add(const Tensor& other)
{
    SINAN_CHECK_EQ(other.Size(), Size());
    for (size_t i = 0; i < data_.size(); ++i)
        data_[i] += other.data_[i];
}

void
Tensor::Axpy(float alpha, const Tensor& other)
{
    SINAN_CHECK_EQ(other.Size(), Size());
    for (size_t i = 0; i < data_.size(); ++i)
        data_[i] += alpha * other.data_[i];
}

double
Tensor::Sum() const
{
    return std::accumulate(data_.begin(), data_.end(), 0.0);
}

void
Tensor::Save(std::ostream& out) const
{
    const int32_t rank = Rank();
    out.write(reinterpret_cast<const char*>(&rank), sizeof(rank));
    for (int d : shape_) {
        const int32_t v = d;
        out.write(reinterpret_cast<const char*>(&v), sizeof(v));
    }
    out.write(reinterpret_cast<const char*>(data_.data()),
              static_cast<std::streamsize>(data_.size() * sizeof(float)));
}

Tensor
Tensor::Load(std::istream& in)
{
    int32_t rank = 0;
    in.read(reinterpret_cast<char*>(&rank), sizeof(rank));
    if (!in || rank < 0 || rank > 8)
        throw std::runtime_error("Tensor::Load: corrupt header");
    std::vector<int> shape(rank);
    uint64_t count = 1;
    for (int i = 0; i < rank; ++i) {
        int32_t v = 0;
        in.read(reinterpret_cast<char*>(&v), sizeof(v));
        if (!in || v < 0)
            throw std::runtime_error("Tensor::Load: corrupt header");
        shape[i] = v;
        if (v != 0 && count > UINT64_MAX / sizeof(float) /
                                  static_cast<uint64_t>(v))
            throw std::runtime_error("Tensor::Load: corrupt header");
        count *= static_cast<uint64_t>(v);
    }
    // Bound the claimed payload by what the stream still holds before
    // allocating it, so a hostile header cannot make Load zero-fill
    // gigabytes just to report truncation.
    if (!StreamHolds(in, rank == 0 ? 0 : count * sizeof(float)))
        throw std::runtime_error("Tensor::Load: truncated data");
    Tensor t(shape);
    in.read(reinterpret_cast<char*>(t.Data()),
            static_cast<std::streamsize>(t.Size() * sizeof(float)));
    if (!in)
        throw std::runtime_error("Tensor::Load: truncated data");
    return t;
}

namespace {

void
CheckMatmul(const Tensor& a, const Tensor& b, const Tensor& c, int m,
            int k, int k2, int n)
{
    SINAN_CHECK_MSG(a.Rank() == 2 && b.Rank() == 2 && c.Rank() == 2,
                    "MatMul: rank-2 tensors required (ranks "
                        << a.Rank() << ", " << b.Rank() << ", "
                        << c.Rank() << ")");
    SINAN_CHECK_MSG(k == k2, "MatMul: inner dimension mismatch ("
                                 << k << " vs " << k2 << ")");
    SINAN_CHECK_SHAPE(c, m, n);
}

} // namespace

void
MatMul(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate)
{
    SINAN_CHECK_MSG(a.Rank() == 2 && b.Rank() == 2 && c.Rank() == 2,
                    "MatMul: rank-2 tensors required");
    const int m = a.Dim(0), k = a.Dim(1), n = b.Dim(1);
    CheckMatmul(a, b, c, m, k, b.Dim(0), n);
    if (!accumulate)
        c.Fill(0.0f);
    const float* ap = a.Data();
    const float* bp = b.Data();
    float* cp = c.Data();
    // Row-blocked over C (disjoint per block, structure fixed by
    // GrainFor) with the dispatched row-panel kernel inside: scalar
    // and AVX2 share the ascending-p mul-then-add contract, so the
    // result is bit-identical across kernels and thread counts.
    const GemmRowsFn kern = ActiveGemmRows();
    ParallelFor(0, m, GrainFor(int64_t{k} * n), [&](int64_t lo, int64_t hi) {
        kern(ap, k, bp, n, cp, n, lo, hi, k, n);
    });
}

void
MatMulTa(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate)
{
    SINAN_CHECK_MSG(a.Rank() == 2 && b.Rank() == 2 && c.Rank() == 2,
                    "MatMulTa: rank-2 tensors required");
    const int k = a.Dim(0), m = a.Dim(1), n = b.Dim(1);
    CheckMatmul(a, b, c, m, k, b.Dim(0), n);
    if (!accumulate)
        c.Fill(0.0f);
    const float* ap = a.Data();
    const float* bp = b.Data();
    float* cp = c.Data();
    // Row-blocked over C so concurrent blocks never share an output
    // row; per-element accumulation stays in increasing-p order, so the
    // result is bit-identical at any thread count.
    ParallelFor(0, m, GrainFor(int64_t{k} * n), [&](int64_t lo, int64_t hi) {
        for (int p = 0; p < k; ++p) {
            const float* arow = ap + static_cast<size_t>(p) * m;
            const float* brow = bp + static_cast<size_t>(p) * n;
            for (int64_t i = lo; i < hi; ++i) {
                const float av = arow[i];
                float* crow = cp + static_cast<size_t>(i) * n;
                for (int j = 0; j < n; ++j)
                    crow[j] += av * brow[j];
            }
        }
    });
}

void
MatMulTb(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate)
{
    SINAN_CHECK_MSG(a.Rank() == 2 && b.Rank() == 2 && c.Rank() == 2,
                    "MatMulTb: rank-2 tensors required");
    const int m = a.Dim(0), k = a.Dim(1), n = b.Dim(0);
    CheckMatmul(a, b, c, m, k, b.Dim(1), n);
    if (!accumulate)
        c.Fill(0.0f);
    const float* ap = a.Data();
    const float* bp = b.Data();
    float* cp = c.Data();
    ParallelFor(0, m, GrainFor(int64_t{k} * n), [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
            const float* arow = ap + static_cast<size_t>(i) * k;
            float* crow = cp + static_cast<size_t>(i) * n;
            for (int j = 0; j < n; ++j) {
                const float* brow = bp + static_cast<size_t>(j) * k;
                float acc = 0.0f;
                for (int p = 0; p < k; ++p)
                    acc += arow[p] * brow[p];
                crow[j] += acc;
            }
        }
    });
}

} // namespace sinan
