/**
 * @file
 * Tests for the NN substrate. The load-bearing checks are numerical
 * gradient verifications (central differences) for every layer and loss,
 * plus end-to-end "SGD learns a simple function" trainability tests.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <sstream>

#include "common/cpu_features.h"
#include "common/thread_pool.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/lstm.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"

namespace sinan {
namespace {

/**
 * Verifies layer gradients numerically: perturbs every parameter and a
 * sample of input entries, comparing (L(x+h)-L(x-h))/2h against the
 * analytic gradients, where L = sum of squared outputs / 2 so that
 * dL/dy = y.
 */
void
CheckGradients(Layer& layer, const Tensor& x, double tol = 2e-2)
{
    auto loss_of = [&](const Tensor& in) {
        const Tensor y = layer.Forward(in);
        double acc = 0.0;
        for (size_t i = 0; i < y.Size(); ++i) {
            const double v = static_cast<double>(y[i]);
            acc += 0.5 * v * v;
        }
        return acc;
    };

    // Analytic gradients.
    const Tensor y = layer.Forward(x);
    for (Param* p : layer.Params())
        p->ZeroGrad();
    const Tensor dx = layer.Backward(y); // dL/dy = y

    constexpr float kH = 1e-3f;

    // Input gradient (sample up to 24 entries).
    Tensor xp = x;
    const size_t stride = std::max<size_t>(1, x.Size() / 24);
    for (size_t i = 0; i < x.Size(); i += stride) {
        const float orig = xp[i];
        xp[i] = orig + kH;
        const double up = loss_of(xp);
        xp[i] = orig - kH;
        const double down = loss_of(xp);
        xp[i] = orig;
        const double num =
            (up - down) / (2.0 * static_cast<double>(kH));
        EXPECT_NEAR(num, dx[i], tol * std::max(1.0, std::abs(num)))
            << "input grad mismatch at " << i;
    }

    // Parameter gradients (sample up to 24 entries per param).
    // Re-establish the analytic gradients (loss_of calls clobbered the
    // forward cache).
    (void)layer.Forward(x);
    for (Param* p : layer.Params())
        p->ZeroGrad();
    (void)layer.Backward(layer.Forward(x));
    for (Param* p : layer.Params()) {
        const size_t pstride = std::max<size_t>(1, p->value.Size() / 24);
        for (size_t i = 0; i < p->value.Size(); i += pstride) {
            const float orig = p->value[i];
            p->value[i] = orig + kH;
            const double up = loss_of(x);
            p->value[i] = orig - kH;
            const double down = loss_of(x);
            p->value[i] = orig;
            const double num =
                (up - down) / (2.0 * static_cast<double>(kH));
            EXPECT_NEAR(num, p->grad[i],
                        tol * std::max(1.0, std::abs(num)))
                << "param grad mismatch at " << i;
        }
    }
}

TEST(Dense, ForwardMatchesHandComputation)
{
    Rng rng(1);
    Dense d(2, 2, rng);
    // Overwrite weights with known values: y = xW + b.
    Param* w = d.Params()[0];
    Param* b = d.Params()[1];
    w->value.At(0, 0) = 1.0f;
    w->value.At(0, 1) = 2.0f;
    w->value.At(1, 0) = 3.0f;
    w->value.At(1, 1) = 4.0f;
    b->value[0] = 0.5f;
    b->value[1] = -0.5f;
    Tensor x({1, 2});
    x.At(0, 0) = 1.0f;
    x.At(0, 1) = 2.0f;
    const Tensor y = d.Forward(x);
    EXPECT_FLOAT_EQ(y.At(0, 0), 7.5f);  // 1*1 + 2*3 + 0.5
    EXPECT_FLOAT_EQ(y.At(0, 1), 9.5f);  // 1*2 + 2*4 - 0.5
}

TEST(Dense, GradientsMatchNumerics)
{
    Rng rng(2);
    Dense d(4, 3, rng);
    const Tensor x = Tensor::Randn({5, 4}, rng);
    CheckGradients(d, x);
}

TEST(Dense, RejectsBadShapes)
{
    Rng rng(1);
    Dense d(3, 2, rng);
    EXPECT_THROW(d.Forward(Tensor({2, 4})), std::invalid_argument);
    EXPECT_THROW(Dense(0, 2, rng), std::invalid_argument);
}

TEST(Dense, SharedPrefixForwardIsBitIdenticalToConcatenatedRows)
{
    // fc_latent's shape: [rh 48 | lh 24] shared by every row, then each
    // row's own 24 columns. The hoisted prefix must reproduce
    // ForwardInto on the concatenated rows bit for bit, under both
    // kernels, with one row and with enough rows to split into several
    // blocks at 4 threads.
    const SimdMode saved_simd = CurrentSimdMode();
    const int saved_threads = NumThreads();
    Rng rng(71);
    Dense d(96, 32, rng);
    const Tensor rh = Tensor::Randn({1, 48}, rng);
    const Tensor lh = Tensor::Randn({1, 24}, rng);
    for (const int batch : {1, 7, 2000}) {
        const Tensor rc = Tensor::Randn({batch, 24}, rng);
        Tensor concat({batch, 96});
        for (int i = 0; i < batch; ++i) {
            for (int j = 0; j < 48; ++j)
                concat.At(i, j) = rh.At(0, j);
            for (int j = 0; j < 24; ++j) {
                concat.At(i, 48 + j) = lh.At(0, j);
                concat.At(i, 72 + j) = rc.At(i, j);
            }
        }
        for (const SimdMode mode : {SimdMode::kOff, SimdMode::kOn}) {
            SetSimdMode(mode);
            SetNumThreads(4);
            Tensor want, got, prefix;
            d.ForwardInto(concat, want);
            d.ForwardSharedPrefixInto({&rh, &lh}, rc, prefix, got);
            ASSERT_EQ(got.Size(), want.Size());
            EXPECT_EQ(std::memcmp(got.Data(), want.Data(),
                                  want.Size() * sizeof(float)),
                      0)
                << batch << " rows, " << ActiveKernelId();
        }
    }
    EXPECT_GT(2000, GrainFor(24 * 32)) << "the continuation no longer splits";
    SetSimdMode(saved_simd);
    SetNumThreads(saved_threads);
}

TEST(ReLU, ForwardClampsAndBackwardMasks)
{
    ReLU r;
    Tensor x({1, 4});
    x[0] = -1.0f; x[1] = 2.0f; x[2] = 0.0f; x[3] = 3.0f;
    const Tensor y = r.Forward(x);
    EXPECT_EQ(y[0], 0.0f);
    EXPECT_EQ(y[1], 2.0f);
    Tensor dy({1, 4});
    dy.Fill(1.0f);
    const Tensor dx = r.Backward(dy);
    EXPECT_EQ(dx[0], 0.0f);
    EXPECT_EQ(dx[1], 1.0f);
    EXPECT_EQ(dx[3], 1.0f);
}

TEST(Conv2D, IdentityKernelPassesThrough)
{
    Rng rng(3);
    Conv2D conv(1, 1, 3, rng);
    Param* w = conv.Params()[0];
    Param* b = conv.Params()[1];
    w->value.Fill(0.0f);
    w->value.At(0, 0, 1, 1) = 1.0f; // center tap
    b->value.Fill(0.0f);
    Tensor x({1, 1, 4, 4});
    for (size_t i = 0; i < x.Size(); ++i)
        x[i] = static_cast<float>(i);
    const Tensor y = conv.Forward(x);
    for (size_t i = 0; i < x.Size(); ++i)
        EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2D, SamePaddingZerosOutsideBorders)
{
    Rng rng(3);
    Conv2D conv(1, 1, 3, rng);
    Param* w = conv.Params()[0];
    Param* b = conv.Params()[1];
    w->value.Fill(1.0f); // box filter
    b->value.Fill(0.0f);
    Tensor x({1, 1, 3, 3});
    x.Fill(1.0f);
    const Tensor y = conv.Forward(x);
    EXPECT_FLOAT_EQ(y.At(0, 0, 1, 1), 9.0f); // full 3x3 neighborhood
    EXPECT_FLOAT_EQ(y.At(0, 0, 0, 0), 4.0f); // corner sees 2x2
}

TEST(Conv2D, GradientsMatchNumerics)
{
    Rng rng(4);
    Conv2D conv(2, 3, 3, rng);
    const Tensor x = Tensor::Randn({2, 2, 5, 4}, rng);
    CheckGradients(conv, x);
}

TEST(Conv2D, RejectsEvenKernel)
{
    Rng rng(1);
    EXPECT_THROW(Conv2D(1, 1, 2, rng), std::invalid_argument);
}

TEST(Flatten, RoundTripsShape)
{
    Flatten f;
    Tensor x({2, 3, 4});
    const Tensor y = f.Forward(x);
    EXPECT_EQ(y.Shape(), (std::vector<int>{2, 12}));
    const Tensor back = f.Backward(y);
    EXPECT_EQ(back.Shape(), (std::vector<int>{2, 3, 4}));
}

TEST(Lstm, GradientsMatchNumerics)
{
    Rng rng(5);
    Lstm lstm(3, 4, rng);
    const Tensor x = Tensor::Randn({2, 4, 3}, rng);
    CheckGradients(lstm, x, 3e-2);
}

TEST(Lstm, OutputShapeIsLastHidden)
{
    Rng rng(5);
    Lstm lstm(3, 6, rng);
    const Tensor y = lstm.Forward(Tensor::Randn({4, 5, 3}, rng));
    EXPECT_EQ(y.Shape(), (std::vector<int>{4, 6}));
}

TEST(Sequential, ChainsLayersAndCollectsParams)
{
    Rng rng(6);
    Sequential seq;
    seq.Emplace<Dense>(4, 8, rng);
    seq.Emplace<ReLU>();
    seq.Emplace<Dense>(8, 2, rng);
    EXPECT_EQ(seq.NumLayers(), 3u);
    EXPECT_EQ(seq.Params().size(), 4u);
    EXPECT_EQ(seq.NumParams(), 4u * 8u + 8u + 8u * 2u + 2u);
    const Tensor y = seq.Forward(Tensor::Randn({3, 4}, rng));
    EXPECT_EQ(y.Shape(), (std::vector<int>{3, 2}));
}

TEST(Sequential, SaveLoadReproducesOutputs)
{
    Rng rng(7);
    Sequential a;
    a.Emplace<Dense>(3, 5, rng);
    a.Emplace<ReLU>();
    a.Emplace<Dense>(5, 2, rng);
    const Tensor x = Tensor::Randn({2, 3}, rng);
    const Tensor y1 = a.Forward(x);

    std::stringstream ss;
    a.Save(ss);
    Rng rng2(999);
    Sequential b;
    b.Emplace<Dense>(3, 5, rng2);
    b.Emplace<ReLU>();
    b.Emplace<Dense>(5, 2, rng2);
    b.Load(ss);
    const Tensor y2 = b.Forward(x);
    for (size_t i = 0; i < y1.Size(); ++i)
        EXPECT_FLOAT_EQ(y1[i], y2[i]);
}

TEST(ScalePhi, IdentityBelowKneeCompressedAbove)
{
    EXPECT_DOUBLE_EQ(ScalePhi(50.0, 100.0, 0.01), 50.0);
    EXPECT_DOUBLE_EQ(ScalePhi(100.0, 100.0, 0.01), 100.0);
    // Above the knee: compressed but monotone and bounded by t + 1/a.
    const double v1 = ScalePhi(200.0, 100.0, 0.01);
    const double v2 = ScalePhi(400.0, 100.0, 0.01);
    EXPECT_GT(v1, 100.0);
    EXPECT_GT(v2, v1);
    EXPECT_LT(v2, 100.0 + 1.0 / 0.01);
    // Continuity at the knee.
    EXPECT_NEAR(ScalePhi(100.0 + 1e-9, 100.0, 0.01), 100.0, 1e-6);
}

TEST(ScalePhi, LargerAlphaCompressesMore)
{
    const double a = ScalePhi(300.0, 100.0, 0.005);
    const double b = ScalePhi(300.0, 100.0, 0.02);
    EXPECT_GT(a, b);
}

TEST(ScalePhiGrad, MatchesNumericalDerivative)
{
    for (double x : {50.0, 150.0, 400.0}) {
        const double h = 1e-5;
        const double num = (ScalePhi(x + h, 100.0, 0.01) -
                            ScalePhi(x - h, 100.0, 0.01)) /
                           (2 * h);
        EXPECT_NEAR(ScalePhiGrad(x, 100.0, 0.01), num, 1e-6);
    }
}

TEST(MseLoss, ValueAndGradient)
{
    Tensor pred({1, 2}), target({1, 2});
    pred[0] = 1.0f; pred[1] = 3.0f;
    target[0] = 0.0f; target[1] = 1.0f;
    const LossResult r = MseLoss(pred, target);
    EXPECT_NEAR(r.value, (1.0 + 4.0) / 2.0, 1e-6);
    EXPECT_NEAR(r.grad[0], 2.0 * 1.0 / 2.0, 1e-6);
    EXPECT_NEAR(r.grad[1], 2.0 * 2.0 / 2.0, 1e-6);
    EXPECT_THROW(MseLoss(pred, Tensor({3})), std::invalid_argument);
}

TEST(ScaledMseLoss, GradientMatchesNumerics)
{
    Rng rng(8);
    Tensor pred({2, 3});
    Tensor target({2, 3});
    for (size_t i = 0; i < pred.Size(); ++i) {
        pred[i] = static_cast<float>(rng.Uniform(0.0, 3.0));
        target[i] = static_cast<float>(rng.Uniform(0.0, 3.0));
    }
    const LossResult r = ScaledMseLoss(pred, target, 1.0, 5.0);
    constexpr float kH = 1e-3f;
    for (size_t i = 0; i < pred.Size(); ++i) {
        Tensor p = pred;
        p[i] += kH;
        const double up = ScaledMseLoss(p, target, 1.0, 5.0).value;
        p[i] -= 2 * kH;
        const double down = ScaledMseLoss(p, target, 1.0, 5.0).value;
        EXPECT_NEAR((up - down) / (2.0 * static_cast<double>(kH)),
                    r.grad[i], 2e-3);
    }
}

TEST(ScaledMseLoss, DownweightsErrorsAboveKnee)
{
    Tensor pred({1, 1}), target({1, 1});
    // Same absolute error below vs above the knee.
    pred[0] = 0.5f;
    target[0] = 0.7f;
    const double below = ScaledMseLoss(pred, target, 1.0, 5.0).value;
    pred[0] = 3.0f;
    target[0] = 3.2f;
    const double above = ScaledMseLoss(pred, target, 1.0, 5.0).value;
    EXPECT_LT(above, below);
}

TEST(BceWithLogitsLoss, MatchesReferenceValues)
{
    Tensor logits({1, 2}), target({1, 2});
    logits[0] = 0.0f; logits[1] = 2.0f;
    target[0] = 1.0f; target[1] = 0.0f;
    const LossResult r = BceWithLogitsLoss(logits, target);
    const double expected =
        (std::log(2.0) + (std::log1p(std::exp(-2.0)) + 2.0)) / 2.0;
    EXPECT_NEAR(r.value, expected, 1e-6);
    // Gradient = (sigmoid(z) - y) / n.
    EXPECT_NEAR(r.grad[0], (0.5 - 1.0) / 2.0, 1e-6);
    EXPECT_NEAR(r.grad[1], (1.0 / (1.0 + std::exp(-2.0))) / 2.0, 1e-6);
}

TEST(BceWithLogitsLoss, GradientMatchesNumerics)
{
    Tensor logits({1, 3}), target({1, 3});
    logits[0] = -1.5f; logits[1] = 0.3f; logits[2] = 4.0f;
    target[0] = 0.0f; target[1] = 1.0f; target[2] = 1.0f;
    const LossResult r = BceWithLogitsLoss(logits, target);
    constexpr float kH = 1e-3f;
    for (size_t i = 0; i < logits.Size(); ++i) {
        Tensor l = logits;
        l[i] += kH;
        const double up = BceWithLogitsLoss(l, target).value;
        l[i] -= 2 * kH;
        const double down = BceWithLogitsLoss(l, target).value;
        EXPECT_NEAR((up - down) / (2.0 * static_cast<double>(kH)),
                    r.grad[i], 1e-4);
    }
}

TEST(Sgd, LearnsLinearRegression)
{
    // y = 2x - 1 learned by a single Dense layer.
    Rng rng(10);
    Dense d(1, 1, rng);
    Sgd sgd(d.Params(), 0.05, 0.9, 0.0);
    for (int step = 0; step < 400; ++step) {
        Tensor x({8, 1}), y({8, 1});
        for (int i = 0; i < 8; ++i) {
            const float v = static_cast<float>(rng.Uniform(-1.0, 1.0));
            x.At(i, 0) = v;
            y.At(i, 0) = 2.0f * v - 1.0f;
        }
        const Tensor pred = d.Forward(x);
        const LossResult loss = MseLoss(pred, y);
        sgd.ZeroGrad();
        d.Backward(loss.grad);
        sgd.Step();
    }
    EXPECT_NEAR(d.Params()[0]->value[0], 2.0f, 0.05);
    EXPECT_NEAR(d.Params()[1]->value[0], -1.0f, 0.05);
}

TEST(Sgd, WeightDecayShrinksIdleWeights)
{
    Rng rng(11);
    Dense d(2, 2, rng);
    const float before = std::abs(d.Params()[0]->value[0]);
    Sgd sgd(d.Params(), 0.1, 0.0, 0.1);
    for (int i = 0; i < 50; ++i) {
        sgd.ZeroGrad();
        sgd.Step(); // zero gradients: only decay acts
    }
    EXPECT_LT(std::abs(d.Params()[0]->value[0]), before);
}

TEST(Sgd, RejectsBadLearningRate)
{
    Rng rng(1);
    Dense d(1, 1, rng);
    EXPECT_THROW(Sgd(d.Params(), 0.0), std::invalid_argument);
}

/** Property: one SGD step along the gradient reduces loss for any seed. */
class SgdDescentTest : public ::testing::TestWithParam<int> {};

TEST_P(SgdDescentTest, SingleStepReducesLoss)
{
    Rng rng(static_cast<uint64_t>(GetParam()));
    Sequential net;
    net.Emplace<Dense>(3, 6, rng);
    net.Emplace<ReLU>();
    net.Emplace<Dense>(6, 1, rng);
    const Tensor x = Tensor::Randn({16, 3}, rng);
    Tensor y({16, 1});
    for (int i = 0; i < 16; ++i)
        y.At(i, 0) = static_cast<float>(rng.Uniform(-1.0, 1.0));

    Sgd sgd(net.Params(), 0.01, 0.0, 0.0);
    const LossResult before = MseLoss(net.Forward(x), y);
    sgd.ZeroGrad();
    net.Backward(before.grad);
    sgd.Step();
    const LossResult after = MseLoss(net.Forward(x), y);
    EXPECT_LT(after.value, before.value);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SgdDescentTest, ::testing::Range(1, 11));

/** Forward then Backward (dL/dy = y) of a freshly built layer at
 *  @p threads threads: the output, the input gradient and every
 *  parameter gradient, concatenated. */
template <typename MakeLayer>
std::vector<float>
ForwardBackwardAt(int threads, const MakeLayer& make, const Tensor& x)
{
    SetNumThreads(threads);
    auto layer = make();
    const Tensor y = layer.Forward(x);
    for (Param* p : layer.Params())
        p->ZeroGrad();
    const Tensor dx = layer.Backward(y);
    std::vector<float> out(y.Data(), y.Data() + y.Size());
    out.insert(out.end(), dx.Data(), dx.Data() + dx.Size());
    for (Param* p : layer.Params())
        out.insert(out.end(), p->grad.Data(), p->grad.Data() + p->grad.Size());
    return out;
}

TEST(LayerParity, MultiBlockDenseAndConvBitIdenticalAcrossThreadCounts)
{
    // Batches large enough that the layers' own ParallelFor loops (bias
    // add, bias gradient, im2col, panel GEMM) and the matmuls they call
    // split into several GrainFor blocks.
    const int saved = NumThreads();
    Rng rng(61);
    {
        const int batch = 9000, in = 8, out = 64;
        ASSERT_GT(batch, GrainFor(out)) << "bias add no longer splits";
        ASSERT_GT(out, GrainFor(batch)) << "bias grad no longer splits";
        const Tensor x = Tensor::Randn({batch, in}, rng);
        auto make = [&] {
            Rng init(62);
            return Dense(in, out, init);
        };
        const std::vector<float> ref = ForwardBackwardAt(1, make, x);
        for (int threads : {2, 8})
            ASSERT_EQ(ForwardBackwardAt(threads, make, x), ref)
                << "Dense, threads=" << threads;
    }
    {
        const int batch = 128, in_c = 4, out_c = 16, side = 16;
        ASSERT_GT(batch, GrainFor(int64_t{in_c} * 9 * side * side))
            << "im2col no longer splits";
        const Tensor x = Tensor::Randn({batch, in_c, side, side}, rng);
        auto make = [&] {
            Rng init(63);
            return Conv2D(in_c, out_c, 3, init);
        };
        const std::vector<float> ref = ForwardBackwardAt(1, make, x);
        for (int threads : {2, 8})
            ASSERT_EQ(ForwardBackwardAt(threads, make, x), ref)
                << "Conv2D, threads=" << threads;
    }
    SetNumThreads(saved);
}

} // namespace
} // namespace sinan
