/**
 * @file
 * Tests for the boosted-trees substrate: learning power on synthetic
 * tasks, early stopping, serialization and its validation against
 * corrupt streams, importance attribution, probability calibration
 * basics, and bit parity of the batch tree kernels with per-row
 * Predict.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <sstream>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "gbt/boosted_trees.h"

// Largest single operator-new request while g_track_allocs is set: the
// Load hardening tests use it to show that a hostile size field is
// rejected before anything of that size is allocated. While armed, a
// request above kAllocRefusal is refused, so a regression fails with
// std::bad_alloc instead of touching gigabytes. Kept out of line so the
// compiler never pairs an inlined malloc with a new-expression.
namespace {
std::atomic<bool> g_track_allocs{false};
std::atomic<size_t> g_largest_alloc{0};
constexpr size_t kAllocRefusal = size_t{1} << 26;
} // namespace

[[gnu::noinline]] void*
operator new(size_t n)
{
    if (g_track_allocs.load(std::memory_order_relaxed)) {
        size_t seen = g_largest_alloc.load(std::memory_order_relaxed);
        while (n > seen &&
               !g_largest_alloc.compare_exchange_weak(seen, n)) {
        }
        if (n > kAllocRefusal)
            throw std::bad_alloc();
    }
    if (void* p = std::malloc(n > 0 ? n : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void* p, size_t) noexcept
{
    std::free(p);
}

namespace sinan {
namespace {

/** Labels = 1 iff x0 > 0.5 (single informative feature out of 4). */
GbtDataset
ThresholdDataset(int n, uint64_t seed)
{
    Rng rng(seed);
    GbtDataset d;
    for (int i = 0; i < n; ++i) {
        std::vector<float> row(4);
        for (float& v : row)
            v = static_cast<float>(rng.Uniform());
        d.AddRow(row, row[0] > 0.5f ? 1.0f : 0.0f);
    }
    return d;
}

/** Labels = XOR(x0>0.5, x1>0.5) — requires depth-2 interaction; the
 *  other @p n_features - 2 features are noise. */
GbtDataset
XorDataset(int n, uint64_t seed, int n_features = 4)
{
    Rng rng(seed);
    GbtDataset d;
    for (int i = 0; i < n; ++i) {
        std::vector<float> row(static_cast<size_t>(n_features));
        for (float& v : row)
            v = static_cast<float>(rng.Uniform());
        const bool a = row[0] > 0.5f, b = row[1] > 0.5f;
        d.AddRow(row, (a != b) ? 1.0f : 0.0f);
    }
    return d;
}

double
Accuracy(const BoostedTrees& model, const GbtDataset& d)
{
    int ok = 0;
    for (int i = 0; i < d.n_rows; ++i) {
        const double p =
            model.Predict(&d.x[static_cast<size_t>(i) * d.n_features]);
        if ((p >= 0.5) == (d.y[i] >= 0.5f))
            ++ok;
    }
    return static_cast<double>(ok) / d.n_rows;
}

TEST(BoostedTrees, RejectsBadConfigAndData)
{
    GbtConfig bad;
    bad.n_trees = 0;
    EXPECT_THROW(BoostedTrees{bad}, std::invalid_argument);
    bad = GbtConfig{};
    bad.max_bins = 1;
    EXPECT_THROW(BoostedTrees{bad}, std::invalid_argument);

    BoostedTrees model;
    GbtDataset empty;
    EXPECT_THROW(model.Train(empty), std::invalid_argument);
}

TEST(BoostedTrees, LearnsThresholdFunction)
{
    BoostedTrees model;
    const GbtDataset train = ThresholdDataset(2000, 1);
    const GbtDataset test = ThresholdDataset(500, 2);
    model.Train(train);
    EXPECT_GT(Accuracy(model, train), 0.98);
    EXPECT_GT(Accuracy(model, test), 0.96);
}

TEST(BoostedTrees, LearnsXorInteraction)
{
    GbtConfig cfg;
    cfg.max_depth = 3;
    cfg.n_trees = 150;
    BoostedTrees model(cfg);
    const GbtDataset train = XorDataset(3000, 3);
    const GbtDataset test = XorDataset(800, 4);
    model.Train(train);
    EXPECT_GT(Accuracy(model, test), 0.93);
}

TEST(BoostedTrees, ProbabilitiesAreCalibratedAtExtremes)
{
    BoostedTrees model;
    model.Train(ThresholdDataset(2000, 5));
    std::vector<float> clearly_pos = {0.95f, 0.5f, 0.5f, 0.5f};
    std::vector<float> clearly_neg = {0.05f, 0.5f, 0.5f, 0.5f};
    EXPECT_GT(model.Predict(clearly_pos), 0.9);
    EXPECT_LT(model.Predict(clearly_neg), 0.1);
}

TEST(BoostedTrees, FeatureImportanceConcentratesOnInformativeFeature)
{
    BoostedTrees model;
    model.Train(ThresholdDataset(2000, 6));
    const std::vector<double> imp = model.FeatureImportance();
    ASSERT_EQ(imp.size(), 4u);
    EXPECT_GT(imp[0], 10.0 * (imp[1] + imp[2] + imp[3] + 1e-9));
}

TEST(BoostedTrees, EarlyStoppingKeepsBestRound)
{
    GbtConfig with_stop;
    with_stop.n_trees = 400;
    with_stop.early_stop_rounds = 5;
    BoostedTrees stopped(with_stop);
    const GbtDataset train = ThresholdDataset(1000, 7);
    const GbtDataset valid = ThresholdDataset(300, 8);
    stopped.Train(train, &valid);
    EXPECT_LT(stopped.NumTrees(), 400);
    EXPECT_GT(stopped.NumTrees(), 0);
    EXPECT_GT(Accuracy(stopped, valid), 0.95);
}

TEST(BoostedTrees, NoValidationSetRunsAllRounds)
{
    GbtConfig cfg;
    cfg.n_trees = 25;
    BoostedTrees model(cfg);
    model.Train(ThresholdDataset(500, 9));
    EXPECT_EQ(model.NumTrees(), 25);
}

TEST(BoostedTrees, RegressionObjectiveLearnsLinearTarget)
{
    Rng rng(10);
    GbtDataset train;
    for (int i = 0; i < 3000; ++i) {
        std::vector<float> row = {
            static_cast<float>(rng.Uniform()),
            static_cast<float>(rng.Uniform()),
        };
        train.AddRow(row, 3.0f * row[0] + row[1]);
    }
    GbtConfig cfg;
    cfg.n_trees = 150;
    cfg.learning_rate = 0.2;
    BoostedTrees model(cfg, BoostedTrees::Objective::kSquared);
    model.Train(train);
    double se = 0.0;
    for (int i = 0; i < train.n_rows; ++i) {
        const double pred = model.Predict(&train.x[i * 2]);
        const double d = pred - static_cast<double>(train.y[i]);
        se += d * d;
    }
    EXPECT_LT(std::sqrt(se / train.n_rows), 0.2);
}

TEST(BoostedTrees, SaveLoadRoundTripsPredictions)
{
    BoostedTrees model;
    const GbtDataset train = ThresholdDataset(800, 11);
    model.Train(train);
    std::stringstream ss;
    model.Save(ss);
    BoostedTrees loaded;
    loaded.Load(ss);
    EXPECT_EQ(loaded.NumTrees(), model.NumTrees());
    for (int i = 0; i < 50; ++i) {
        EXPECT_DOUBLE_EQ(
            loaded.Predict(&train.x[static_cast<size_t>(i) * 4]),
            model.Predict(&train.x[static_cast<size_t>(i) * 4]));
    }
}

TEST(BoostedTrees, LoadRejectsGarbage)
{
    std::stringstream ss("not a model");
    BoostedTrees model;
    EXPECT_THROW(model.Load(ss), std::runtime_error);
}

/** One node in BoostedTrees' serialized layout. */
struct RawNode {
    int32_t feature = -1; // -1: leaf
    float threshold = 0.0f;
    int32_t left = -1;
    int32_t right = -1;
    float value = 0.0f;
};
static_assert(sizeof(RawNode) == 20, "serialized node is 20 bytes");

RawNode
Split(int32_t feature, float threshold, int32_t left, int32_t right)
{
    return RawNode{feature, threshold, left, right, 0.0f};
}

RawNode
Leaf(float value)
{
    RawNode n;
    n.value = value;
    return n;
}

template <typename T>
void
Put(std::string& out, T v)
{
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/** Bytes of a model in the Save() format: objective (0 logistic, 1
 *  squared), feature count, base score, then each tree's node count
 *  and nodes. */
std::string
SerializeTrees(int32_t n_features, double base,
               const std::vector<std::vector<RawNode>>& trees,
               int32_t objective = 0)
{
    std::string out;
    Put(out, objective);
    Put(out, n_features);
    Put(out, base);
    Put(out, static_cast<int32_t>(trees.size()));
    for (const std::vector<RawNode>& t : trees) {
        Put(out, static_cast<int32_t>(t.size()));
        out.append(reinterpret_cast<const char*>(t.data()),
                   t.size() * sizeof(RawNode));
    }
    return out;
}

/** A chain of @p depth splits on feature 0: split d (at index 2d) sends
 *  x < d left to the next split and the rest right to leaf d; the
 *  chain ends in a leaf of value -1. */
std::vector<RawNode>
ChainTree(int depth)
{
    std::vector<RawNode> nodes;
    for (int d = 0; d < depth; ++d) {
        nodes.push_back(Split(0, static_cast<float>(d), 2 * d + 2, 2 * d + 1));
        nodes.push_back(Leaf(static_cast<float>(d)));
    }
    nodes.push_back(Leaf(-1.0f));
    return nodes;
}

/** Expects Load of @p bytes to throw std::runtime_error naming
 *  @p needle, leaving @p model's predictions as they were. */
void
ExpectLoadRejects(const std::string& bytes, const std::string& needle)
{
    SCOPED_TRACE(needle);
    BoostedTrees model;
    model.Train(ThresholdDataset(200, 3));
    const std::vector<float> row = {0.7f, 0.1f, 0.2f, 0.3f};
    const double before = model.Predict(row);
    std::stringstream ss(bytes);
    try {
        model.Load(ss);
        ADD_FAILURE() << "Load accepted a corrupt stream";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << e.what();
    }
    EXPECT_EQ(model.Predict(row), before);
}

TEST(BoostedTrees, LoadRejectsCorruptNodes)
{
    const RawNode l0 = Leaf(0.5f), l1 = Leaf(-0.5f);
    // Feature outside [-1, n_features).
    ExpectLoadRejects(SerializeTrees(3, 0.0, {{Split(3, 0.5f, 1, 2), l0, l1}}),
                      "feature out of range");
    ExpectLoadRejects(SerializeTrees(3, 0.0, {{Split(-2, 0.5f, 1, 2), l0, l1}}),
                      "feature out of range");
    // A child index past the tree, or not past its parent (a cycle).
    ExpectLoadRejects(SerializeTrees(3, 0.0, {{Split(0, 0.5f, 1, 3), l0, l1}}),
                      "bad child index");
    ExpectLoadRejects(SerializeTrees(3, 0.0, {{Split(0, 0.5f, 0, 2), l0, l1}}),
                      "bad child index");
    ExpectLoadRejects(
        SerializeTrees(3, 0.0,
                       {{Split(0, 0.5f, 1, 2), Split(1, 0.5f, 1, 2), l0}}),
        "bad child index");
    // A tree without nodes, and an unknown objective.
    // (Padded so the byte bound, one node per tree, is met.)
    ExpectLoadRejects(SerializeTrees(3, 0.0, {{}}) + std::string(20, '\0'),
                      "corrupt tree");
    ExpectLoadRejects(SerializeTrees(3, 0.0, {{l0}}, /*objective=*/7),
                      "corrupt header");
}

TEST(BoostedTrees, LoadBoundsTreeDepth)
{
    const std::vector<RawNode> deepest = ChainTree(BoostedTrees::kMaxDepth);
    std::stringstream ok(SerializeTrees(1, 0.0, {deepest}));
    BoostedTrees model;
    model.Load(ok);
    EXPECT_EQ(model.NumTrees(), 1);
    // The chain's left spine goes below every threshold to its end.
    EXPECT_DOUBLE_EQ(model.Predict(std::vector<float>{-1.0f}),
                     1.0 / (1.0 + std::exp(1.0)));
    ExpectLoadRejects(
        SerializeTrees(1, 0.0, {ChainTree(BoostedTrees::kMaxDepth + 1)}),
        "deeper than kMaxDepth");
}

TEST(BoostedTrees, LoadRejectsHostileSizesBeforeAllocating)
{
    // A valid header claiming 2^30 nodes (or trees) with nothing
    // behind it must fail on the byte bound, not after allocating the
    // claimed 20 GiB.
    std::string huge_tree;
    Put(huge_tree, int32_t{0});
    Put(huge_tree, int32_t{4});
    Put(huge_tree, 0.0);
    Put(huge_tree, int32_t{1});
    Put(huge_tree, int32_t{1} << 30);
    std::string huge_count;
    Put(huge_count, int32_t{0});
    Put(huge_count, int32_t{4});
    Put(huge_count, 0.0);
    Put(huge_count, int32_t{1} << 30);
    for (const std::string& bytes : {huge_tree, huge_count}) {
        BoostedTrees model;
        std::stringstream ss(bytes);
        g_largest_alloc = 0;
        g_track_allocs = true;
        EXPECT_THROW(model.Load(ss), std::runtime_error);
        g_track_allocs = false;
        EXPECT_LT(g_largest_alloc.load(), size_t{1} << 20);
    }
}

/** A random tree of depth at most @p max_depth in DFS order (children
 *  always past their parent); splits stop at random, so the trees are
 *  unbalanced, and depth 0 is a single leaf. Thresholds come from
 *  @p thresholds. */
void
AddRandomSubtree(Rng& rng, int depth, int max_depth, int n_features,
                 const std::vector<float>& thresholds,
                 std::vector<RawNode>& nodes)
{
    const size_t self = nodes.size();
    if (depth >= max_depth || (depth > 0 && rng.Uniform() < 0.3)) {
        nodes.push_back(
            Leaf(static_cast<float>(rng.Uniform(-1.0, 1.0))));
        return;
    }
    nodes.push_back(Split(
        static_cast<int32_t>(rng.UniformInt(
            static_cast<uint64_t>(n_features))),
        thresholds[rng.UniformInt(thresholds.size())], -1, -1));
    nodes[self].left = static_cast<int32_t>(nodes.size());
    AddRandomSubtree(rng, depth + 1, max_depth, n_features, thresholds,
                     nodes);
    nodes[self].right = static_cast<int32_t>(nodes.size());
    AddRandomSubtree(rng, depth + 1, max_depth, n_features, thresholds,
                     nodes);
}

/** Values that stress the comparison: signed zeros, infinities, NaN,
 *  the extreme finite floats, and the thresholds themselves. */
std::vector<float>
EdgeValues()
{
    const float inf = std::numeric_limits<float>::infinity();
    return {0.0f,     -0.0f,     inf,      -inf,     FLT_MAX,
            -FLT_MAX, FLT_MIN,   0.25f,    -0.25f,   0.5f,
            std::numeric_limits<float>::quiet_NaN()};
}

BoostedTrees
RandomEnsemble(uint64_t seed, int max_depth, int n_trees, int n_features,
               int32_t objective)
{
    Rng rng(seed);
    std::vector<float> thresholds = EdgeValues();
    thresholds.pop_back(); // NaN thresholds are not what Train emits
    for (int i = 0; i < 8; ++i)
        thresholds.push_back(static_cast<float>(rng.Uniform(-1.0, 1.0)));
    std::vector<std::vector<RawNode>> trees(static_cast<size_t>(n_trees));
    for (std::vector<RawNode>& t : trees)
        AddRandomSubtree(rng, 0, max_depth, n_features, thresholds, t);
    std::stringstream ss(
        SerializeTrees(n_features, rng.Uniform(-0.5, 0.5), trees, objective));
    BoostedTrees model;
    model.Load(ss);
    return model;
}

/** Feature-major candidates: mostly uniform in [-1, 1], with edge
 *  values and the thresholds' own values mixed in. */
std::vector<float>
RandomCandidates(Rng& rng, int n_features, int64_t ld)
{
    const std::vector<float> edges = EdgeValues();
    std::vector<float> x(static_cast<size_t>(n_features * ld));
    for (float& v : x) {
        v = rng.Uniform() < 0.25
                ? edges[rng.UniformInt(edges.size())]
                : static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
    return x;
}

/** PredictBatch under the current dispatch against per-row Predict,
 *  bit for bit. */
void
ExpectBatchMatchesPredict(const BoostedTrees& model, const float* x,
                          int64_t ld, int n, int n_features)
{
    std::vector<double> batch(static_cast<size_t>(n), -7.0);
    model.PredictBatch(x, ld, n, batch.data());
    std::vector<float> row(static_cast<size_t>(n_features));
    for (int c = 0; c < n; ++c) {
        for (int f = 0; f < n_features; ++f)
            row[static_cast<size_t>(f)] = x[f * ld + c];
        const double want = model.Predict(row);
        ASSERT_EQ(std::memcmp(&batch[static_cast<size_t>(c)], &want,
                              sizeof(double)),
                  0)
            << "candidate " << c << ": batch " << batch[c]
            << " vs Predict " << want << " (" << ActiveKernelId() << ")";
    }
}

class SimdModeGuard {
  public:
    SimdModeGuard() : saved_(CurrentSimdMode()) {}
    ~SimdModeGuard() { SetSimdMode(saved_); }

  private:
    SimdMode saved_;
};

TEST(GbtBatchParity, RandomEnsemblesMatchPerRowPredictBitForBit)
{
    // Scalar and AVX2 batch kernels against the per-row TreePredict
    // walk: depths 0-6 (so both the compare-all top levels and the
    // gathered deeper ones run), unbalanced trees, edge-valued features
    // and thresholds, candidate counts around the 8-lane groups, and
    // both objectives. On a host without AVX2 both modes resolve to
    // the scalar kernel.
    const SimdModeGuard guard;
    const int saved_threads = NumThreads();
    constexpr int kFeatures = 9;
    for (int depth = 0; depth <= 6; ++depth) {
        const BoostedTrees model =
            RandomEnsemble(100 + static_cast<uint64_t>(depth), depth, 23,
                           kFeatures, depth % 2);
        for (const int n : {1, 7, 8, 9, 63, 64, 65, 130}) {
            Rng rng(static_cast<uint64_t>(depth * 1000 + n));
            const int64_t ld = n + 3; // rows wider than the batch
            const std::vector<float> x =
                RandomCandidates(rng, kFeatures, ld);
            for (const int threads : {1, 4}) {
                SetNumThreads(threads);
                for (const SimdMode mode : {SimdMode::kOff, SimdMode::kOn}) {
                    SetSimdMode(mode);
                    SCOPED_TRACE(::testing::Message()
                                 << "depth " << depth << ", " << n
                                 << " candidates, " << threads
                                 << " threads, " << ActiveKernelId());
                    ExpectBatchMatchesPredict(model, x.data(), ld, n,
                                              kFeatures);
                }
            }
        }
    }
    SetNumThreads(saved_threads);
}

TEST(GbtBatchParity, MultiBlockBatchMatchesPerRowPredict)
{
    // Enough trees and candidates that PredictBatch splits into several
    // GrainFor blocks, so the 4-thread run is really concurrent.
    const SimdModeGuard guard;
    const int saved_threads = NumThreads();
    constexpr int kFeatures = 6, kTrees = 200, kDepth = 6, kCands = 1000;
    const BoostedTrees model =
        RandomEnsemble(77, kDepth, kTrees, kFeatures, 0);
    ASSERT_GT(kCands / 8, GrainFor(int64_t{kTrees} * (kDepth + 1) * 8))
        << "PredictBatch no longer splits";
    Rng rng(78);
    const std::vector<float> x = RandomCandidates(rng, kFeatures, kCands);
    for (const int threads : {1, 4}) {
        SetNumThreads(threads);
        for (const SimdMode mode : {SimdMode::kOff, SimdMode::kOn}) {
            SetSimdMode(mode);
            SCOPED_TRACE(::testing::Message() << threads << " threads, "
                                              << ActiveKernelId());
            ExpectBatchMatchesPredict(model, x.data(), kCands, kCands,
                                      kFeatures);
        }
    }
    SetNumThreads(saved_threads);
}

TEST(GbtBatchParity, TrainedModelBatchMatchesPredict)
{
    // The flat tables Train builds (as opposed to Load) score the same.
    const SimdModeGuard guard;
    GbtConfig cfg;
    cfg.n_trees = 40;
    BoostedTrees model(cfg);
    model.Train(XorDataset(800, 9));
    Rng rng(10);
    const std::vector<float> x = RandomCandidates(rng, 4, 37);
    for (const SimdMode mode : {SimdMode::kOff, SimdMode::kOn}) {
        SetSimdMode(mode);
        ExpectBatchMatchesPredict(model, x.data(), 37, 37, 4);
    }
}

TEST(BoostedTrees, ConstantLabelsPredictThatLabel)
{
    Rng rng(12);
    GbtDataset d;
    for (int i = 0; i < 200; ++i) {
        d.AddRow({static_cast<float>(rng.Uniform())}, 1.0f);
    }
    BoostedTrees model;
    model.Train(d);
    EXPECT_GT(model.Predict(&d.x[0]), 0.95);
}


TEST(BoostedTrees, GammaPrunesWeakSplits)
{
    // With a huge minimum split gain, the model cannot split at all and
    // degenerates to the base score.
    GbtConfig cfg;
    cfg.gamma = 1e9;
    cfg.n_trees = 20;
    BoostedTrees model(cfg);
    const GbtDataset train = ThresholdDataset(500, 21);
    model.Train(train);
    const double p1 = model.Predict(&train.x[0]);
    const double p2 = model.Predict(&train.x[4]);
    EXPECT_NEAR(p1, p2, 1e-9); // every row hits the same (root) leaves
}

TEST(BoostedTrees, MinChildWeightLimitsLeafSize)
{
    GbtConfig strict;
    strict.min_child_weight = 1e9; // no split can satisfy it
    strict.n_trees = 10;
    BoostedTrees model(strict);
    const GbtDataset train = ThresholdDataset(400, 23);
    model.Train(train);
    EXPECT_NEAR(model.Predict(&train.x[0]),
                model.Predict(&train.x[40]), 1e-9);
}

TEST(BoostedTrees, ShrinkageSlowsFitting)
{
    const GbtDataset train = ThresholdDataset(800, 25);
    auto margin_after = [&](double lr) {
        GbtConfig cfg;
        cfg.learning_rate = lr;
        cfg.n_trees = 3;
        BoostedTrees model(cfg);
        model.Train(train);
        std::vector<float> pos = {0.9f, 0.5f, 0.5f, 0.5f};
        return std::abs(model.PredictMargin(pos.data()));
    };
    EXPECT_GT(margin_after(0.5), margin_after(0.05));
}

TEST(BoostedTrees, HandlesConstantFeatureColumns)
{
    Rng rng(27);
    GbtDataset d;
    for (int i = 0; i < 300; ++i) {
        const float x = static_cast<float>(rng.Uniform());
        d.AddRow({x, 1.0f, 0.0f}, x > 0.5f ? 1.0f : 0.0f);
    }
    BoostedTrees model;
    model.Train(d); // constant columns must not crash split finding
    EXPECT_GT(Accuracy(model, d), 0.95);
    const auto imp = model.FeatureImportance();
    EXPECT_DOUBLE_EQ(imp[1], 0.0);
    EXPECT_DOUBLE_EQ(imp[2], 0.0);
}

TEST(BoostedTrees, TrainingIsBitIdenticalAcrossThreadCounts)
{
    // Feature-parallel binning/histograms/split search must not change
    // the trained model: the serialized bytes and the predictions of a
    // 1-thread and an N-thread training run have to match exactly.
    const GbtDataset train = XorDataset(1500, 31);
    const GbtDataset valid = XorDataset(400, 32);
    GbtConfig cfg;
    cfg.max_depth = 3;
    cfg.n_trees = 60;
    cfg.early_stop_rounds = 5;

    const int saved = NumThreads();
    SetNumThreads(1);
    BoostedTrees serial(cfg);
    serial.Train(train, &valid);
    std::stringstream serial_bytes;
    serial.Save(serial_bytes);

    for (int threads : {2, 4, 8}) {
        SetNumThreads(threads);
        BoostedTrees parallel(cfg);
        parallel.Train(train, &valid);
        std::stringstream parallel_bytes;
        parallel.Save(parallel_bytes);
        EXPECT_EQ(parallel_bytes.str(), serial_bytes.str())
            << "serialized model differs at " << threads << " threads";
        for (int i = 0; i < 100; ++i) {
            ASSERT_DOUBLE_EQ(
                parallel.Predict(&train.x[static_cast<size_t>(i) * 4]),
                serial.Predict(&train.x[static_cast<size_t>(i) * 4]));
        }
    }
    SetNumThreads(saved);
}

/** Trains @p cfg on @p train at 1 thread and at 2 and 8 threads; the
 *  serialized models must match byte for byte. */
void
ExpectTrainingThreadParity(const GbtDataset& train, const GbtConfig& cfg)
{
    const int saved = NumThreads();
    SetNumThreads(1);
    BoostedTrees serial(cfg);
    serial.Train(train);
    std::stringstream serial_bytes;
    serial.Save(serial_bytes);
    for (int threads : {2, 8}) {
        SetNumThreads(threads);
        BoostedTrees parallel(cfg);
        parallel.Train(train);
        std::stringstream parallel_bytes;
        parallel.Save(parallel_bytes);
        EXPECT_EQ(parallel_bytes.str(), serial_bytes.str())
            << "serialized model differs at " << threads << " threads";
    }
    SetNumThreads(saved);
}

TEST(BoostedTrees, MultiBlockTrainingIsBitIdenticalAcrossThreadCounts)
{
    // The parity test above is one serial block per loop under
    // GrainFor; these shapes make every training loop split into
    // several blocks, so the N-thread runs really are concurrent.
    {
        // Wide: feature-parallel binning and histograms (work n per
        // feature), and split search once a level holds 4 nodes (work
        // 4 * bins per feature).
        const int n = 1500, d = 600;
        GbtConfig cfg;
        cfg.max_depth = 3;
        cfg.max_bins = 256;
        cfg.n_trees = 4;
        cfg.early_stop_rounds = 0;
        ASSERT_GT(d, GrainFor(n)) << "histograms no longer split";
        ASSERT_GT(d, GrainFor(int64_t{4} * cfg.max_bins))
            << "split search no longer splits";
        SCOPED_TRACE("wide");
        ExpectTrainingThreadParity(XorDataset(n, 41, d), cfg);
    }
    {
        // Tall: sample-parallel gradients, reassignment and margin
        // updates (work 1 and max_depth per sample), and one feature
        // per histogram block.
        const int n = static_cast<int>(GrainFor(1)) + 4099, d = 2;
        GbtConfig cfg;
        cfg.max_depth = 2;
        cfg.n_trees = 2;
        cfg.early_stop_rounds = 0;
        ASSERT_GT(n, GrainFor(1)) << "per-sample loops no longer split";
        ASSERT_GT(d, GrainFor(n));
        SCOPED_TRACE("tall");
        ExpectTrainingThreadParity(XorDataset(n, 42, d), cfg);
    }
}

/** Property: predictions are probabilities for any seed/config. */
class GbtProbabilityTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GbtProbabilityTest, PredictionsAreInUnitInterval)
{
    const auto [seed, depth] = GetParam();
    GbtConfig cfg;
    cfg.max_depth = depth;
    cfg.n_trees = 60;
    BoostedTrees model(cfg);
    const GbtDataset train =
        XorDataset(600, static_cast<uint64_t>(seed));
    model.Train(train);
    Rng rng(static_cast<uint64_t>(seed) + 100);
    for (int i = 0; i < 200; ++i) {
        std::vector<float> row(4);
        for (float& v : row)
            v = static_cast<float>(rng.Uniform(-1.0, 2.0)); // out of range
        const double p = model.Predict(row);
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 1.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GbtProbabilityTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(2, 4, 6)));

} // namespace
} // namespace sinan
