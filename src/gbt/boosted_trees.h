/**
 * @file
 * Gradient-boosted decision trees, the paper's long-term QoS-violation
 * predictor (Sec. 3.2). This is a compact XGBoost-style implementation:
 * second-order boosting with L2-regularized leaf weights, histogram-based
 * split finding (the "approximate split finding" the paper cites XGBoost
 * for), shrinkage, and optional early stopping on a validation set.
 *
 * The classifier's raw margin is the sum of leaf scores across trees; the
 * violation probability is the logistic transform of that margin, which
 * is exactly the paper's p_V = e^{s_V} / (e^{s_V} + e^{s_NV}) with
 * s = s_V - s_NV.
 */
#ifndef SINAN_GBT_BOOSTED_TREES_H
#define SINAN_GBT_BOOSTED_TREES_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/check.h"
#include "gbt/tree_kernels.h"

namespace sinan {

/** Training hyper-parameters. */
struct GbtConfig {
    /** Maximum number of boosting rounds. */
    int n_trees = 200;
    /** Maximum tree depth (root = depth 0). */
    int max_depth = 4;
    /** Shrinkage applied to each tree's contribution. */
    double learning_rate = 0.1;
    /** Minimum loss reduction to make a split. */
    double gamma = 0.0;
    /** Minimum hessian mass per child. */
    double min_child_weight = 1.0;
    /** Histogram bins per feature. */
    int max_bins = 32;
    /** Early-stop patience on validation loss (0 disables). */
    int early_stop_rounds = 10;
};

/** Dense row-major training matrix. */
struct GbtDataset {
    /** Row-major features, n_rows x n_features. */
    std::vector<float> x;
    /** Targets: {0,1} for classification, reals for regression. */
    std::vector<float> y;
    int n_rows = 0;
    int n_features = 0;

    void
    AddRow(const std::vector<float>& features, float target)
    {
        if (n_features == 0)
            n_features = static_cast<int>(features.size());
        x.insert(x.end(), features.begin(), features.end());
        y.push_back(target);
        ++n_rows;
    }
};

/** Boosted-trees model for binary classification or regression. */
class BoostedTrees {
  public:
    enum class Objective { kLogistic, kSquared };

    explicit BoostedTrees(const GbtConfig& cfg = GbtConfig(),
                          Objective obj = Objective::kLogistic);

    /**
     * Trains on @p train; if @p valid is non-null and early stopping is
     * enabled, keeps the round count minimizing validation loss.
     */
    void Train(const GbtDataset& train, const GbtDataset* valid = nullptr);

    /** Raw additive margin for one row of n_features floats. */
    double PredictMargin(const float* row) const;

    /** Probability (logistic objective) or value (squared objective). */
    double Predict(const float* row) const;

    /**
     * Predict() for @p n candidates stored feature-major: feature f of
     * candidate c at x[f * ld + c], with ld >= n. Writes out[0, n),
     * each bit-identical to Predict() on that candidate's row, through
     * the dispatched kernel (tree_kernels.h) over the flat tables.
     */
    void PredictBatch(const float* x, int64_t ld, int n, double* out) const;

    /** Convenience overload; checks the row width against training. */
    double
    Predict(const std::vector<float>& row) const
    {
        if (n_features_ > 0)
            SINAN_CHECK_EQ(row.size(),
                           static_cast<size_t>(n_features_));
        return Predict(row.data());
    }

    /** Number of trees kept after (optional) early stopping. */
    int NumTrees() const { return static_cast<int>(trees_.size()); }

    /** Total split gain attributed to each feature. */
    std::vector<double> FeatureImportance() const;

    /** Deepest tree Train builds or Load accepts (root = depth 0). A
     *  tree of depth d takes 2^d leaf slots in the flat tables. */
    static constexpr int kMaxDepth = 10;

    /** Binary serialization. Load validates every node (feature range,
     *  child indices past their parent's, depth <= kMaxDepth, sizes
     *  bounded by the bytes left in the stream) and throws
     *  std::runtime_error on a corrupt stream, leaving *this as it
     *  was. */
    void Save(std::ostream& out) const;
    void Load(std::istream& in);

  private:
    struct Node {
        int feature = -1;       // -1 marks a leaf
        float threshold = 0.0f; // go left when x[feature] < threshold
        int left = -1;
        int right = -1;
        float value = 0.0f; // leaf weight (already shrunk)
    };
    struct Tree {
        std::vector<Node> nodes;
    };

    double TreePredict(const Tree& tree, const float* row) const;

    /** Depth of @p tree after checking every node's feature against
     *  [-1, n_features) and every child index against (parent, size);
     *  throws std::runtime_error (naming Load, its one untrusted
     *  source) on a violation or a depth above kMaxDepth. */
    static int TreeDepth(const Tree& tree, int n_features);

    /** Rebuilds the flat tables below from trees_. */
    void Flatten();

    /** Logistic transform for kLogistic, identity for kSquared. */
    double FromMargin(double m) const;

    GbtConfig cfg_;
    Objective obj_;
    double base_score_ = 0.0;
    std::vector<Tree> trees_;
    std::vector<double> feature_gain_;
    int n_features_ = 0;

    // Flat level-order tables of trees_ (see tree_kernels.h); rebuilt
    // by Train and Load.
    std::vector<int32_t> flat_feature_;
    std::vector<float> flat_threshold_;
    std::vector<float> flat_leaf_;
    std::vector<TreeSpan> flat_trees_;
};

} // namespace sinan

#endif // SINAN_GBT_BOOSTED_TREES_H
