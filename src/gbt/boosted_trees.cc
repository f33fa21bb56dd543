#include "gbt/boosted_trees.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "common/check.h"
#include "common/cpu_features.h"
#include "common/parse.h"
#include "common/thread_pool.h"

namespace sinan {

namespace {

/** L2 regularization on leaf weights. */
constexpr double kLambda = 1.0;

double
Sigmoid(double z)
{
    return 1.0 / (1.0 + std::exp(-z));
}

/** Per-(feature,bin) gradient/hessian accumulator. */
struct HistCell {
    double g = 0.0;
    double h = 0.0;
};

} // namespace

void
TreeBatchScalar(const TreeTables& t, const float* x, int64_t ld, int64_t c0,
                int64_t c1, double* margin)
{
    for (int64_t c = c0; c < c1; ++c) {
        const float* xc = x + c;
        double m = t.base;
        for (int64_t k = 0; k < t.n_trees; ++k) {
            const TreeSpan& s = t.trees[k];
            int64_t loc = 0;
            for (int l = 0; l < s.depth; ++l) {
                const int64_t slot = s.node + (int64_t{1} << l) - 1 + loc;
                const float v = xc[int64_t{t.feature[slot]} * ld];
                loc = 2 * loc + (v < t.threshold[slot] ? 0 : 1);
            }
            m += static_cast<double>(t.leaf[s.leaf + loc]);
        }
        margin[c] = m;
    }
}

TreeBatchFn
ActiveTreeBatch()
{
#ifdef SINAN_HAVE_AVX2
    if (SimdActive())
        return TreeBatchAvx2;
#endif
    return TreeBatchScalar;
}

BoostedTrees::BoostedTrees(const GbtConfig& cfg, Objective obj)
    : cfg_(cfg), obj_(obj)
{
    SINAN_CHECK_MSG(cfg.n_trees > 0 && cfg.max_depth >= 0 &&
                        cfg.max_depth <= kMaxDepth && cfg.max_bins >= 2,
                    "BoostedTrees: bad config (n_trees "
                        << cfg.n_trees << ", max_depth " << cfg.max_depth
                        << ", max_bins " << cfg.max_bins << ")");
}

void
BoostedTrees::Train(const GbtDataset& train, const GbtDataset* valid)
{
    const int n = train.n_rows;
    const int d = train.n_features;
    SINAN_CHECK_MSG(n > 0 && d > 0,
                    "BoostedTrees::Train: empty dataset (" << n << "x"
                                                           << d << ")");
    SINAN_CHECK_EQ(train.y.size(), static_cast<size_t>(n));
    SINAN_CHECK_EQ(train.x.size(),
                   static_cast<size_t>(n) * static_cast<size_t>(d));
    if (valid) {
        SINAN_CHECK_EQ(valid->n_features, d);
        SINAN_CHECK_EQ(valid->x.size(),
                       static_cast<size_t>(valid->n_rows) *
                           static_cast<size_t>(d));
    }
    // Non-finite features or labels would silently poison every split
    // gain downstream; reject them at the training boundary.
    for (float v : train.y)
        SINAN_CHECK_FINITE(v);
    for (float v : train.x)
        SINAN_CHECK_FINITE(v);
    n_features_ = d;
    trees_.clear();
    feature_gain_.assign(d, 0.0);

    // Base score: mean target (log-odds for the logistic objective).
    double mean_y = 0.0;
    for (float v : train.y)
        mean_y += static_cast<double>(v);
    mean_y /= n;
    if (obj_ == Objective::kLogistic) {
        const double p = std::clamp(mean_y, 1e-6, 1.0 - 1e-6);
        base_score_ = std::log(p / (1.0 - p));
    } else {
        base_score_ = mean_y;
    }

    // --- Quantile binning -------------------------------------------
    // Feature-parallel: each feature's edges and bin column are
    // computed independently (disjoint writes, deterministic at any
    // thread count).
    const int bins = cfg_.max_bins;
    // edges[f] has (bins-1) thresholds; bin b covers
    // (edge[b-1], edge[b]].
    std::vector<std::vector<float>> edges(d);
    // Feature-major bin matrix: binned[f * n + i]. Column-contiguous so
    // the per-feature histogram pass below streams linearly.
    std::vector<uint8_t> binned(static_cast<size_t>(n) * d);
    ParallelFor(0, d, GrainFor(n), [&](int64_t lo, int64_t hi) {
        std::vector<float> col(n);
        for (int64_t f = lo; f < hi; ++f) {
            for (int i = 0; i < n; ++i)
                col[i] = train.x[static_cast<size_t>(i) * d + f];
            std::sort(col.begin(), col.end());
            auto& e = edges[f];
            for (int b = 1; b < bins; ++b) {
                const size_t idx =
                    static_cast<size_t>(static_cast<double>(b) * n / bins);
                e.push_back(col[std::min<size_t>(idx, n - 1)]);
            }
            e.erase(std::unique(e.begin(), e.end()), e.end());
            uint8_t* out_col = &binned[static_cast<size_t>(f) * n];
            for (int i = 0; i < n; ++i) {
                const float v = train.x[static_cast<size_t>(i) * d + f];
                out_col[i] = static_cast<uint8_t>(
                    std::upper_bound(e.begin(), e.end(), v) - e.begin());
            }
        }
    });

    // --- Boosting ----------------------------------------------------
    std::vector<double> margin(n, base_score_);
    std::vector<double> val_margin;
    if (valid)
        val_margin.assign(valid->n_rows, base_score_);

    std::vector<double> grad(n), hess(n);
    std::vector<int> node_of(n); // current leaf assignment per sample

    double best_val_loss = std::numeric_limits<double>::infinity();
    int best_round = 0;
    int since_best = 0;

    for (int round = 0; round < cfg_.n_trees; ++round) {
        ParallelFor(0, n, GrainFor(1), [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) {
                if (obj_ == Objective::kLogistic) {
                    const double p = Sigmoid(margin[i]);
                    grad[i] = p - static_cast<double>(train.y[i]);
                    hess[i] = std::max(p * (1.0 - p), 1e-9);
                } else {
                    grad[i] =
                        margin[i] - static_cast<double>(train.y[i]);
                    hess[i] = 1.0;
                }
            }
        });

        Tree tree;
        tree.nodes.push_back(Node{});
        std::fill(node_of.begin(), node_of.end(), 0);
        std::vector<int> frontier = {0};
        std::vector<int> node_depth = {0};

        while (!frontier.empty()) {
            // Histograms for every frontier node, feature-parallel:
            // each feature owns the hist cells of its own (slot,
            // feature) planes, streaming its contiguous bin column, so
            // concurrent tasks never touch the same cell and per-cell
            // accumulation stays in sample order (bit-identical to
            // serial). The cheap per-node g/h totals stay serial.
            const int n_front = static_cast<int>(frontier.size());
            std::vector<int> front_slot(tree.nodes.size(), -1);
            for (int s = 0; s < n_front; ++s)
                front_slot[frontier[s]] = s;
            std::vector<HistCell> hist(
                static_cast<size_t>(n_front) * d * bins);
            std::vector<double> node_g(n_front, 0.0);
            std::vector<double> node_h(n_front, 0.0);
            // Pre-resolved slot per sample (-1: settled in a leaf).
            std::vector<int> slot_of(n);
            for (int i = 0; i < n; ++i) {
                const int nd = node_of[i];
                const int s = nd >= 0 &&
                                      nd < static_cast<int>(
                                               front_slot.size())
                                  ? front_slot[nd]
                                  : -1;
                slot_of[i] = s;
                if (s >= 0) {
                    node_g[s] += grad[i];
                    node_h[s] += hess[i];
                }
            }
            ParallelFor(0, d, GrainFor(n), [&](int64_t lo, int64_t hi) {
                for (int64_t f = lo; f < hi; ++f) {
                    const uint8_t* col =
                        &binned[static_cast<size_t>(f) * n];
                    for (int i = 0; i < n; ++i) {
                        const int s = slot_of[i];
                        if (s < 0)
                            continue;
                        HistCell& cell =
                            hist[(static_cast<size_t>(s) * d + f) *
                                     bins +
                                 col[i]];
                        cell.g += grad[i];
                        cell.h += hess[i];
                    }
                }
            });

            // Pick the best split per frontier node. Feature-parallel
            // into a per-(slot, feature) table, then a serial reduction
            // in increasing-feature order — the same first-strictly-
            // greater tie-breaking as the original single loop.
            struct Split {
                double gain = 0.0;
                int feature = -1;
                int bin = -1; // split between bin and bin+1
            };
            std::vector<Split> best_sf(
                static_cast<size_t>(n_front) * d);
            ParallelFor(0, d, GrainFor(int64_t{n_front} * bins),
                        [&](int64_t lo, int64_t hi) {
                for (int64_t f = lo; f < hi; ++f) {
                    const int nb =
                        static_cast<int>(edges[f].size()) + 1;
                    for (int s = 0; s < n_front; ++s) {
                        const double G = node_g[s];
                        const double H = node_h[s];
                        const double parent_score = G * G / (H + kLambda);
                        Split& out =
                            best_sf[static_cast<size_t>(s) * d + f];
                        const HistCell* cells =
                            &hist[(static_cast<size_t>(s) * d + f) *
                                  bins];
                        double gl = 0.0, hl = 0.0;
                        for (int b = 0; b + 1 < nb; ++b) {
                            gl += cells[b].g;
                            hl += cells[b].h;
                            const double gr = G - gl;
                            const double hr = H - hl;
                            if (hl < cfg_.min_child_weight ||
                                hr < cfg_.min_child_weight) {
                                continue;
                            }
                            const double gain =
                                gl * gl / (hl + kLambda) +
                                gr * gr / (hr + kLambda) -
                                parent_score - cfg_.gamma;
                            if (gain > out.gain) {
                                out = Split{gain, static_cast<int>(f),
                                            b};
                            }
                        }
                    }
                }
            });
            std::vector<Split> best(n_front);
            for (int s = 0; s < n_front; ++s) {
                for (int f = 0; f < d; ++f) {
                    const Split& cand =
                        best_sf[static_cast<size_t>(s) * d + f];
                    if (cand.gain > best[s].gain)
                        best[s] = cand;
                }
            }

            // Materialize splits / leaves.
            std::vector<int> next_frontier;
            std::vector<int> next_depth;
            for (int s = 0; s < n_front; ++s) {
                const int nd = frontier[s];
                Node& node = tree.nodes[nd]; // note: stable, see below
                const bool can_split =
                    best[s].feature >= 0 &&
                    node_depth[s] < cfg_.max_depth;
                if (!can_split) {
                    node.feature = -1;
                    node.value = static_cast<float>(
                        -cfg_.learning_rate * node_g[s] /
                        (node_h[s] + kLambda));
                    continue;
                }
                feature_gain_[best[s].feature] += best[s].gain;
                const int li = static_cast<int>(tree.nodes.size());
                // Reserve before taking references: push_back may move.
                tree.nodes.push_back(Node{});
                tree.nodes.push_back(Node{});
                Node& parent = tree.nodes[nd];
                parent.feature = best[s].feature;
                parent.threshold = best[s].bin < static_cast<int>(
                                                     edges[best[s].feature]
                                                         .size())
                                       ? edges[best[s].feature][best[s].bin]
                                       : std::numeric_limits<float>::max();
                parent.left = li;
                parent.right = li + 1;
                next_frontier.push_back(li);
                next_frontier.push_back(li + 1);
                next_depth.push_back(node_depth[s] + 1);
                next_depth.push_back(node_depth[s] + 1);
            }
            // Reassign samples to children (disjoint per-sample writes).
            ParallelFor(0, n, GrainFor(1), [&](int64_t lo, int64_t hi) {
                for (int64_t i = lo; i < hi; ++i) {
                    if (slot_of[i] < 0)
                        continue;
                    const Node& node = tree.nodes[node_of[i]];
                    if (node.feature < 0) {
                        node_of[i] = -1; // settled in a leaf
                        continue;
                    }
                    const float v =
                        train.x[static_cast<size_t>(i) * d +
                                node.feature];
                    node_of[i] =
                        v < node.threshold ? node.left : node.right;
                }
            });
            frontier = std::move(next_frontier);
            node_depth = std::move(next_depth);
        }

        // Update margins with the completed tree.
        ParallelFor(0, n, GrainFor(cfg_.max_depth),
                    [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) {
                margin[i] += TreePredict(
                    tree, &train.x[static_cast<size_t>(i) * d]);
            }
        });
        trees_.push_back(std::move(tree));

        // Early stopping on validation loss.
        if (valid && cfg_.early_stop_rounds > 0) {
            double loss = 0.0;
            for (int i = 0; i < valid->n_rows; ++i) {
                val_margin[i] += TreePredict(
                    trees_.back(),
                    &valid->x[static_cast<size_t>(i) * d]);
                if (obj_ == Objective::kLogistic) {
                    const double z = val_margin[i];
                    const double y = static_cast<double>(valid->y[i]);
                    loss += std::log1p(std::exp(-std::abs(z))) +
                            std::max(z, 0.0) - z * y;
                } else {
                    const double e =
                        val_margin[i] - static_cast<double>(valid->y[i]);
                    loss += e * e;
                }
            }
            if (loss < best_val_loss - 1e-9) {
                best_val_loss = loss;
                best_round = round + 1;
                since_best = 0;
            } else if (++since_best >= cfg_.early_stop_rounds) {
                trees_.resize(best_round);
                break;
            }
        }
    }
    Flatten();
}

double
BoostedTrees::TreePredict(const Tree& tree, const float* row) const
{
    int nd = 0;
    while (tree.nodes[nd].feature >= 0) {
        const Node& node = tree.nodes[nd];
        nd = row[node.feature] < node.threshold ? node.left : node.right;
    }
    return tree.nodes[nd].value;
}

double
BoostedTrees::PredictMargin(const float* row) const
{
    double m = base_score_;
    for (const Tree& t : trees_)
        m += TreePredict(t, row);
    return m;
}

double
BoostedTrees::FromMargin(double m) const
{
    return obj_ == Objective::kLogistic ? Sigmoid(m) : m;
}

double
BoostedTrees::Predict(const float* row) const
{
    return FromMargin(PredictMargin(row));
}

void
BoostedTrees::PredictBatch(const float* x, int64_t ld, int n,
                           double* out) const
{
    SINAN_CHECK_MSG(n >= 0 && ld >= n,
                    "PredictBatch: " << n << " candidates in rows of "
                                     << ld);
    // The AVX2 kernel gathers x at int32 offsets f * ld + lane.
    SINAN_CHECK_MSG(int64_t{n_features_} * ld <=
                        std::numeric_limits<int32_t>::max(),
                    "PredictBatch: candidate matrix too large ("
                        << n_features_ << " x " << ld << ")");
    const TreeTables tables{flat_feature_.data(), flat_threshold_.data(),
                            flat_leaf_.data(), flat_trees_.data(),
                            static_cast<int64_t>(flat_trees_.size()),
                            base_score_};
    int64_t visits = 0; // node visits per candidate
    for (const TreeSpan& s : flat_trees_)
        visits += s.depth + 1;
    // Blocks of whole 8-candidate groups, so every block but the last
    // fills the AVX2 lanes; candidates are independent, so the block
    // structure never changes a byte.
    constexpr int64_t kGroup = 8;
    const TreeBatchFn kern = ActiveTreeBatch();
    ParallelFor(0, (n + kGroup - 1) / kGroup, GrainFor(visits * kGroup),
                [&](int64_t lo, int64_t hi) {
        const int64_t c0 = lo * kGroup;
        const int64_t c1 = std::min<int64_t>(hi * kGroup, n);
        kern(tables, x, ld, c0, c1, out);
        for (int64_t c = c0; c < c1; ++c)
            out[c] = FromMargin(out[c]);
    });
}

std::vector<double>
BoostedTrees::FeatureImportance() const
{
    return feature_gain_;
}

void
BoostedTrees::Save(std::ostream& out) const
{
    const int32_t obj = obj_ == Objective::kLogistic ? 0 : 1;
    const int32_t nt = static_cast<int32_t>(trees_.size());
    const int32_t nf = n_features_;
    out.write(reinterpret_cast<const char*>(&obj), sizeof(obj));
    out.write(reinterpret_cast<const char*>(&nf), sizeof(nf));
    const double base = base_score_;
    out.write(reinterpret_cast<const char*>(&base), sizeof(base));
    out.write(reinterpret_cast<const char*>(&nt), sizeof(nt));
    for (const Tree& t : trees_) {
        const int32_t nn = static_cast<int32_t>(t.nodes.size());
        out.write(reinterpret_cast<const char*>(&nn), sizeof(nn));
        out.write(reinterpret_cast<const char*>(t.nodes.data()),
                  static_cast<std::streamsize>(nn * sizeof(Node)));
    }
}

int
BoostedTrees::TreeDepth(const Tree& tree, int n_features)
{
    // Children must sit past their parent, so one pass in index order
    // sees every parent before its children and no path can cycle.
    const int nn = static_cast<int>(tree.nodes.size());
    if (nn < 1)
        throw std::runtime_error("BoostedTrees::Load: empty tree");
    std::vector<int> depth(static_cast<size_t>(nn), -1); // -1: unreached
    depth[0] = 0;
    int deepest = 0;
    for (int i = 0; i < nn; ++i) {
        const Node& node = tree.nodes[static_cast<size_t>(i)];
        if (node.feature < -1 || node.feature >= n_features)
            throw std::runtime_error(
                "BoostedTrees::Load: node feature out of range");
        if (node.feature < 0)
            continue;
        for (const int child : {node.left, node.right}) {
            if (child <= i || child >= nn)
                throw std::runtime_error(
                    "BoostedTrees::Load: bad child index");
        }
        const int d = depth[static_cast<size_t>(i)];
        if (d < 0)
            continue;
        if (d + 1 > kMaxDepth)
            throw std::runtime_error(
                "BoostedTrees::Load: tree deeper than kMaxDepth");
        for (const int child : {node.left, node.right}) {
            int& cd = depth[static_cast<size_t>(child)];
            cd = std::max(cd, d + 1);
        }
        deepest = std::max(deepest, d + 1);
    }
    return deepest;
}

void
BoostedTrees::Flatten()
{
    flat_trees_.assign(trees_.size(), TreeSpan{});
    int64_t n_nodes = 0, n_leaves = 0;
    for (size_t k = 0; k < trees_.size(); ++k) {
        const int32_t d = TreeDepth(trees_[k], n_features_);
        flat_trees_[k] = TreeSpan{n_nodes, n_leaves, d};
        n_nodes += (int64_t{1} << d) - 1;
        n_leaves += int64_t{1} << d;
    }
    flat_feature_.assign(static_cast<size_t>(n_nodes), 0);
    flat_threshold_.assign(static_cast<size_t>(n_nodes), 0.0f);
    flat_leaf_.assign(static_cast<size_t>(n_leaves + kLeafTableSlack), 0.0f);
    // Padded internal slots under an early leaf keep feature 0 and
    // threshold 0: the leaf's value fills every bottom slot below it,
    // so whichever way they send a candidate, it lands on that value.
    for (size_t k = 0; k < trees_.size(); ++k) {
        const std::vector<Node>& nodes = trees_[k].nodes;
        const TreeSpan& s = flat_trees_[k];
        auto place = [&](auto& self, int nd, int level, int64_t loc) -> void {
            const Node& node = nodes[static_cast<size_t>(nd)];
            if (node.feature < 0) {
                const int64_t span = int64_t{1} << (s.depth - level);
                std::fill_n(flat_leaf_.begin() + s.leaf + loc * span, span,
                            node.value);
                return;
            }
            const size_t slot =
                static_cast<size_t>(s.node + (int64_t{1} << level) - 1 + loc);
            flat_feature_[slot] = node.feature;
            flat_threshold_[slot] = node.threshold;
            self(self, node.left, level + 1, 2 * loc);
            self(self, node.right, level + 1, 2 * loc + 1);
        };
        place(place, 0, 0, 0);
    }
}

void
BoostedTrees::Load(std::istream& in)
{
    int32_t obj = 0, nf = 0, nt = 0;
    double base = 0.0;
    in.read(reinterpret_cast<char*>(&obj), sizeof(obj));
    in.read(reinterpret_cast<char*>(&nf), sizeof(nf));
    in.read(reinterpret_cast<char*>(&base), sizeof(base));
    in.read(reinterpret_cast<char*>(&nt), sizeof(nt));
    if (!in || (obj != 0 && obj != 1) || nt < 0 || nf < 0)
        throw std::runtime_error("BoostedTrees::Load: corrupt header");
    // Every tree holds at least its node count and one node.
    if (!StreamHolds(in, static_cast<uint64_t>(nt) *
                             (sizeof(int32_t) + sizeof(Node))))
        throw std::runtime_error("BoostedTrees::Load: truncated");
    std::vector<Tree> trees(static_cast<size_t>(nt));
    for (Tree& t : trees) {
        int32_t nn = 0;
        in.read(reinterpret_cast<char*>(&nn), sizeof(nn));
        if (!in || nn < 1)
            throw std::runtime_error("BoostedTrees::Load: corrupt tree");
        if (!StreamHolds(in, static_cast<uint64_t>(nn) * sizeof(Node)))
            throw std::runtime_error("BoostedTrees::Load: truncated");
        t.nodes.resize(static_cast<size_t>(nn));
        in.read(reinterpret_cast<char*>(t.nodes.data()),
                static_cast<std::streamsize>(nn * sizeof(Node)));
        if (!in)
            throw std::runtime_error("BoostedTrees::Load: truncated");
        (void)TreeDepth(t, nf);
    }
    obj_ = obj == 0 ? Objective::kLogistic : Objective::kSquared;
    n_features_ = nf;
    base_score_ = base;
    trees_ = std::move(trees);
    feature_gain_.assign(static_cast<size_t>(n_features_), 0.0);
    Flatten();
}

} // namespace sinan
