/**
 * @file
 * Batch tree-ensemble kernels behind BoostedTrees::PredictBatch, with
 * runtime scalar/AVX2 dispatch (common/cpu_features).
 *
 * The tables hold every tree as a perfect binary tree of its own depth
 * d, in level order. Internal slot j of level l sits at
 * node + (2^l - 1) + j; the walk starts at loc = 0 and steps
 *
 *   loc = 2 * loc + !(x[feature] < threshold)
 *
 * d times, then reads leaf[leaf + loc]. A leaf that sat above the
 * bottom level is copied into all 2^(d - l) bottom slots under it, so
 * whatever the padded levels below it compare, the walk returns its
 * value. The comparison is the one TreePredict makes (NaN compares
 * false and goes right), so every candidate lands on the same leaf.
 *
 * Contract shared by every implementation — this is what makes the
 * AVX2 path bit-identical to the scalar one and to per-row Predict:
 *
 *   margin[c] = base + leaf_0(c) + leaf_1(c) + ...   for c in [c0, c1)
 *
 * summed in double, in tree order, each float leaf widened exactly.
 * Vector lanes map to distinct candidates, so lane width never changes
 * any candidate's sum. Callers split [0, n) into disjoint candidate
 * ranges; the kernels themselves never spawn work.
 *
 * The AVX2 implementation is compiled only under SINAN_HAVE_AVX2, in
 * its own translation unit built with -mavx2 -ffp-contract=off.
 */
#ifndef SINAN_GBT_TREE_KERNELS_H
#define SINAN_GBT_TREE_KERNELS_H

#include <cstdint>

namespace sinan {

/** Where one tree lives in the flat tables. */
struct TreeSpan {
    int64_t node = 0; // first internal slot (2^depth - 1 of them)
    int64_t leaf = 0; // first leaf slot (2^depth of them)
    int32_t depth = 0;
};

/** Zero slots after the last leaf row: the AVX2 kernel loads a whole
 *  8-slot register from the start of a leaf row of fewer slots. */
constexpr int64_t kLeafTableSlack = 8;

/** Read-only view of an ensemble's flat tables. */
struct TreeTables {
    const int32_t* feature = nullptr;
    const float* threshold = nullptr;
    const float* leaf = nullptr; // + kLeafTableSlack zero slots
    const TreeSpan* trees = nullptr;
    int64_t n_trees = 0;
    double base = 0.0;
};

/**
 * Writes the raw margins of candidates [c0, c1) into margin[c0, c1).
 * @param x  feature-major candidate matrix: feature f of candidate c
 *           at x[f * ld + c]
 */
using TreeBatchFn = void (*)(const TreeTables& t, const float* x,
                             int64_t ld, int64_t c0, int64_t c1,
                             double* margin);

/** Portable reference implementation. */
void TreeBatchScalar(const TreeTables& t, const float* x, int64_t ld,
                     int64_t c0, int64_t c1, double* margin);

#ifdef SINAN_HAVE_AVX2
/** Eight candidates per register (same bytes as scalar). */
void TreeBatchAvx2(const TreeTables& t, const float* x, int64_t ld,
                   int64_t c0, int64_t c1, double* margin);
#endif

/** The kernel the current dispatch decision selects. */
TreeBatchFn ActiveTreeBatch();

} // namespace sinan

#endif // SINAN_GBT_TREE_KERNELS_H
