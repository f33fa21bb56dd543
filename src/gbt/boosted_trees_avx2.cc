/**
 * @file
 * AVX2 tree-ensemble kernel (see tree_kernels.h for the table layout
 * and the shared summation contract). Compiled only under
 * SINAN_HAVE_AVX2, with -mavx2 -ffp-contract=off.
 *
 * Each register holds eight candidates, one per lane; kGroups such
 * groups walk every tree side by side. The top four levels (15 nodes)
 * need no gather: every node is compared against its own feature's
 * contiguous row of candidates, its outcome lands in one bit of each
 * lane, and each lane then follows its own path through those bits.
 * Deeper levels, if any, gather the lane's node and feature value. Leaf
 * rows of at most sixteen slots are read with in-register permutes.
 * The compare is _CMP_NLT_UQ, i.e. !(x < threshold), true on NaN, as
 * in the scalar step, and each lane adds its leaves to its double
 * margin in tree order, exactly like TreeBatchScalar. Candidates past
 * the last full group of eight take the scalar kernel, which yields
 * the same bytes.
 */
#include "gbt/tree_kernels.h"

#ifdef SINAN_HAVE_AVX2

#include <immintrin.h>

namespace sinan {

namespace {

/** Groups of eight candidates walked side by side: they share each
 *  node's scalar setup and keep independent work in flight. (The
 *  per-group loops carry `GCC unroll`: rolled, the groups' registers
 *  spill to the stack.) */
constexpr int kGroups = 4;

/** Leaf rows up to this many slots use one permute (two above it, up
 *  to twice as many). */
constexpr int kPermuteSlots = 8;

/** Levels walked by per-node compares: 2^4 - 1 = 15 node bits fit a
 *  lane. */
constexpr int kTopLevels = 4;

/** Gathers base[idx] per lane (every idx is >= 0). A gather merges
 *  into its destination register, which makes that register an input:
 *  with a constant all-ones mask the compiler drops the merge source
 *  and reuses a register, chaining every gather of the walk to the one
 *  before it. A mask the compiler cannot fold (idx > -1, true in every
 *  lane) keeps the zeroed source, and the zeroing breaks the chain. */
inline __m256
GatherPs(const float* base, __m256i idx)
{
    const __m256i all = _mm256_cmpgt_epi32(idx, _mm256_set1_epi32(-1));
    return _mm256_mask_i32gather_ps(_mm256_setzero_ps(), base, idx,
                                    _mm256_castsi256_ps(all), 4);
}

inline __m256i
GatherEpi32(const int32_t* base, __m256i idx)
{
    const __m256i all = _mm256_cmpgt_epi32(idx, _mm256_set1_epi32(-1));
    return _mm256_mask_i32gather_epi32(_mm256_setzero_si256(), base, idx,
                                       all, 4);
}

/** Leaf values of the eight lanes' slots @p loc in a row of 2^depth. */
inline __m256
LeafValues(const float* row, int depth, __m256i loc)
{
    const int slots = 1 << depth;
    if (slots <= kPermuteSlots)
        return _mm256_permutevar8x32_ps(_mm256_loadu_ps(row), loc);
    if (slots <= 2 * kPermuteSlots) {
        // permutevar reads the low three bits of each index; the upper
        // half is picked by loc >= 8.
        const __m256 lo = _mm256_permutevar8x32_ps(_mm256_loadu_ps(row), loc);
        const __m256 hi =
            _mm256_permutevar8x32_ps(_mm256_loadu_ps(row + 8), loc);
        const __m256i upper =
            _mm256_cmpgt_epi32(loc, _mm256_set1_epi32(kPermuteSlots - 1));
        return _mm256_blendv_ps(lo, hi, _mm256_castsi256_ps(upper));
    }
    return GatherPs(row, loc);
}

/** Scores kBlocks groups of eight candidates starting at @p c. */
template <int kBlocks>
inline void
ScoreGroups(const TreeTables& t, const float* x, int64_t ld, int64_t c,
            double* margin)
{
    const __m256i one = _mm256_set1_epi32(1);
    const __m256i ldv = _mm256_set1_epi32(static_cast<int32_t>(ld));
    const __m256i lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    double* m = margin + c;
#pragma GCC unroll 8
    for (int i = 0; i < 8 * kBlocks; i += 4)
        _mm256_storeu_pd(m + i, _mm256_set1_pd(t.base));
    const float* xc = x + c;
    for (int64_t k = 0; k < t.n_trees; ++k) {
        const TreeSpan& s = t.trees[k];
        const int32_t* feat = t.feature + s.node;
        const float* thr = t.threshold + s.node;
        // Top levels: compare every node against its own contiguous row
        // of candidates (no gather), keeping node j's outcome in bit j:
        // walking the nodes from the last, bits = 2 * bits + right_j.
        const int top = s.depth < kTopLevels ? s.depth : kTopLevels;
        __m256i bits[kBlocks];
#pragma GCC unroll 8
        for (int b = 0; b < kBlocks; ++b)
            bits[b] = _mm256_setzero_si256();
        for (int j = (1 << top) - 2; j >= 0; --j) {
            const float* xj = xc + int64_t{feat[j]} * ld;
            const __m256 th = _mm256_set1_ps(thr[j]);
#pragma GCC unroll 8
            for (int b = 0; b < kBlocks; ++b) {
                const __m256 right = _mm256_cmp_ps(
                    _mm256_loadu_ps(xj + 8 * b), th, _CMP_NLT_UQ);
                bits[b] = _mm256_sub_epi32(_mm256_slli_epi32(bits[b], 1),
                                           _mm256_castps_si256(right));
            }
        }
#pragma GCC unroll 8
        for (int b = 0; b < kBlocks; ++b) {
            // Each lane follows its own path through the bits, by heap
            // index: the children of node n are 2n + 1 and 2n + 2.
            __m256i node = _mm256_setzero_si256();
            for (int l = 0; l < top; ++l) {
                const __m256i right =
                    _mm256_and_si256(_mm256_srlv_epi32(bits[b], node), one);
                node = _mm256_add_epi32(
                    _mm256_add_epi32(_mm256_slli_epi32(node, 1), one), right);
            }
            __m256i loc = _mm256_sub_epi32(
                node, _mm256_set1_epi32((1 << top) - 1));
            // Deeper levels: gather each lane's node and feature value.
            const __m256i lane_idx =
                _mm256_add_epi32(lanes, _mm256_set1_epi32(8 * b));
            for (int l = top; l < s.depth; ++l) {
                const int64_t level = (int64_t{1} << l) - 1;
                const __m256i f = GatherEpi32(feat + level, loc);
                const __m256 th = GatherPs(thr + level, loc);
                const __m256i idx =
                    _mm256_add_epi32(_mm256_mullo_epi32(f, ldv), lane_idx);
                const __m256 right =
                    _mm256_cmp_ps(GatherPs(xc, idx), th, _CMP_NLT_UQ);
                // loc = 2 * loc + 1 where right (the mask is -1 there).
                loc = _mm256_sub_epi32(_mm256_slli_epi32(loc, 1),
                                       _mm256_castps_si256(right));
            }
            const __m256 v = LeafValues(t.leaf + s.leaf, s.depth, loc);
            double* mb = m + 8 * b;
            _mm256_storeu_pd(
                mb, _mm256_add_pd(_mm256_loadu_pd(mb),
                                  _mm256_cvtps_pd(_mm256_castps256_ps128(v))));
            _mm256_storeu_pd(
                mb + 4,
                _mm256_add_pd(_mm256_loadu_pd(mb + 4),
                              _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1))));
        }
    }
}

} // namespace

void
TreeBatchAvx2(const TreeTables& t, const float* x, int64_t ld, int64_t c0,
              int64_t c1, double* margin)
{
    int64_t c = c0;
    for (; c + 8 * kGroups <= c1; c += 8 * kGroups)
        ScoreGroups<kGroups>(t, x, ld, c, margin);
    for (; c + 8 <= c1; c += 8)
        ScoreGroups<1>(t, x, ld, c, margin);
    if (c < c1)
        TreeBatchScalar(t, x, ld, c, c1, margin);
}

} // namespace sinan

#endif // SINAN_HAVE_AVX2
