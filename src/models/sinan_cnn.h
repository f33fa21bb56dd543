/**
 * @file
 * Sinan's short-term latency predictor (paper Sec. 3.1 / Figure 5).
 *
 * Three input branches — a small CNN over the resource-history image
 * X_RH, and dense encoders for the latency history X_LH and the candidate
 * allocation X_RC — are concatenated into the latent representation L_f,
 * from which a final dense layer predicts next-interval tail latencies
 * (p95..p99). L_f is exposed because the Boosted-Trees violation
 * predictor consumes it (Sec. 3.2).
 *
 * Two forward paths exist:
 *  - Forward(): the legacy full-batch pass used for training/backward
 *    (and as the reference in the fast-path parity tests);
 *  - ForwardTrunk()/ForwardHead(): the online scheduler's single-pass
 *    candidate inference. Within one decision interval every candidate
 *    shares identical X_RH/X_LH, so the rh/lh branches (the trunk, and
 *    by far the dominant cost) run once on a batch of 1, and so does
 *    fc_latent's product over their embeddings — the shared prefix of
 *    every candidate's [rh | lh | rc] row. The head (rc branch, the
 *    rest of fc_latent, output layer) runs per candidate. Both paths
 *    accumulate every output element in the same order, so they are
 *    bit-identical.
 */
#ifndef SINAN_MODELS_SINAN_CNN_H
#define SINAN_MODELS_SINAN_CNN_H

#include <array>

#include "models/latency_model.h"
#include "nn/layers.h"
#include "nn/quant.h"

namespace sinan {

/** Architecture hyper-parameters of the CNN predictor. */
struct SinanCnnConfig {
    int conv_channels1 = 8;
    int conv_channels2 = 8;
    int kernel = 3;
    int rh_embed = 48;
    int lh_embed = 24;
    int rc_embed = 24;
    int latent = 32;
};

/**
 * Preallocated buffers of the single-pass candidate inference path.
 * Owned by HybridModel and cloned with it; every tensor is resized via
 * EnsureShape on first use (or when the window/candidate shapes
 * change) and reused afterwards, so the steady-state Evaluate loop
 * performs no tensor allocations.
 *
 * Lifetime rules: the trunk buffers (conv outputs and rh/lh
 * embeddings) are valid from ForwardTrunk until the next ForwardTrunk
 * on the same workspace; ForwardHead may be called any number of times
 * in between with different candidate batches. A workspace must not be
 * shared between threads — concurrent users clone the owning model.
 */
struct CnnEvalWorkspace {
    // Window inputs on a batch of 1 (shared by every candidate).
    Tensor xrh; // [1, F, N, T]
    Tensor xlh; // [1, T*M]
    // Per-candidate allocations.
    Tensor xrc; // [B, N]
    // Trunk intermediates and cached embeddings.
    Tensor conv1_out; // [1, C1, N, T]
    Tensor conv2_out; // [1, C2, N, T] (viewed as [1, C2*N*T])
    Tensor col;       // conv im2col scratch
    Tensor rh_embed;  // [1, rh_embed]
    Tensor lh_embed;  // [1, lh_embed]
    // Head intermediates.
    Tensor rc_embed;      // [B, rc_embed]
    Tensor latent_prefix; // [1, latent] fc_latent over [rh | lh] only
    Tensor latent;        // [B, latent]
    Tensor pred;          // [B, M]
    // Quantized-path scratch (u8 activations, int32 accumulators);
    // grows once on first int8 use, then stays allocation-free.
    Int8Workspace i8;
};

/** Running per-tensor max-|x| observations of every quantization
 *  candidate's input, accumulated over a calibration set by
 *  ObserveCalibration and turned into activation scales by
 *  SinanCnn::FinalizeInt8. The head observations (xrc, concat,
 *  latent) are recorded and serialized like the rest even though the
 *  head currently runs fp32 (see ForwardTrunkInt8): the format stays
 *  stable if the int8/fp32 boundary ever moves. */
struct CnnCalibration {
    float xrh = 0.0f;       // conv1 input
    float conv1_out = 0.0f; // conv2 input (post-ReLU)
    float conv2_out = 0.0f; // rh_fc input (post-ReLU, flattened)
    float xlh = 0.0f;       // lh_fc input
    float xrc = 0.0f;       // rc_fc input
    float concat = 0.0f;    // fc_latent input [rh | lh | rc] embeddings
    float latent = 0.0f;    // fc_out input (post-ReLU)
};

/** Number of per-tensor activation scales in the serialized quant
 *  section (one per CnnCalibration field, in declaration order). */
constexpr int kCnnInt8NumScales = 7;

/** The hybrid model's CNN component. */
class SinanCnn : public LatencyModel {
  public:
    /**
     * @param fcfg feature-space dimensions.
     * @param cfg architecture knobs.
     * @param seed weight-init RNG seed.
     */
    SinanCnn(const FeatureConfig& fcfg, const SinanCnnConfig& cfg,
             uint64_t seed);

    Tensor Forward(const Batch& batch) override;
    void Backward(const Tensor& dy) override;
    std::vector<Param*> Params() override;
    const char* Name() const override { return "CNN"; }
    void Save(std::ostream& out) const override;
    void Load(std::istream& in) override;

    /**
     * Trunk pass of the cached inference path: runs the rh branch
     * (conv stack + dense) and lh branch on ws.xrh/ws.xlh — a batch of
     * 1 — caching the embeddings in the workspace. Const: never
     * touches the training caches.
     */
    void ForwardTrunk(CnnEvalWorkspace& ws) const;

    /**
     * Head pass: encodes ws.xrc (one row per candidate), runs
     * fc_latent's shared [rh | lh] prefix once and continues every
     * candidate's row from it (Dense::ForwardSharedPrefixInto), and
     * fills ws.latent ([B, latent], the L_f rows the Boosted Trees
     * consume) and ws.pred ([B, M], with the persistence residual
     * applied). Requires a preceding ForwardTrunk on @p ws.
     */
    void ForwardHead(CnnEvalWorkspace& ws) const;

    /**
     * Int8 counterpart of ForwardTrunk: the same layer sequence with
     * every conv/dense matmul running on quantized operands
     * (nn/quant.h). Requires FinalizeInt8 (or LoadInt8Scales) first.
     * Bit-identical against itself across thread counts and
     * scalar/AVX2 dispatch; close to — but not bit-identical with —
     * the fp32 trunk.
     *
     * The head deliberately has no int8 counterpart: quantizing
     * fc_latent perturbs the L_f rows the Boosted Trees threshold on,
     * and a flipped tree split jumps p_violation discretely — measured
     * decision agreement vs fp32 dropped from 100% to 97% on the
     * bundled models when the head ran int8. The head is also cheap
     * (its per-candidate cost is dominated by the fp32 tree ensemble
     * next to it), so int8 mode runs the quantized trunk and the fp32
     * head/ForwardHead.
     */
    void ForwardTrunkInt8(CnnEvalWorkspace& ws) const;

    /** Folds one fp32-evaluated workspace (after ForwardTrunk +
     *  ForwardHead) into the running calibration maxima. */
    static void ObserveCalibration(const CnnEvalWorkspace& ws,
                                   CnnCalibration& cal);

    /**
     * Post-training quantization: derives per-output-channel symmetric
     * weight scales from the fp32 weights (a pure function of the
     * weights), fixes the per-tensor activation scales from @p cal,
     * and packs the int8 panels. Idempotent; call again after weight
     * updates (e.g. FineTune) to refresh.
     */
    void FinalizeInt8(const CnnCalibration& cal);

    /** Rebuilds the quantized state from serialized activation scales
     *  (model-load path; weight scales are re-derived). */
    void LoadInt8Scales(const std::array<float, kCnnInt8NumScales>& s);

    /** Activation scales in serialization order (requires Int8Ready). */
    std::array<float, kCnnInt8NumScales> Int8ActScales() const;

    /** True once FinalizeInt8/LoadInt8Scales has run. */
    bool Int8Ready() const { return int8_.ready; }

    /** Latent representation L_f [B, latent] of the last Forward. */
    const Tensor& Latent() const { return latent_; }

    const FeatureConfig& Features() const { return fcfg_; }

  private:
    FeatureConfig fcfg_;
    SinanCnnConfig cfg_;

    // rh branch: conv -> relu -> conv -> relu -> flatten -> dense -> relu.
    Conv2D conv1_;
    ReLU conv1_relu_;
    Conv2D conv2_;
    ReLU conv2_relu_;
    Flatten flatten_;
    Dense rh_fc_;
    ReLU rh_relu_;
    // lh / rc branches: dense -> relu.
    Dense lh_fc_;
    ReLU lh_relu_;
    Dense rc_fc_;
    ReLU rc_relu_;

    Dense fc_latent_;
    ReLU relu_latent_;
    Dense fc_out_;

    Tensor latent_;
    int rh_out_ = 0;
    int lh_out_ = 0;
    int rc_out_ = 0;

    /** Adds the persistence residual to ws.pred from ws.xlh. */
    void AddPersistence(CnnEvalWorkspace& ws) const;

    /** One quantized conv/dense layer: packed weights + fp32 bias. */
    struct QuantLayer {
        QuantizedLinear lin;
        std::vector<float> bias;
    };

    /** Quantized mirror of the trunk layers (empty until FinalizeInt8;
     *  copied with the model, so clones stay calibrated). The head
     *  layers are never quantized — see ForwardTrunkInt8 — but the
     *  full calibration record is kept for serialization, so the
     *  on-disk format is independent of where the int8/fp32 boundary
     *  sits. */
    struct Int8State {
        bool ready = false;
        QuantLayer conv1, conv2, rh_fc, lh_fc;
        CnnCalibration cal;
    };
    Int8State int8_;
};

} // namespace sinan

#endif // SINAN_MODELS_SINAN_CNN_H
