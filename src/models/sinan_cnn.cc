#include "models/sinan_cnn.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/check.h"

namespace sinan {

namespace {

/** Concatenates three [B, *] tensors along dim 1. */
Tensor
ConcatCols(const Tensor& a, const Tensor& b, const Tensor& c)
{
    const int batch = a.Dim(0);
    const int na = a.Dim(1), nb = b.Dim(1), nc = c.Dim(1);
    Tensor out({batch, na + nb + nc});
    for (int i = 0; i < batch; ++i) {
        float* row = out.Data() + static_cast<size_t>(i) * (na + nb + nc);
        std::copy(a.Data() + static_cast<size_t>(i) * na,
                  a.Data() + static_cast<size_t>(i + 1) * na, row);
        std::copy(b.Data() + static_cast<size_t>(i) * nb,
                  b.Data() + static_cast<size_t>(i + 1) * nb, row + na);
        std::copy(c.Data() + static_cast<size_t>(i) * nc,
                  c.Data() + static_cast<size_t>(i + 1) * nc,
                  row + na + nb);
    }
    return out;
}

/** Splits a [B, na+nb+nc] gradient back into its three parts. */
void
SplitCols(const Tensor& g, int na, int nb, int nc, Tensor& ga, Tensor& gb,
          Tensor& gc)
{
    const int batch = g.Dim(0);
    ga = Tensor({batch, na});
    gb = Tensor({batch, nb});
    gc = Tensor({batch, nc});
    for (int i = 0; i < batch; ++i) {
        const float* row =
            g.Data() + static_cast<size_t>(i) * (na + nb + nc);
        std::copy(row, row + na,
                  ga.Data() + static_cast<size_t>(i) * na);
        std::copy(row + na, row + na + nb,
                  gb.Data() + static_cast<size_t>(i) * nb);
        std::copy(row + na + nb, row + na + nb + nc,
                  gc.Data() + static_cast<size_t>(i) * nc);
    }
}

} // namespace

SinanCnn::SinanCnn(const FeatureConfig& fcfg, const SinanCnnConfig& cfg,
                   uint64_t seed)
    : fcfg_(fcfg), cfg_(cfg)
{
    Rng rng(seed);
    const int n = fcfg.n_tiers;
    const int t_len = fcfg.history;

    // Construction order matches the serialization order (and the
    // pre-refactor Sequential layout), so existing saved models load
    // unchanged.
    conv1_ = Conv2D(FeatureConfig::kChannels, cfg.conv_channels1,
                    cfg.kernel, rng);
    conv2_ = Conv2D(cfg.conv_channels1, cfg.conv_channels2, cfg.kernel,
                    rng);
    rh_fc_ = Dense(cfg.conv_channels2 * n * t_len, cfg.rh_embed, rng);

    lh_fc_ = Dense(fcfg.LatFeatures(), cfg.lh_embed, rng);

    rc_fc_ = Dense(n, cfg.rc_embed, rng);

    fc_latent_ = Dense(cfg.rh_embed + cfg.lh_embed + cfg.rc_embed,
                       cfg.latent, rng);
    fc_out_ = Dense(cfg.latent, fcfg.n_percentiles, rng);

    rh_out_ = cfg.rh_embed;
    lh_out_ = cfg.lh_embed;
    rc_out_ = cfg.rc_embed;
}

Tensor
SinanCnn::Forward(const Batch& batch)
{
    Tensor h = conv1_relu_.Forward(conv1_.Forward(batch.xrh));
    h = conv2_relu_.Forward(conv2_.Forward(h));
    h = flatten_.Forward(h);
    const Tensor ha = rh_relu_.Forward(rh_fc_.Forward(h));
    const Tensor hb = lh_relu_.Forward(lh_fc_.Forward(batch.xlh));
    const Tensor hc = rc_relu_.Forward(rc_fc_.Forward(batch.xrc));
    const Tensor concat = ConcatCols(ha, hb, hc);
    latent_ = relu_latent_.Forward(fc_latent_.Forward(concat));
    Tensor y = fc_out_.Forward(latent_);
    AddPersistenceResidual(batch, fcfg_, y);
    return y;
}

void
SinanCnn::ForwardTrunk(CnnEvalWorkspace& ws) const
{
    SINAN_CHECK_EQ(ws.xrh.Rank(), 4);
    SINAN_CHECK_EQ(ws.xrh.Dim(0), 1);
    SINAN_CHECK_EQ(ws.xlh.Rank(), 2);
    SINAN_CHECK_EQ(ws.xlh.Dim(0), 1);
    conv1_.ForwardInto(ws.xrh, ws.conv1_out, ws.col);
    ReluInPlace(ws.conv1_out);
    conv2_.ForwardInto(ws.conv1_out, ws.conv2_out, ws.col);
    ReluInPlace(ws.conv2_out);
    // Flatten is a pure view change on a batch of 1.
    SINAN_CHECK_MSG(
        ws.conv2_out.Size() <=
            static_cast<size_t>(std::numeric_limits<int>::max()),
        "ForwardTrunk: conv output too large to flatten");
    ws.conv2_out.ReshapeInPlace(
        {1, static_cast<int>(ws.conv2_out.Size())});
    rh_fc_.ForwardInto(ws.conv2_out, ws.rh_embed);
    ReluInPlace(ws.rh_embed);
    lh_fc_.ForwardInto(ws.xlh, ws.lh_embed);
    ReluInPlace(ws.lh_embed);
}

void
SinanCnn::AddPersistence(CnnEvalWorkspace& ws) const
{
    // Persistence residual, broadcast from the shared window row: the
    // full-batch path adds batch.xlh.At(i, base + p), and every row i
    // carries the same latency history here.
    const int batch = ws.pred.Dim(0);
    const int m = fcfg_.n_percentiles;
    const int base = (fcfg_.history - 1) * m;
    for (int i = 0; i < batch; ++i) {
        for (int p = 0; p < m; ++p)
            ws.pred.At(i, p) += ws.xlh.At(0, base + p);
    }
}

void
SinanCnn::ForwardHead(CnnEvalWorkspace& ws) const
{
    SINAN_CHECK_EQ(ws.xrc.Rank(), 2);
    SINAN_CHECK_MSG(ws.rh_embed.Size() ==
                            static_cast<size_t>(rh_out_) &&
                        ws.lh_embed.Size() == static_cast<size_t>(lh_out_),
                    "ForwardHead: trunk embeddings missing — call "
                    "ForwardTrunk first");
    rc_fc_.ForwardInto(ws.xrc, ws.rc_embed);
    ReluInPlace(ws.rc_embed);
    // Every candidate's fc_latent input is [rh | lh | rc_i], exactly the
    // rows the full-batch ConcatCols builds from B identical trunk
    // inputs; only the rc columns differ between candidates.
    fc_latent_.ForwardSharedPrefixInto({&ws.rh_embed, &ws.lh_embed},
                                       ws.rc_embed, ws.latent_prefix,
                                       ws.latent);
    ReluInPlace(ws.latent);
    fc_out_.ForwardInto(ws.latent, ws.pred);
    AddPersistence(ws);
}

namespace {

float
MaxAbs(const Tensor& t)
{
    float m = 0.0f;
    const float* p = t.Data();
    const size_t n = t.Size();
    for (size_t i = 0; i < n; ++i)
        m = std::max(m, std::fabs(p[i]));
    return m;
}

std::vector<float>
BiasVector(const Tensor& b)
{
    return std::vector<float>(b.Data(), b.Data() + b.Size());
}

} // namespace

void
SinanCnn::ForwardTrunkInt8(CnnEvalWorkspace& ws) const
{
    SINAN_CHECK_MSG(int8_.ready,
                    "ForwardTrunkInt8: model not calibrated — run "
                    "FinalizeInt8 or load a model with a quant section");
    SINAN_CHECK_EQ(ws.xrh.Rank(), 4);
    SINAN_CHECK_EQ(ws.xrh.Dim(0), 1);
    SINAN_CHECK_EQ(ws.xlh.Rank(), 2);
    SINAN_CHECK_EQ(ws.xlh.Dim(0), 1);
    // Fully fused conv stack: the activations stay u8 from the input
    // image until rh_fc's accumulators — relu and the next layer's
    // quantization are folded into each requantize pass, which skips
    // two fp32 round trips and is exact because q(relu(v)) =
    // max(q(v), 128) (see QuantizedConvForwardU8 in nn/quant.h and the
    // RequantReluScalarMatchesDispatchBytes test).
    const int in_c = ws.xrh.Dim(1);
    const int h = ws.xrh.Dim(2);
    const int w = ws.xrh.Dim(3);
    const int64_t hw = static_cast<int64_t>(h) * w;
    const int64_t oc1 = int8_.conv1.lin.n;
    const int64_t flat = int8_.rh_fc.lin.k;
    SINAN_CHECK_EQ(flat, int8_.conv2.lin.n * hw);
    uint8_t* xq = ws.i8.Act(static_cast<size_t>(in_c) * hw);
    QuantizeImageChannelLast(ws.xrh.Data(), in_c, hw,
                             int8_.conv1.lin.inv_act_scale, xq);
    uint8_t* u1 = ws.i8.Out(static_cast<size_t>(oc1) * hw);
    QuantizedConvForwardU8(int8_.conv1.lin, int8_.conv1.bias,
                           conv1_.Kernel(), xq, in_c, h, w,
                           int8_.conv2.lin.inv_act_scale, u1, ws.i8);
    // Reuses the image buffer (dead once conv1 has consumed it), sized
    // up to rh_fc's lda so the GEMM may read its zero-weight tail.
    // conv2's output stays channel-last; rh_fc's weights are packed in
    // that row order (QuantizeDenseWeightsChannelLast), so no
    // transpose happens between the conv stack and the dense trunk.
    const int64_t lda2 = Int8KGroups(flat) * 4;
    uint8_t* u2 = ws.i8.Act(static_cast<size_t>(
        std::max(static_cast<int64_t>(in_c) * hw, lda2)));
    QuantizedConvForwardU8(int8_.conv2.lin, int8_.conv2.bias,
                           conv2_.Kernel(), u1, static_cast<int>(oc1),
                           h, w, int8_.rh_fc.lin.inv_act_scale, u2,
                           ws.i8);
    QuantizedDenseForwardU8(int8_.rh_fc.lin, int8_.rh_fc.bias, u2,
                            ws.rh_embed, ws.i8);
    ReluInPlace(ws.rh_embed);
    QuantizedDenseForward(int8_.lh_fc.lin, int8_.lh_fc.bias, ws.xlh,
                          ws.lh_embed, ws.i8);
    ReluInPlace(ws.lh_embed);
}

void
SinanCnn::ObserveCalibration(const CnnEvalWorkspace& ws,
                             CnnCalibration& cal)
{
    cal.xrh = std::max(cal.xrh, MaxAbs(ws.xrh));
    cal.conv1_out = std::max(cal.conv1_out, MaxAbs(ws.conv1_out));
    cal.conv2_out = std::max(cal.conv2_out, MaxAbs(ws.conv2_out));
    cal.xlh = std::max(cal.xlh, MaxAbs(ws.xlh));
    cal.xrc = std::max(cal.xrc, MaxAbs(ws.xrc));
    // fc_latent's input rows are [rh | lh | rc_i]: their max-|x| is the
    // max over the three embeddings.
    cal.concat = std::max({cal.concat, MaxAbs(ws.rh_embed),
                           MaxAbs(ws.lh_embed), MaxAbs(ws.rc_embed)});
    cal.latent = std::max(cal.latent, MaxAbs(ws.latent));
}

void
SinanCnn::FinalizeInt8(const CnnCalibration& cal)
{
    // Convs are consumed transposed — positions x output channels, in
    // the channel-last patch order — so the per-output-channel scales
    // sit on GEMM columns (see QuantizeConvWeights).
    auto quant_conv = [](const Conv2D& src, QuantLayer& dst) {
        const Tensor& w = src.Weight(); // [OC, C, K, K]
        QuantizeConvWeights(dst.lin, w.Data(), w.Dim(1), w.Dim(0),
                            w.Dim(2));
        dst.bias = BiasVector(src.Bias());
    };
    auto quant_dense = [](const Dense& src, QuantLayer& dst) {
        const Tensor& w = src.Weight(); // [in, out]
        dst.lin.QuantizeWeights(w.Data(), w.Dim(0), w.Dim(1),
                                /*row_stride=*/w.Dim(1),
                                /*col_stride=*/1);
        dst.bias = BiasVector(src.Bias());
    };
    quant_conv(conv1_, int8_.conv1);
    quant_conv(conv2_, int8_.conv2);
    // rh_fc consumes the fused conv stack's channel-last u8 output, so
    // its input rows are permuted to that order at pack time (results
    // are identical — see QuantizeDenseWeightsChannelLast).
    {
        const Tensor& w = rh_fc_.Weight(); // [in, out]
        QuantizeDenseWeightsChannelLast(int8_.rh_fc.lin, w.Data(),
                                        w.Dim(0), w.Dim(1),
                                        cfg_.conv_channels2);
        int8_.rh_fc.bias = BiasVector(rh_fc_.Bias());
    }
    quant_dense(lh_fc_, int8_.lh_fc);

    int8_.conv1.lin.SetActivationScale(cal.xrh);
    int8_.conv2.lin.SetActivationScale(cal.conv1_out);
    int8_.rh_fc.lin.SetActivationScale(cal.conv2_out);
    int8_.lh_fc.lin.SetActivationScale(cal.xlh);
    // The head observations are retained verbatim for serialization
    // even though the head runs fp32 (see ForwardTrunkInt8's doc).
    int8_.cal = cal;
    int8_.ready = true;
}

void
SinanCnn::LoadInt8Scales(const std::array<float, kCnnInt8NumScales>& s)
{
    // The serialized scales are the max-|x| observations (not the
    // derived s_a), so FinalizeInt8 reproduces the calibrated state
    // exactly from weights + these seven numbers.
    CnnCalibration cal;
    cal.xrh = s[0];
    cal.conv1_out = s[1];
    cal.conv2_out = s[2];
    cal.xlh = s[3];
    cal.xrc = s[4];
    cal.concat = s[5];
    cal.latent = s[6];
    FinalizeInt8(cal);
}

std::array<float, kCnnInt8NumScales>
SinanCnn::Int8ActScales() const
{
    SINAN_CHECK_MSG(int8_.ready, "Int8ActScales: model not calibrated");
    // The serialized form is the raw max-|x| record, so a save/load
    // round trip feeds FinalizeInt8 exactly the same inputs.
    const CnnCalibration& c = int8_.cal;
    return {c.xrh, c.conv1_out, c.conv2_out, c.xlh,
            c.xrc, c.concat,    c.latent};
}

void
SinanCnn::Backward(const Tensor& dy)
{
    Tensor g = fc_out_.Backward(dy);
    g = fc_latent_.Backward(relu_latent_.Backward(g));
    Tensor ga, gb, gc;
    SplitCols(g, rh_out_, lh_out_, rc_out_, ga, gb, gc);
    ga = rh_fc_.Backward(rh_relu_.Backward(ga));
    ga = flatten_.Backward(ga);
    ga = conv2_.Backward(conv2_relu_.Backward(ga));
    (void)conv1_.Backward(conv1_relu_.Backward(ga));
    (void)lh_fc_.Backward(lh_relu_.Backward(gb));
    (void)rc_fc_.Backward(rc_relu_.Backward(gc));
}

std::vector<Param*>
SinanCnn::Params()
{
    std::vector<Param*> all;
    for (Layer* l : {static_cast<Layer*>(&conv1_),
                     static_cast<Layer*>(&conv2_),
                     static_cast<Layer*>(&rh_fc_),
                     static_cast<Layer*>(&lh_fc_),
                     static_cast<Layer*>(&rc_fc_),
                     static_cast<Layer*>(&fc_latent_),
                     static_cast<Layer*>(&fc_out_)}) {
        for (Param* p : l->Params())
            all.push_back(p);
    }
    return all;
}

void
SinanCnn::Save(std::ostream& out) const
{
    conv1_.Save(out);
    conv2_.Save(out);
    rh_fc_.Save(out);
    lh_fc_.Save(out);
    rc_fc_.Save(out);
    fc_latent_.Save(out);
    fc_out_.Save(out);
}

void
SinanCnn::Load(std::istream& in)
{
    conv1_.Load(in);
    conv2_.Load(in);
    rh_fc_.Load(in);
    lh_fc_.Load(in);
    rc_fc_.Load(in);
    fc_latent_.Load(in);
    fc_out_.Load(in);
}

} // namespace sinan
