#include "models/hybrid.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>

#include "common/check.h"
#include "common/cpu_features.h"

namespace sinan {

namespace {

using Clock = std::chrono::steady_clock;

double
Seconds(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Writes row @p row's Boosted-Trees features into @p out, feature j
 *  at out[j * stride]: [latent L_f | normalized X_RC | total
 *  allocation, current p99, mean utilization, traffic]. The one writer
 *  of this layout, shared by training (TrainBt, one row-major row at
 *  stride 1) and inference (ScoreCandidates, one column of the
 *  feature-major candidate matrix), so the two can never disagree on
 *  it. */
void
WriteBtFeatures(const Tensor& latent, const Tensor& xrc, int row,
                float cur_p99, float util, float traffic, float* out,
                int64_t stride)
{
    const int latent_dim = latent.Dim(1);
    const int n = xrc.Dim(1);
    const float* lat = latent.Data() + static_cast<size_t>(row) * latent_dim;
    const float* rc = xrc.Data() + static_cast<size_t>(row) * n;
    for (int j = 0; j < latent_dim; ++j)
        out[j * stride] = lat[j];
    float* rc_out = out + latent_dim * stride;
    float total_alloc = 0.0f;
    for (int j = 0; j < n; ++j) {
        rc_out[j * stride] = rc[j];
        total_alloc += rc[j];
    }
    float* agg = rc_out + n * stride;
    agg[0] = total_alloc;
    agg[stride] = cur_p99;
    agg[2 * stride] = util;
    agg[3 * stride] = traffic;
}

} // namespace

HybridModel::HybridModel(const FeatureConfig& fcfg, const HybridConfig& cfg,
                         uint64_t seed)
    : fcfg_(fcfg), cfg_(cfg), cnn_(fcfg, cfg.cnn, seed), bt_(cfg.bt)
{
}

void
HybridModel::SharedAggregates(const Tensor& xrh, const Tensor& xlh, int row,
                              float* cur_p99, float* util,
                              float* traffic) const
{
    // Aggregates from the newest history step.
    const int n = fcfg_.n_tiers;
    const int t_last = fcfg_.history - 1;
    const int m = fcfg_.n_percentiles;
    *cur_p99 = xlh.At(row, fcfg_.history * m - 1);
    float u = 0.0f, tr = 0.0f;
    for (int i = 0; i < n; ++i) {
        const float limit = xrh.At(row, 0, i, t_last);
        const float used = xrh.At(row, 1, i, t_last);
        u += limit > 1e-6f ? used / limit : 0.0f;
        tr += xrh.At(row, 4, i, t_last);
    }
    *util = u / static_cast<float>(n);
    *traffic = tr;
}

void
HybridModel::ScoreCandidates(const Tensor& latent, const Tensor& xrc,
                             const Tensor& pred, float cur_p99, float util,
                             float traffic, std::vector<Prediction>& out)
{
    const int n_cands = pred.Dim(0);
    const int m = pred.Dim(1);
    const int nf = latent.Dim(1) + xrc.Dim(1) + 4;
    // Feature-major: the batch tree kernel reads one feature of eight
    // neighbouring candidates per step.
    bt_cols_.EnsureShape({nf, n_cands});
    bt_prob_.resize(static_cast<size_t>(n_cands));
    for (int i = 0; i < n_cands; ++i) {
        WriteBtFeatures(latent, xrc, i, cur_p99, util, traffic,
                        bt_cols_.Data() + i, n_cands);
    }
    bt_.PredictBatch(bt_cols_.Data(), n_cands, n_cands, bt_prob_.data());

    out.resize(static_cast<size_t>(n_cands));
    const float* pr = pred.Data();
    for (int i = 0; i < n_cands; ++i) {
        Prediction& p = out[static_cast<size_t>(i)];
        p.latency_ms.resize(static_cast<size_t>(m));
        for (int j = 0; j < m; ++j) {
            p.latency_ms[static_cast<size_t>(j)] =
                static_cast<double>(pr[static_cast<size_t>(i) * m + j]) *
                fcfg_.qos_ms;
        }
        p.p_violation = bt_prob_[static_cast<size_t>(i)];
    }
}

void
HybridModel::TrainBt(const Dataset& train, const Dataset& valid,
                     HybridReport& report)
{
    auto build = [&](const Dataset& data) {
        GbtDataset out;
        std::vector<float> row;
        std::vector<int> order(data.samples.size());
        std::iota(order.begin(), order.end(), 0);
        constexpr size_t kChunk = 256;
        for (size_t begin = 0; begin < order.size(); begin += kChunk) {
            const size_t end = std::min(begin + kChunk, order.size());
            const Batch batch = data.MakeBatch(order, begin, end);
            (void)cnn_.Forward(batch);
            const Tensor& latent = cnn_.Latent();
            row.resize(static_cast<size_t>(latent.Dim(1) +
                                           batch.xrc.Dim(1) + 4));
            for (size_t i = begin; i < end; ++i) {
                const int r = static_cast<int>(i - begin);
                float cur_p99 = 0.0f, util = 0.0f, traffic = 0.0f;
                SharedAggregates(batch.xrh, batch.xlh, r, &cur_p99, &util,
                                 &traffic);
                WriteBtFeatures(latent, batch.xrc, r, cur_p99, util,
                                traffic, row.data(), 1);
                out.AddRow(row, data.samples[order[i]].violation);
            }
        }
        return out;
    };

    const GbtDataset bt_train = build(train);
    const GbtDataset bt_valid = build(valid);

    const auto t0 = Clock::now();
    bt_ = BoostedTrees(cfg_.bt);
    bt_.Train(bt_train, bt_valid.n_rows ? &bt_valid : nullptr);
    report.bt_train_time_s = Seconds(t0, Clock::now());
    report.bt_trees = bt_.NumTrees();

    auto eval = [&](const GbtDataset& data, double* false_pos,
                    double* false_neg) {
        if (data.n_rows == 0)
            return 0.0;
        int correct = 0, fp = 0, fn = 0, neg = 0, pos = 0;
        for (int i = 0; i < data.n_rows; ++i) {
            const double p =
                bt_.Predict(&data.x[static_cast<size_t>(i) *
                                    data.n_features]);
            const bool pred = p >= 0.5;
            const bool truth = static_cast<double>(data.y[i]) >= 0.5;
            if (pred == truth)
                ++correct;
            if (truth) {
                ++pos;
                if (!pred)
                    ++fn;
            } else {
                ++neg;
                if (pred)
                    ++fp;
            }
        }
        if (false_pos)
            *false_pos = neg ? static_cast<double>(fp) / neg : 0.0;
        if (false_neg)
            *false_neg = pos ? static_cast<double>(fn) / pos : 0.0;
        return static_cast<double>(correct) / data.n_rows;
    };
    report.bt_train_accuracy = eval(bt_train, nullptr, nullptr);
    report.bt_val_accuracy =
        eval(bt_valid, &report.bt_val_false_pos, &report.bt_val_false_neg);
}

HybridReport
HybridModel::Train(const Dataset& train, const Dataset& valid)
{
    HybridReport report;
    report.cnn = TrainLatencyModel(cnn_, train, valid, fcfg_, cfg_.train);
    val_rmse_ms_ = report.cnn.val_rmse_ms;
    val_rmse_subqos_ms_ = report.cnn.val_rmse_subqos_ms;
    TrainBt(train, valid, report);
    return report;
}

HybridReport
HybridModel::FineTune(const Dataset& train, const Dataset& valid,
                      const TrainOptions& opts)
{
    HybridReport report;
    report.cnn = TrainLatencyModel(cnn_, train, valid, fcfg_, opts);
    val_rmse_ms_ = report.cnn.val_rmse_ms;
    val_rmse_subqos_ms_ = report.cnn.val_rmse_subqos_ms;
    TrainBt(train, valid, report);
    return report;
}

std::vector<Prediction>
HybridModel::Evaluate(const MetricWindow& window,
                      const std::vector<std::vector<double>>& allocations)
{
    return EvaluateTimed(window, allocations, nullptr);
}

std::vector<Prediction>
HybridModel::EvaluateTimed(const MetricWindow& window,
                           const std::vector<std::vector<double>>& allocations,
                           EvalStageTimes* stages)
{
    if (allocations.empty())
        return {};
    const int n = window.Config().n_tiers;
    const int n_cands = static_cast<int>(allocations.size());

    // Feature build: the shared window row once, one allocation row
    // per candidate — no Sample materialization, no stacking copy.
    auto t0 = Clock::now();
    ws_.xrh.EnsureShape(
        {1, FeatureConfig::kChannels, n, fcfg_.history});
    ws_.xlh.EnsureShape({1, fcfg_.LatFeatures()});
    BuildHistoryRow(window, ws_.xrh, ws_.xlh, 0);
    ws_.xrc.EnsureShape({n_cands, n});
    for (int i = 0; i < n_cands; ++i) {
        SINAN_CHECK_EQ(allocations[static_cast<size_t>(i)].size(),
                       static_cast<size_t>(n));
        BuildAllocRow(window.Config(), allocations[static_cast<size_t>(i)],
                      ws_.xrc, i);
    }
    auto t1 = Clock::now();

    // Trunk once per interval, head once per candidate batch.
    const bool int8 = quant_ == QuantMode::kInt8;
    if (int8)
        cnn_.ForwardTrunkInt8(ws_);
    else
        cnn_.ForwardTrunk(ws_);
    auto t2 = Clock::now();
    // The head runs fp32 in both modes: quantizing it perturbs the
    // latent rows the tree ensemble thresholds on and flips decisions
    // (see SinanCnn::ForwardTrunkInt8), while the trunk carries the
    // fixed per-interval cost int8 is after.
    cnn_.ForwardHead(ws_);
    auto t3 = Clock::now();
    SINAN_CHECK_EQ(ws_.pred.Dim(0), n_cands);

    float cur_p99 = 0.0f, util = 0.0f, traffic = 0.0f;
    SharedAggregates(ws_.xrh, ws_.xlh, 0, &cur_p99, &util, &traffic);
    std::vector<Prediction> out;
    ScoreCandidates(ws_.latent, ws_.xrc, ws_.pred, cur_p99, util, traffic,
                    out);
    auto t4 = Clock::now();

    if (stages) {
        stages->feature_build_s = Seconds(t0, t1);
        stages->trunk_s = Seconds(t1, t2);
        stages->head_s = Seconds(t2, t3);
        stages->bt_s = Seconds(t3, t4);
        stages->kernel_id = int8 ? ActiveInt8KernelId() : ActiveKernelId();
    }
    return out;
}

std::vector<Prediction>
HybridModel::EvaluateFullBatch(
    const MetricWindow& window,
    const std::vector<std::vector<double>>& allocations)
{
    if (allocations.empty())
        return {};
    const int n = window.Config().n_tiers;
    const int n_cands = static_cast<int>(allocations.size());

    // Row-direct stacking: every candidate repeats the window history.
    Batch batch;
    batch.xrh =
        Tensor({n_cands, FeatureConfig::kChannels, n, fcfg_.history});
    batch.xlh = Tensor({n_cands, fcfg_.LatFeatures()});
    batch.xrc = Tensor({n_cands, n});
    for (int i = 0; i < n_cands; ++i) {
        SINAN_CHECK_EQ(allocations[static_cast<size_t>(i)].size(),
                       static_cast<size_t>(n));
        BuildHistoryRow(window, batch.xrh, batch.xlh, i);
        BuildAllocRow(window.Config(), allocations[static_cast<size_t>(i)],
                      batch.xrc, i);
    }

    const Tensor pred = cnn_.Forward(batch);
    const Tensor& latent = cnn_.Latent();
    SINAN_CHECK_EQ(pred.Dim(0), n_cands);

    float cur_p99 = 0.0f, util = 0.0f, traffic = 0.0f;
    SharedAggregates(batch.xrh, batch.xlh, 0, &cur_p99, &util, &traffic);
    std::vector<Prediction> out;
    ScoreCandidates(latent, batch.xrc, pred, cur_p99, util, traffic, out);
    return out;
}

std::unique_ptr<HybridModel>
HybridModel::Clone() const
{
    return std::unique_ptr<HybridModel>(new HybridModel(*this));
}

void
HybridModel::CalibrateInt8(const Dataset& calib, int max_samples)
{
    SINAN_CHECK_MSG(!calib.samples.empty(),
                    "CalibrateInt8: empty calibration set");
    const int count = std::min(
        max_samples, static_cast<int>(calib.samples.size()));
    CnnCalibration cal;
    for (int i = 0; i < count; ++i) {
        const Sample& s = calib.samples[static_cast<size_t>(i)];
        ws_.xrh.EnsureShape({1, s.xrh.Dim(0), s.xrh.Dim(1), s.xrh.Dim(2)});
        std::copy(s.xrh.Data(), s.xrh.Data() + s.xrh.Size(),
                  ws_.xrh.Data());
        ws_.xlh.EnsureShape({1, s.xlh.Dim(0)});
        std::copy(s.xlh.Data(), s.xlh.Data() + s.xlh.Size(),
                  ws_.xlh.Data());
        ws_.xrc.EnsureShape({1, s.xrc.Dim(0)});
        std::copy(s.xrc.Data(), s.xrc.Data() + s.xrc.Size(),
                  ws_.xrc.Data());
        cnn_.ForwardTrunk(ws_);
        cnn_.ForwardHead(ws_);
        SinanCnn::ObserveCalibration(ws_, cal);
    }
    cnn_.FinalizeInt8(cal);
}

void
HybridModel::SetQuantMode(QuantMode mode)
{
    if (mode == QuantMode::kInt8 && !cnn_.Int8Ready())
        throw std::runtime_error(
            "SetQuantMode: int8 requested but the model is not "
            "calibrated — run CalibrateInt8 or load a model with a "
            "quant section");
    quant_ = mode;
}

void
HybridModel::Save(std::ostream& out) const
{
    out.write(reinterpret_cast<const char*>(&kModelMagic),
              sizeof(kModelMagic));
    out.write(reinterpret_cast<const char*>(&kModelVersion),
              sizeof(kModelVersion));
    cnn_.Save(out);
    bt_.Save(out);
    out.write(reinterpret_cast<const char*>(&val_rmse_ms_),
              sizeof(val_rmse_ms_));
    out.write(reinterpret_cast<const char*>(&val_rmse_subqos_ms_),
              sizeof(val_rmse_subqos_ms_));
    const int32_t has_quant = cnn_.Int8Ready() ? 1 : 0;
    out.write(reinterpret_cast<const char*>(&has_quant),
              sizeof(has_quant));
    if (has_quant) {
        const auto scales = cnn_.Int8ActScales();
        out.write(reinterpret_cast<const char*>(scales.data()),
                  sizeof(float) * scales.size());
    }
}

void
HybridModel::Load(std::istream& in)
{
    int32_t header[2] = {0, 0}; // magic, version
    in.read(reinterpret_cast<char*>(header), sizeof(header));
    if (!in)
        throw std::runtime_error("HybridModel::Load: truncated stream");
    if (header[0] != kModelMagic)
        throw std::runtime_error(
            "HybridModel::Load: missing SINN magic (not a model "
            "container)");
    if (header[1] != kModelVersion)
        throw std::runtime_error(
            "HybridModel::Load: unsupported model format version " +
            std::to_string(header[1]) + " (this build reads version " +
            std::to_string(kModelVersion) + ")");
    cnn_.Load(in);
    bt_.Load(in);
    in.read(reinterpret_cast<char*>(&val_rmse_ms_), sizeof(val_rmse_ms_));
    in.read(reinterpret_cast<char*>(&val_rmse_subqos_ms_),
            sizeof(val_rmse_subqos_ms_));
    if (!in)
        throw std::runtime_error("HybridModel::Load: truncated stream");
    int32_t has_quant = 0;
    in.read(reinterpret_cast<char*>(&has_quant), sizeof(has_quant));
    if (!in)
        throw std::runtime_error(
            "HybridModel::Load: truncated quant section");
    if (has_quant) {
        std::array<float, kCnnInt8NumScales> scales{};
        in.read(reinterpret_cast<char*>(scales.data()),
                sizeof(float) * scales.size());
        if (!in)
            throw std::runtime_error(
                "HybridModel::Load: truncated quant section");
        cnn_.LoadInt8Scales(scales);
    }
}

} // namespace sinan
