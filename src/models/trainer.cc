#include "models/trainer.h"

#include <chrono>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "nn/loss.h"
#include "nn/optimizer.h"

namespace sinan {

namespace {

using Clock = std::chrono::steady_clock;

/** Global gradient-norm clip of the optimizer. */
constexpr double kGradClip = 5.0;

double
SecondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace

TrainReport
TrainLatencyModel(LatencyModel& model, const Dataset& train,
                  const Dataset& valid, const FeatureConfig& fcfg,
                  const TrainOptions& opts)
{
    if (train.samples.empty())
        throw std::invalid_argument("TrainLatencyModel: empty train set");
    TrainReport report;
    report.n_params = model.NumParams();

    Sgd sgd(model.Params(), opts.lr, TrainOptions::kMomentum,
            TrainOptions::kWeightDecay, kGradClip);
    Rng rng(opts.seed);

    std::vector<int> order(train.samples.size());
    std::iota(order.begin(), order.end(), 0);

    const auto t0 = Clock::now();
    size_t steps = 0;
    for (int epoch = 0; epoch < opts.epochs; ++epoch) {
        for (size_t i = order.size(); i > 1; --i) {
            const size_t j = rng.UniformInt(static_cast<uint64_t>(i));
            std::swap(order[i - 1], order[j]);
        }
        for (size_t begin = 0; begin < order.size();
             begin += opts.batch_size) {
            const size_t end =
                std::min(begin + opts.batch_size, order.size());
            const Batch batch = train.MakeBatch(order, begin, end);
            const Tensor target =
                train.MakeLatencyTargets(order, begin, end);
            const Tensor pred = model.Forward(batch);
            const LossResult loss =
                opts.scaled_loss
                    ? ScaledMseLoss(pred, target, opts.loss_knee,
                                    opts.loss_alpha, opts.loss_leak)
                    : MseLoss(pred, target);
            sgd.ZeroGrad();
            model.Backward(loss.grad);
            sgd.Step();
            ++steps;
        }
        sgd.SetLearningRate(sgd.LearningRate() * opts.lr_decay);
        ++report.epochs_run;
    }
    report.train_time_s = SecondsSince(t0);
    report.train_ms_per_batch =
        steps ? 1000.0 * report.train_time_s / static_cast<double>(steps)
              : 0.0;

    report.train_rmse_ms = EvalRmseMs(model, train, fcfg);
    if (!valid.samples.empty()) {
        report.val_rmse_ms = EvalRmseMs(model, valid, fcfg);
        report.val_rmse_subqos_ms = EvalRmseSubQosMs(model, valid, fcfg);
    }

    // Inference timing on a representative batch.
    {
        const size_t nb =
            std::min<size_t>(opts.batch_size, train.samples.size());
        std::vector<int> idx(nb);
        std::iota(idx.begin(), idx.end(), 0);
        const Batch batch = train.MakeBatch(idx, 0, nb);
        const auto ti = Clock::now();
        constexpr int kReps = 20;
        for (int r = 0; r < kReps; ++r)
            (void)model.Forward(batch);
        report.infer_ms_per_batch = 1000.0 * SecondsSince(ti) / kReps;
    }
    return report;
}

double
EvalRmseMs(LatencyModel& model, const Dataset& data,
           const FeatureConfig& fcfg, int batch_size)
{
    if (data.samples.empty())
        return 0.0;
    std::vector<int> order(data.samples.size());
    std::iota(order.begin(), order.end(), 0);
    double acc = 0.0;
    size_t count = 0;
    for (size_t begin = 0; begin < order.size();
         begin += static_cast<size_t>(batch_size)) {
        const size_t end =
            std::min(begin + static_cast<size_t>(batch_size), order.size());
        const Batch batch = data.MakeBatch(order, begin, end);
        const Tensor target = data.MakeLatencyTargets(order, begin, end);
        const Tensor pred = model.Forward(batch);
        for (size_t i = 0; i < pred.Size(); ++i) {
            const double d =
                static_cast<double>(pred[i] - target[i]) * fcfg.qos_ms;
            acc += d * d;
            ++count;
        }
    }
    return std::sqrt(acc / static_cast<double>(count));
}

double
EvalRmseSubQosMs(LatencyModel& model, const Dataset& data,
                 const FeatureConfig& fcfg, int batch_size)
{
    Dataset sub;
    for (const Sample& s : data.samples) {
        if (s.p99_ms <= fcfg.qos_ms)
            sub.samples.push_back(s);
    }
    return EvalRmseMs(model, sub, fcfg, batch_size);
}

std::vector<double>
PredictP99Ms(LatencyModel& model, const Dataset& data,
             const FeatureConfig& fcfg, int batch_size)
{
    std::vector<double> out;
    out.reserve(data.samples.size());
    std::vector<int> order(data.samples.size());
    std::iota(order.begin(), order.end(), 0);
    for (size_t begin = 0; begin < order.size();
         begin += static_cast<size_t>(batch_size)) {
        const size_t end =
            std::min(begin + static_cast<size_t>(batch_size), order.size());
        const Batch batch = data.MakeBatch(order, begin, end);
        const Tensor pred = model.Forward(batch);
        const int m = pred.Dim(1);
        for (int i = 0; i < pred.Dim(0); ++i)
            out.push_back(static_cast<double>(pred.At(i, m - 1)) *
                          fcfg.qos_ms);
    }
    return out;
}

} // namespace sinan
