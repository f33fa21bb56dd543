/**
 * @file
 * Minibatch SGD training loop for latency predictors, with the paper's
 * scaled squared loss (Eq. 2) and the timing/size metrics reported in
 * Table 2.
 */
#ifndef SINAN_MODELS_TRAINER_H
#define SINAN_MODELS_TRAINER_H

#include "models/latency_model.h"

namespace sinan {

/** Knobs of one training run. */
struct TrainOptions {
    int epochs = 20;
    int batch_size = 64;
    double lr = 0.02;
    /** Multiplicative learning-rate decay per epoch. */
    double lr_decay = 0.95;
    /** Use the scaled loss of Eq. 2 (false = plain MSE, for ablation). */
    bool scaled_loss = true;
    /** Knee of phi(.) in normalized latency units (1.0 = the QoS). */
    double loss_knee = 1.0;
    /** Decay coefficient of phi(.) in normalized units (alpha * QoS). */
    double loss_alpha = 5.0;
    /** Gradient leak above the knee (see ScaledMseLoss). */
    double loss_leak = 0.05;
    /** Minibatch shuffling seed. */
    uint64_t seed = 1;

    /** SGD momentum and L2 weight decay of every training run. */
    static constexpr double kMomentum = 0.9;
    static constexpr double kWeightDecay = 1e-4;
};

/** Accuracy and cost summary of a training run (Table 2's columns). */
struct TrainReport {
    double train_rmse_ms = 0.0;
    double val_rmse_ms = 0.0;
    /** Validation RMSE restricted to samples whose true p99 met QoS —
     *  the operating region the scheduler's latency margin cares about
     *  (overall RMSE is dominated by unbounded queueing spikes). */
    double val_rmse_subqos_ms = 0.0;
    double train_time_s = 0.0;
    /** Mean wall-clock per training step (fwd+bwd+update) per batch. */
    double train_ms_per_batch = 0.0;
    /** Mean wall-clock of a forward pass per batch. */
    double infer_ms_per_batch = 0.0;
    size_t n_params = 0;
    int epochs_run = 0;
};

/**
 * Trains @p model on @p train, evaluating on @p valid.
 * RMSEs are reported in milliseconds over all predicted percentiles.
 */
TrainReport TrainLatencyModel(LatencyModel& model, const Dataset& train,
                              const Dataset& valid,
                              const FeatureConfig& fcfg,
                              const TrainOptions& opts);

/** RMSE in ms of @p model on @p data (all percentiles). */
double EvalRmseMs(LatencyModel& model, const Dataset& data,
                  const FeatureConfig& fcfg, int batch_size = 256);

/** RMSE in ms over the subset of @p data with true p99 <= QoS. */
double EvalRmseSubQosMs(LatencyModel& model, const Dataset& data,
                        const FeatureConfig& fcfg, int batch_size = 256);

/**
 * Per-sample p99 predictions in ms, in dataset order (used by the
 * figure benches that plot predicted vs. true latency).
 */
std::vector<double> PredictP99Ms(LatencyModel& model, const Dataset& data,
                                 const FeatureConfig& fcfg,
                                 int batch_size = 256);

} // namespace sinan

#endif // SINAN_MODELS_TRAINER_H
