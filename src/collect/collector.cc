#include "collect/collector.h"

#include <algorithm>
#include <stdexcept>

namespace sinan {

namespace {

/** Dwell time per random load level of a collection run, seconds. */
constexpr double kDwellMinS = 20.0;
constexpr double kDwellMaxS = 45.0;

} // namespace

RandomStepLoad::RandomStepLoad(double users_min, double users_max,
                               double dwell_min_s, double dwell_max_s,
                               double duration_s, uint64_t seed)
{
    if (users_max < users_min || dwell_max_s < dwell_min_s)
        throw std::invalid_argument("RandomStepLoad: inverted ranges");
    Rng rng(seed);
    double t = 0.0;
    while (t < duration_s) {
        steps_.emplace_back(t, rng.Uniform(users_min, users_max));
        t += rng.Uniform(dwell_min_s, dwell_max_s);
    }
}

double
RandomStepLoad::UsersAt(double t) const
{
    double users = steps_.front().second;
    for (const auto& [start, u] : steps_) {
        if (t >= start)
            users = u;
        else
            break;
    }
    return users;
}

std::vector<double>
RandomExplorer::Decide(const IntervalObservation& /*obs*/,
                       const std::vector<double>& alloc,
                       const Application& app)
{
    std::vector<double> next(alloc.size());
    for (size_t i = 0; i < alloc.size(); ++i) {
        const TierSpec& spec = app.tiers[i];
        next[i] = rng_.Uniform(spec.min_cpu, spec.max_cpu);
    }
    return next;
}

Dataset
Collect(const Application& app, ResourceManager& policy,
        const CollectionConfig& cfg)
{
    Cluster cluster(app, cfg.cluster, cfg.seed);
    RandomStepLoad load(cfg.users_min, cfg.users_max, kDwellMinS, kDwellMaxS,
                        cfg.duration_s, cfg.seed ^ 0x5a5a);
    WorkloadGenerator gen(cluster, load, cfg.seed ^ 0xc0ffee, 1.0,
                          cfg.bursts);

    std::vector<IntervalObservation> log;
    std::vector<std::vector<double>> allocs;
    const int64_t intervals = SimConfig::IntervalsIn(cfg.duration_s);
    for (int64_t k = 0; k < intervals; ++k) {
        IntervalObservation obs = gen.RunInterval();
        allocs.push_back(cluster.Allocation());
        const std::vector<double> next =
            policy.Decide(obs, allocs.back(), app);
        cluster.SetAllocation(next);
        log.push_back(std::move(obs));
    }
    return BuildDataset(log, allocs, cfg.features);
}

Dataset
BuildDataset(const std::vector<IntervalObservation>& obs,
             const std::vector<std::vector<double>>& allocs,
             const FeatureConfig& fcfg)
{
    if (obs.size() != allocs.size())
        throw std::invalid_argument("BuildDataset: log length mismatch");
    Dataset data;
    const int t_len = fcfg.history;
    const int k = fcfg.violation_lookahead;
    const int n = static_cast<int>(obs.size());
    if (n < t_len + k + 1)
        return data;

    MetricWindow window(fcfg);
    for (int t = 0; t < n; ++t) {
        window.Push(obs[t]);
        // Need a full history window ending at t, the allocation applied
        // during t+1, and k future intervals for the violation label.
        if (!window.Ready() || t + k >= n)
            continue;
        Sample s = BuildInput(window, allocs[t + 1]);
        const IntervalObservation& next = obs[t + 1];
        s.y_latency.resize(fcfg.n_percentiles);
        for (int p = 0; p < fcfg.n_percentiles; ++p) {
            const double lat =
                p < static_cast<int>(next.latency_ms.size())
                    ? next.latency_ms[p]
                    : 0.0;
            // Targets are clipped at 2x QoS: beyond that every latency
            // is equally unacceptable, and unbounded queueing spikes
            // would otherwise dominate the squared loss and the RMSE.
            s.y_latency[p] = static_cast<float>(
                std::min(lat / fcfg.qos_ms, 2.0));
        }
        s.p99_ms = next.P99();
        s.violation = 0.0f;
        // Violation-within-k label, conditioned on allocation stability:
        // the label answers "does *this* allocation lead to a violation
        // within k intervals". If the exploration policy reclaims CPU
        // later in the window, a subsequent violation is attributable to
        // that reclaim rather than to the labeled allocation, so the
        // scan stops there (otherwise nearly every sample of a bandit
        // trajectory is labeled violating and the BT degenerates).
        double base_total = 0.0;
        for (double a : allocs[t + 1])
            base_total += a;
        for (int j = 1; j <= k && t + j < n; ++j) {
            double total_j = 0.0;
            for (double a : allocs[t + j])
                total_j += a;
            if (total_j < 0.98 * base_total)
                break;
            if (obs[t + j].P99() > fcfg.qos_ms) {
                s.violation = 1.0f;
                break;
            }
        }
        data.samples.push_back(std::move(s));
    }
    return data;
}

} // namespace sinan
