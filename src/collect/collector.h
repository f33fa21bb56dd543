/**
 * @file
 * Training-data collection runs: drives the simulated cluster with a
 * policy (the bandit explorer, or the autoscaling / random baselines of
 * the paper's Figure 10), sweeps the load through a randomized schedule,
 * and post-processes the interval log into labeled Samples (next-interval
 * latency percentiles + violation-within-k flag).
 */
#ifndef SINAN_COLLECT_COLLECTOR_H
#define SINAN_COLLECT_COLLECTOR_H

#include <memory>

#include "cluster/cluster.h"
#include "core/manager.h"
#include "models/features.h"
#include "workload/workload.h"

namespace sinan {

/** Collection-run parameters. */
struct CollectionConfig {
    /** Simulated collection time in seconds (~ samples collected). */
    double duration_s = 2000.0;
    /** Load schedule range (emulated users). */
    double users_min = 50.0;
    double users_max = 450.0;
    /** Feature space (history T, lookahead k, QoS). */
    FeatureConfig features;
    ClusterConfig cluster;
    /** Micro-bursts on by default so the dataset covers transients. */
    BurstOptions bursts = DefaultBursts();
    uint64_t seed = 42;
};

/**
 * Load shape that holds a uniformly random user count for a random dwell
 * and then jumps — covers the rps dimension of the state space.
 */
class RandomStepLoad : public LoadShape {
  public:
    RandomStepLoad(double users_min, double users_max, double dwell_min_s,
                   double dwell_max_s, double duration_s, uint64_t seed);

    double UsersAt(double t) const override;

  private:
    std::vector<std::pair<double, double>> steps_; // (start, users)
};

/**
 * Uniform-random allocation policy — the paper's "random data collection"
 * straw man (Fig. 10b).
 */
class RandomExplorer : public ResourceManager {
  public:
    explicit RandomExplorer(uint64_t seed) : rng_(seed) {}

    std::vector<double> Decide(const IntervalObservation& obs,
                               const std::vector<double>& alloc,
                               const Application& app) override;

    const char* Name() const override { return "RandomExplorer"; }

  private:
    Rng rng_;
};

/**
 * Runs @p policy against @p app for the configured duration and returns
 * the labeled dataset. The first T+k intervals produce no samples (no
 * full window / lookahead).
 */
Dataset Collect(const Application& app, ResourceManager& policy,
                const CollectionConfig& cfg);

/**
 * Builds samples out of an interval log: windows of T observations,
 * the allocation applied in the following interval, that interval's
 * latency percentiles as the target, and the violation-within-k label.
 * @p allocs[i] must be the allocation in force during observation i.
 */
Dataset BuildDataset(const std::vector<IntervalObservation>& obs,
                     const std::vector<std::vector<double>>& allocs,
                     const FeatureConfig& fcfg);

} // namespace sinan

#endif // SINAN_COLLECT_COLLECTOR_H
