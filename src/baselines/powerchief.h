/**
 * @file
 * PowerChief-style queueing-analysis manager (Yang et al., ISCA'17), the
 * paper's research baseline: it estimates per-tier queueing from network
 * traces, declares the tier with the longest ingress queue the
 * bottleneck, and boosts that tier's resources while reclaiming from
 * apparently idle stages.
 *
 * As the paper argues (Sec. 5.3), in microservice graphs the longest
 * queue is often a symptom of a downstream culprit rather than the
 * culprit itself, so this policy misdirects resources under
 * back-pressure — the behaviour our Figure 11 reproduction shows.
 */
#ifndef SINAN_BASELINES_POWERCHIEF_H
#define SINAN_BASELINES_POWERCHIEF_H

#include "core/manager.h"

namespace sinan {

/** PowerChief knobs. */
struct PowerChiefConfig {
    /** How many of the longest-queue tiers get boosted per interval. */
    int boost_top_k = 3;
};

/** Queue-driven boosting manager. */
class PowerChief : public ResourceManager {
  public:
    explicit PowerChief(const PowerChiefConfig& cfg = PowerChiefConfig());

    std::vector<double> Decide(const IntervalObservation& obs,
                               const std::vector<double>& alloc,
                               const Application& app) override;

    const char* Name() const override { return "PowerChief"; }

  private:
    PowerChiefConfig cfg_;
};

} // namespace sinan

#endif // SINAN_BASELINES_POWERCHIEF_H
