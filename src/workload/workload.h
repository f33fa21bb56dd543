/**
 * @file
 * Open-loop workload generation, standing in for the paper's Locust
 * deployment: each emulated user issues requests as a Poisson process with
 * a 1 RPS mean rate (Sec. 5.3), and the number of users follows a load
 * shape (constant for the Figure 11 sweep, diurnal for Figure 12).
 * Request types are sampled from the application's mix weights.
 */
#ifndef SINAN_WORKLOAD_WORKLOAD_H
#define SINAN_WORKLOAD_WORKLOAD_H

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"

namespace sinan {

/** Number of emulated users as a function of time. */
class LoadShape {
  public:
    virtual ~LoadShape() = default;
    /** Users active at simulated time @p t (fractional values allowed). */
    virtual double UsersAt(double t) const = 0;
};

/** Fixed user population. */
class ConstantLoad : public LoadShape {
  public:
    explicit ConstantLoad(double users) : users_(users) {}
    double UsersAt(double) const override { return users_; }

  private:
    double users_;
};

/**
 * Smooth diurnal pattern: users oscillate between @p low and @p high with
 * the given period, starting at the trough.
 */
class DiurnalLoad : public LoadShape {
  public:
    DiurnalLoad(double low, double high, double period_s);
    double UsersAt(double t) const override;

  private:
    double low_;
    double high_;
    double period_s_;
};

/** Piecewise-constant schedule of (start time, users) steps. */
class StepLoad : public LoadShape {
  public:
    /** @p steps must be sorted by time; the first entry should be t=0. */
    explicit StepLoad(std::vector<std::pair<double, double>> steps);
    double UsersAt(double t) const override;

  private:
    std::vector<std::pair<double, double>> steps_;
};

/** One deterministic flash-crowd spike (see FlashCrowdLoad). */
struct FlashSpike {
    /** Onset time, seconds. */
    double start_s = 0.0;
    /** Total spike duration, seconds (ramp up, hold, ramp down). */
    double duration_s = 0.0;
    /** Peak user multiplier relative to the base shape (>= 1). */
    double multiplier = 1.0;
};

/**
 * Flash-crowd spikes layered multiplicatively on a base shape —
 * typically DiurnalLoad, reproducing the paper Sec. 2.3 transient that
 * reactive autoscaling handles poorly. Each spike ramps linearly to
 * its peak multiplier over the first 20% of its duration, holds, and
 * ramps back down over the last 20%, so the population change is steep
 * but not discontinuous. Overlapping spikes multiply. Everything is a
 * pure function of time: no randomness, byte-identical replays.
 */
class FlashCrowdLoad : public LoadShape {
  public:
    /** @param base underlying shape (not owned; must outlive this). */
    FlashCrowdLoad(const LoadShape& base,
                   std::vector<FlashSpike> spikes);
    double UsersAt(double t) const override;

  private:
    const LoadShape& base_;
    std::vector<FlashSpike> spikes_;
};

/** Traffic micro-burst model layered on the Poisson arrivals. */
struct BurstOptions {
    /** Enables short random bursts (flash-crowd behaviour). */
    bool enabled = false;
    /** Mean seconds between burst onsets. */
    double mean_gap_s = 30.0;
    /** Mean burst duration, seconds. */
    double mean_duration_s = 3.0;
    /** Arrival-rate multiplier range during a burst. Kept moderate:
     *  the differentiating pressure comes from the request-mix skew
     *  (Application::burst_bias_*), which concentrates the spike on the
     *  compute-heavy tiers rather than uniformly. */
    double mult_min = 1.2;
    double mult_max = 1.5;
};

/** Micro-bursts on: the default of managed runs, collection runs and
 *  fleets, so managers must keep headroom and datasets cover transients. */
inline BurstOptions
DefaultBursts()
{
    BurstOptions b;
    b.enabled = true;
    return b;
}

/**
 * Timing of every simulation. The cluster advances in fine ticks that
 * integrate the processor-sharing fluid model; a decision interval
 * (the paper's 1-s scheduler cadence and QoS granularity) groups them
 * for metric roll-up and resource-management decisions.
 */
struct SimConfig {
    static constexpr double tick_s = 0.01;
    static constexpr double interval_s = 1.0;
    static constexpr int64_t ticks_per_interval = 100;
    static_assert(static_cast<double>(ticks_per_interval) * tick_s ==
                  interval_s);

    /** Whole decision intervals in @p seconds of simulated time: the
     *  ticks it spans, rounded, divided by ticks_per_interval (a
     *  trailing partial interval is not counted). */
    static int64_t IntervalsIn(double seconds);
};

/**
 * Poisson open-loop request source bound to a cluster, and the
 * simulation's interval step (RunInterval). Optional micro-bursts
 * multiply the arrival rate for a few seconds at random times — the
 * transient spikes that reactive autoscaling handles poorly (paper
 * Sec. 2.3's delayed queueing).
 */
class WorkloadGenerator {
  public:
    /**
     * @param cluster target cluster.
     * @param shape user population over time (not owned).
     * @param seed RNG seed.
     * @param rps_per_user per-user mean request rate (paper: 1.0).
     * @param bursts micro-burst model.
     */
    WorkloadGenerator(Cluster& cluster, const LoadShape& shape,
                      uint64_t seed, double rps_per_user = 1.0,
                      const BurstOptions& bursts = BurstOptions());

    /** Injects this tick's Poisson arrivals. */
    void Tick(double now, double dt);

    /**
     * Advances one decision interval: SimConfig::ticks_per_interval
     * ticks, each injecting its arrivals before the cluster serves
     * them, then harvests the interval's observation stamped with the
     * end-of-interval time. Tick k of the run starts at k * tick_s.
     */
    IntervalObservation RunInterval();

    /**
     * External arrival-rate multiplier, composed with the load shape
     * and the micro-burst multiplier. The harness sets this from the
     * fault injector's flash-crowd events once per decision interval;
     * it must be finite and > 0.
     */
    void SetRateMultiplier(double mult);

    /** Total requests injected so far. */
    int64_t Injected() const { return injected_; }

  private:
    /** Rebuilds the cumulative mix table from the app's weights. */
    void BuildMixTable();

    Cluster& cluster_;
    const LoadShape& shape_;
    Rng rng_;
    double rps_per_user_;
    double rate_mult_ = 1.0;
    BurstOptions bursts_;
    std::vector<double> mix_cdf_;
    int64_t injected_ = 0;
    /** Ticks run by RunInterval so far (the simulation clock). */
    int64_t tick_ = 0;

    // Burst process state.
    bool in_burst_ = false;
    double burst_until_ = 0.0;
    double next_burst_at_ = 0.0;
    double burst_mult_ = 1.0;
};

} // namespace sinan

#endif // SINAN_WORKLOAD_WORKLOAD_H
