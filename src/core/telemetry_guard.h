/**
 * @file
 * Input validation between the telemetry pipeline and the scheduler.
 *
 * The paper's scheduler assumes a clean observation every decision
 * interval; real collection pipelines drop intervals, redeliver stale
 * ones, and occasionally emit NaN (and the fault injector reproduces
 * all three). The guard grades each observation (Assess) before it
 * reaches HybridModel::Evaluate, remembers the last known-good one as
 * the degraded rungs' reference, and counts consecutive degraded
 * intervals so the scheduler's watchdog can force a blanket scale-up
 * instead of flying blind forever.
 *
 * Assess() and Repair() are const; the scheduler only commits the
 * interval (CommitFresh/CommitDegraded) after the rest of the decision
 * has succeeded, which is what preserves Decide()'s strong exception
 * guarantee.
 */
#ifndef SINAN_CORE_TELEMETRY_GUARD_H
#define SINAN_CORE_TELEMETRY_GUARD_H

#include "common/telemetry.h"
#include "core/decision_trace.h"

namespace sinan {

/**
 * Graded, per-tier view of one observation's quality.
 *
 * `health` is the binary verdict (fresh / stale / non-finite / absent)
 * the trace's telemetry column records. `tier_confidence[i]` grades
 * tier i in [0,1]: 1 for a fresh finite tier, 0 for a non-finite or
 * absent one, and decay^k for an observation that is stale by k
 * intervals (k counts this interval, i.e. k = SilentIntervals() + 1
 * at assessment time). `confidence` aggregates the latency channel
 * and the tiers with equal weight:
 *   (latency_fresh + sum(tier_confidence)) / (n_tiers + 1),
 * so a single NaN tier in a 6-tier observation with real latency
 * scores 6/7, while a fully blind interval scores 0.
 */
struct TelemetryAssessment {
    /** Binary classification. */
    TelemetryHealth health = TelemetryHealth::kAbsent;
    /** Per-tier confidence in [0,1]; size = expected tier count. */
    std::vector<double> tier_confidence;
    /** True when the latency percentiles were delivered this interval
     *  and are finite (the QoS channel is trustworthy). */
    bool latency_fresh = false;
    /** Scalar confidence in [0,1] (see struct comment). */
    double confidence = 0.0;
};

/** See file comment. One instance per scheduler. */
class TelemetryGuard {
  public:
    /** @param expected_tiers tier count a usable observation carries. */
    explicit TelemetryGuard(int expected_tiers);

    /**
     * Grades @p obs per tier without mutating any state.
     * @param stale_decay per-interval staleness decay in [0,1]: a
     *   stale-by-k observation's confidence is stale_decay^k, so runs
     *   of redelivered telemetry sink toward 0 and (below the
     *   scheduler's confidence floor) re-enter the binary ladder.
     */
    TelemetryAssessment Assess(const IntervalObservation& obs,
                               double stale_decay) const;

    /**
     * Copy of @p obs with every zero-confidence piece imputed from the
     * last known-good observation: non-finite tiers are replaced
     * wholesale, and a missing/non-finite latency vector is replaced
     * by the last good one. Requires HasLastGood(); stale or fresh
     * observations pass through unchanged (a stale frame is a coherent
     * old picture, not a corrupt one).
     */
    IntervalObservation Repair(const IntervalObservation& obs,
                               const TelemetryAssessment& a) const;

    /** Records a fresh observation: new last-known-good, silent
     *  counter cleared. */
    void CommitFresh(const IntervalObservation& obs);

    /** Records a degraded interval: silent counter advances. */
    void CommitDegraded();

    bool HasLastGood() const { return has_last_good_; }

    /** Last known-good observation; only valid when HasLastGood(). */
    const IntervalObservation& LastGood() const { return last_good_; }

    /** Consecutive degraded intervals committed since the last fresh
     *  one. */
    int SilentIntervals() const { return silent_; }

    void Reset();

  private:
    /** The binary verdict behind Assess(): absent (wrong tier count or
     *  no latency), non-finite, stale (not newer than the last
     *  known-good observation), or fresh. */
    TelemetryHealth Classify(const IntervalObservation& obs) const;

    int expected_tiers_;
    IntervalObservation last_good_;
    bool has_last_good_ = false;
    int silent_ = 0;
};

} // namespace sinan

#endif // SINAN_CORE_TELEMETRY_GUARD_H
