#include "core/scheduler.h"

#include <algorithm>
#include <iterator>
#include <numeric>

#include "common/check.h"

namespace sinan {

namespace {

// The operating point of Sec. 4.3 and Table 1.
/** Violation-probability threshold p_d enabling scale-down actions. */
constexpr double kPDown = 0.08;
/** Threshold p_u above which holding is unacceptable (scale up). */
constexpr double kPUp = 0.50;
/** Single-tier CPU step sizes evaluated (cores). */
constexpr double kCpuSteps[] = {0.2, 0.6};
/** Batch scale-down ratio applied to the k least-utilized tiers. */
constexpr double kBatchDownRatio = 0.10;
/** Scale-up-all ratio (AWS step-scaling inspired). */
constexpr double kUpAllRatio = 0.30;
/** Look-back window (intervals) defining "victim" tiers. */
constexpr int kVictimWindow = 3;
/** Utilization above which a tier is never scaled down. */
constexpr double kUtilCap = 0.90;
/** A scale-down candidate is rejected if it would push any tier's
 *  utilization (current usage / candidate limit) above this. */
constexpr double kPostDownUtilCap = 0.85;
/** Consecutive comfortably-healthy intervals (p99 below
 *  kHealthyFrac * QoS) required before reclaiming resources —
 *  hysteresis against reclaiming into a transient burst. */
constexpr int kReclaimAfterHealthy = 3;
constexpr double kHealthyFrac = 0.8;
/** Mispredictions tolerated before trust is reduced. */
constexpr int kTrustThreshold = 25;
/** Upper bound on the latency filter margin as a fraction of QoS (the
 *  paper subtracts RMSE_valid; with the simulator's unbounded queueing
 *  spikes the raw RMSE can exceed QoS, which would filter out every
 *  action). */
constexpr double kMarginCapFrac = 0.3;

/** Histogram bucket bounds for predicted/observed tail latency (ms). */
const std::vector<double>&
LatencyBounds()
{
    static const std::vector<double> b = {1,   2,   5,    10,   20,  50,
                                          100, 200, 500,  1000, 2000};
    return b;
}

/** Histogram bucket bounds for violation probability. */
const std::vector<double>&
ProbabilityBounds()
{
    static const std::vector<double> b = {0.01, 0.02, 0.05, 0.1,
                                          0.2,  0.5,  0.9,  1.0};
    return b;
}

/** Counter bumped once per decision of each kind (DecisionKind order). */
const char* const kKindCounters[] = {
    "sinan.scheduler.warmup",        "sinan.scheduler.fallbacks",
    "sinan.scheduler.fallbacks",     "sinan.scheduler.model_decisions",
    "sinan.scheduler.no_feasible",   "sinan.scheduler.degraded_model",
    "sinan.scheduler.degraded_heuristic",
    "sinan.scheduler.degraded_hold", "sinan.scheduler.watchdog",
    "sinan.scheduler.uncertain_model",
};
static_assert(std::size(kKindCounters) ==
              static_cast<size_t>(DecisionKind::kUncertainModel) + 1);

} // namespace

SinanScheduler::SinanScheduler(HybridModel& model,
                               const SchedulerConfig& cfg)
    : model_(&model), cfg_(cfg), window_(model.Features()),
      guard_(model.Features().n_tiers)
{
    // Applies the configured inference precision up front; throws with
    // a clear message if int8 is requested on an uncalibrated model.
    model.SetQuantMode(cfg_.quant);
}

void
SinanScheduler::Reset()
{
    window_.Clear();
    guard_.Reset();
    recent_victims_.clear();
    last_pred_p99_ = -1.0;
    last_pred_pv_ = -1.0;
    pending_pred_p99_ = -1.0;
    consecutive_violations_ = 0;
    mispredictions_ = 0;
    trust_reduced_ = false;
    healthy_streak_ = 0;
    interval_idx_ = 0;
}

std::vector<SinanScheduler::Candidate>
SinanScheduler::BuildCandidates(const IntervalObservation& obs,
                                const std::vector<double>& alloc,
                                const Application& app) const
{
    const int n = static_cast<int>(alloc.size());
    std::vector<Candidate> cands;

    auto add = [&](std::vector<double> a, ActionKind kind) {
        for (int i = 0; i < n; ++i)
            a[i] = std::clamp(a[i], app.tiers[i].min_cpu,
                              app.tiers[i].max_cpu);
        // A non-hold candidate whose clamped allocation equals the
        // current one is a phantom: it would duplicate Hold, waste an
        // Evaluate slot, and — flagged as a down action — let a no-op
        // masquerade as a reclaim (e.g. a batch down where every
        // selected tier sits above kUtilCap).
        if (kind != ActionKind::kHold && a == alloc)
            return;
        const double total = std::accumulate(a.begin(), a.end(), 0.0);
        cands.push_back({std::move(a), kind, total});
    };

    // Hold.
    add(alloc, ActionKind::kHold);

    // Scale Down: single tiers (skipping saturated ones).
    for (int i = 0; i < n; ++i) {
        if (obs.tiers[i].Utilization() > kUtilCap)
            continue;
        for (double step : kCpuSteps) {
            if (alloc[i] - step < app.tiers[i].min_cpu - 1e-9)
                continue;
            std::vector<double> a = alloc;
            a[i] -= step;
            add(std::move(a), ActionKind::kScaleDown);
        }
    }

    // Scale Down Batch: the k least-utilized tiers by 10%.
    {
        std::vector<int> order(n);
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(), [&](int x, int y) {
            return obs.tiers[x].Utilization() < obs.tiers[y].Utilization();
        });
        for (int k : {2, n / 4, n / 2, n}) {
            if (k < 2 || k > n)
                continue;
            std::vector<double> a = alloc;
            for (int j = 0; j < k; ++j) {
                const int tier = order[j];
                if (obs.tiers[tier].Utilization() > kUtilCap)
                    continue;
                a[tier] *= 1.0 - kBatchDownRatio;
            }
            add(std::move(a), ActionKind::kScaleDownBatch);
        }
    }

    // Scale Up: single tiers.
    for (int i = 0; i < n; ++i) {
        for (double step : kCpuSteps) {
            std::vector<double> a = alloc;
            a[i] += step;
            add(std::move(a), ActionKind::kScaleUp);
        }
    }

    // Scale Up All: the blanket upscale.
    add(Upscale(alloc, app, nullptr, false), ActionKind::kScaleUpAll);

    // Scale Up Victims: tiers scaled down within the look-back window.
    {
        std::vector<double> a = alloc;
        bool any = false;
        for (const std::vector<int>& tiers : recent_victims_) {
            for (int t : tiers) {
                a[t] = alloc[t] + kCpuSteps[std::size(kCpuSteps) - 1];
                any = true;
            }
        }
        if (any)
            add(std::move(a), ActionKind::kScaleUpVictims);
    }
#ifndef SINAN_DISABLE_DCHECKS
    // Postcondition: every candidate stays within the per-tier action
    // bounds of Table 1 — add() clamps to them, and the contract
    // keeps any future candidate generator honest.
    for (const Candidate& c : cands) {
        SINAN_DCHECK_EQ(c.alloc.size(), alloc.size());
        for (int i = 0; i < n; ++i) {
            SINAN_DCHECK_BOUNDS(c.alloc[i], app.tiers[i].min_cpu - 1e-9,
                                app.tiers[i].max_cpu + 1e-9);
        }
    }
#endif
    return cands;
}

std::vector<double>
SinanScheduler::UtilStep(const IntervalObservation& ref,
                         const std::vector<double>& alloc,
                         const Application& app, bool aggressive) const
{
    const int n = static_cast<int>(alloc.size());
    std::vector<double> a = alloc;
    for (int i = 0; i < n; ++i) {
        const double util = ref.tiers[i].Utilization();
        if (util >= 0.5 || aggressive)
            a[i] *= 1.3;
        else if (util >= 0.3)
            a[i] *= 1.1;
        a[i] = std::clamp(a[i], app.tiers[i].min_cpu,
                          app.tiers[i].max_cpu);
    }
    return a;
}

std::vector<double>
SinanScheduler::Upscale(const std::vector<double>& alloc,
                        const Application& app,
                        const IntervalObservation* hot_ref,
                        bool escalate) const
{
    std::vector<double> a = alloc;
    for (size_t i = 0; i < a.size(); ++i) {
        // Saturated tiers get a stronger kick so the built-up queue
        // drains in as few intervals as possible.
        const bool hot =
            hot_ref != nullptr && hot_ref->tiers[i].Utilization() > 0.7;
        const double factor =
            escalate ? 1.6 : hot ? 1.5 : 1.0 + kUpAllRatio;
        const double add = escalate ? 0.4 : 0.2;
        a[i] = std::min(app.tiers[i].max_cpu, a[i] * factor + add);
    }
    return a;
}

std::vector<double>
SinanScheduler::Decide(const IntervalObservation& obs,
                       const std::vector<double>& alloc,
                       const Application& app)
{
    const double qos = model_->Features().qos_ms;
    const int n = static_cast<int>(alloc.size());
    // The allocation is the caller's own bookkeeping: a malformed one
    // is a programming error and throws. Malformed *telemetry* is an
    // environment fault and is routed through the degraded rungs
    // below instead — no ContractViolation may escape because a
    // collection pipeline hiccuped.
    SINAN_CHECK_EQ(alloc.size(), app.tiers.size());
    for (int i = 0; i < n; ++i) {
        SINAN_CHECK_BOUNDS(alloc[i], app.tiers[i].min_cpu - 1e-9,
                           app.tiers[i].max_cpu + 1e-9);
    }

    // ---- rung selection ----------------------------------------------
    // Every observation is graded; with the graded policy off (and on
    // fresh telemetry) the binary view applies: trusted or not at all.
    const UncertaintyConfig& ucfg = cfg_.uncertainty;
    TelemetryAssessment assess =
        guard_.Assess(obs, ucfg.enabled ? ucfg.decay : 0.0);
    const bool fresh = assess.health == TelemetryHealth::kFresh;
    if (fresh || !ucfg.enabled) {
        assess.confidence = fresh ? 1.0 : 0.0;
        assess.tier_confidence.clear();
    }
    // Partially-trusted telemetry (confidence in [floor, 1)) takes the
    // graded rung if a repair reference and a full window exist; the
    // rest takes the ladder, the limit case of zero confidence.
    const bool graded = !fresh && ucfg.enabled &&
                        assess.confidence >= ucfg.floor &&
                        assess.confidence > 0.0 && guard_.HasLastGood() &&
                        window_.Ready();
    const bool ladder = !fresh && !graded;
    // Including this interval (the guard advances in commit()), so a
    // run of degraded intervals decays into the ladder and watchdog.
    const int silent = fresh ? 0 : guard_.SilentIntervals() + 1;

    // Reference observation: the delivered frame; when graded, that
    // frame repaired from the last known-good one; on the ladder the
    // last known-good frame itself (the window's newest), if any.
    const IntervalObservation repaired =
        graded ? guard_.Repair(obs, assess) : IntervalObservation{};
    const IntervalObservation* ref =
        fresh                  ? &obs
        : graded               ? &repaired
        : guard_.HasLastGood() ? &guard_.LastGood()
                               : nullptr;

    // Evaluation window: the history plus the fresh frame (committed
    // with it) or the repaired one (not committed; not pushed when
    // stale, as it already *is* the newest picture); on the ladder the
    // history itself. A copy: nothing is touched before commit().
    MetricWindow eval_window = window_;
    if (fresh || (graded && assess.health != TelemetryHealth::kStale))
        eval_window.Push(*ref);

    // ---- analysis ------------------------------------------------------
    // The QoS channel is only actionable when the latency percentiles
    // were genuinely delivered this interval (tier-targeted NaN leaves
    // them real; a stale or imputed vector proves nothing). Silence is
    // not comfort: the ladder resets the healthy streak, so a
    // pre-outage streak cannot authorize a reclaim after it.
    const bool latency_trusted = !ladder && assess.latency_fresh;
    const double observed = latency_trusted ? ref->P99() : -1.0;
    const bool violated = latency_trusted && observed > qos;
    const int healthy =
        latency_trusted && observed <= kHealthyFrac * qos
            ? healthy_streak_ + 1
            : 0;

    // Trust bookkeeping is computed into locals and only written back
    // in commit() below, after every fallible step (most importantly
    // the model evaluation) has succeeded — a throw out of Decide()
    // leaves the scheduler exactly as it was (strong guarantee). Only
    // fresh intervals grade predictions and count violations.
    const bool scored = fresh && pending_pred_p99_ >= 0.0;
    const bool mispredicted =
        scored && pending_pred_p99_ <= qos && violated;
    int mispred = mispredictions_ + (mispredicted ? 1 : 0);
    bool trust_reduced = trust_reduced_;
    bool trust_lost = false;
    bool trust_restored = false;
    if (scored && !trust_reduced && mispred > kTrustThreshold) {
        trust_reduced = true;
        trust_lost = true;
    }
    const int consecutive = !fresh   ? consecutive_violations_
                            : violated ? consecutive_violations_ + 1
                                       : 0;
    // Trust restoration (the paper's counterpart to losing it): a
    // sustained healthy streak first decays the misprediction count,
    // then lifts the reduced-trust conservatism once the count is back
    // under the threshold.
    if (fresh && healthy > 0) {
        if (cfg_.trust_decay_every > 0 && mispred > 0 &&
            healthy % cfg_.trust_decay_every == 0) {
            --mispred;
        }
        if (trust_reduced && cfg_.trust_restore_healthy > 0 &&
            healthy >= cfg_.trust_restore_healthy &&
            mispred <= kTrustThreshold) {
            trust_reduced = false;
            trust_restored = true;
        }
    }
    // The graded rung widens the latency filter and the violation
    // probability the less the frame is trusted.
    const double umargin =
        graded ? ucfg.margin_frac * qos * (1.0 - assess.confidence) : 0.0;
    const double pv_widen =
        graded ? ucfg.margin_frac * (1.0 - assess.confidence) : 0.0;

    auto count = [&](const char* name, bool on = true) {
        if (metrics_ && on)
            metrics_->Inc(name);
    };

    // ---- commit --------------------------------------------------------
    // Writes the bookkeeping back and appends the trace entry; every
    // exit calls it once, after the fallible work, and returns @p
    // chosen. @p pred: the prediction reported for it (null: none).
    auto commit = [&](DecisionKind kind, std::vector<double> chosen,
                      const Prediction* pred) {
        mispredictions_ = mispred;
        trust_reduced_ = trust_reduced;
        consecutive_violations_ = consecutive;
        healthy_streak_ = healthy;
        last_pred_p99_ = pred ? pred->P99() : -1.0;
        last_pred_pv_ = pred ? pred->p_violation : -1.0;
        // Only a fresh model decision is graded by the next interval.
        pending_pred_p99_ =
            kind == DecisionKind::kModel ? last_pred_p99_ : -1.0;
        if (fresh) {
            window_ = std::move(eval_window);
            guard_.CommitFresh(obs);
        } else {
            guard_.CommitDegraded();
        }
        // Safety upscales forget the victims; every other interval
        // records the tiers it scaled down for Scale Up Victims.
        if (kind == DecisionKind::kFallback ||
            kind == DecisionKind::kEscalatedFallback ||
            kind == DecisionKind::kWatchdogUpscale) {
            recent_victims_.clear();
        } else {
            std::vector<int> victims;
            for (int i = 0; i < n; ++i) {
                if (chosen[i] < alloc[i] - 1e-9)
                    victims.push_back(i);
            }
            recent_victims_.push_back(std::move(victims));
            while (static_cast<int>(recent_victims_.size()) > kVictimWindow)
                recent_victims_.pop_front();
        }

        if (trace_) {
            DecisionTraceEntry* ent = &trace_->intervals.emplace_back();
            ent->interval = interval_idx_;
            ent->kind = kind;
            ent->observed_p99_ms = observed;
            ent->violated = violated;
            ent->telemetry = assess.health;
            ent->silent_intervals = silent;
            ent->trust_reduced = trust_reduced_;
            ent->mispredictions = mispredictions_;
            ent->healthy_streak = healthy_streak_;
            ent->consecutive_violations = consecutive_violations_;
            ent->trust_lost = trust_lost;
            ent->trust_restored = trust_restored;
            ent->confidence = assess.confidence;
            ent->tier_confidence = assess.tier_confidence;
            ent->uncertainty_margin_ms = umargin;
        }
        ++interval_idx_;
        count("sinan.scheduler.decisions");
        count(kKindCounters[static_cast<size_t>(kind)]);
        count("sinan.scheduler.escalations",
              kind == DecisionKind::kEscalatedFallback);
        count("sinan.scheduler.predictions", scored);
        count("sinan.scheduler.mispredictions", mispredicted);
        count("sinan.scheduler.trust_lost", trust_lost);
        count("sinan.scheduler.trust_restored", trust_restored);
        if (metrics_) {
            if (fresh) {
                metrics_->Set("sinan.scheduler.trust_reduced",
                              trust_reduced_ ? 1.0 : 0.0);
                metrics_->Set("sinan.scheduler.mispredictions_current",
                              mispredictions_);
            } else {
                metrics_->Inc(graded ? "sinan.scheduler.uncertain"
                                     : "sinan.scheduler.degraded");
                metrics_->Inc(std::string("sinan.scheduler.telemetry.") +
                              ToString(assess.health));
            }
            if (latency_trusted) {
                metrics_->Observe("sinan.scheduler.observed_p99_ms",
                                  observed, LatencyBounds());
            }
            if (graded) {
                metrics_->Set("sinan.scheduler.confidence",
                              assess.confidence);
            }
            metrics_->Set("sinan.scheduler.healthy_streak",
                          healthy_streak_);
            metrics_->Set("sinan.scheduler.silent_intervals", silent);
        }
        return chosen;
    };

    // ---- early exits ---------------------------------------------------
    // Watchdog: after k consecutive silent intervals stop trusting the
    // frozen picture entirely and grow everything until telemetry (or
    // the per-tier maxima) returns.
    if (ladder && cfg_.watchdog_silent_after > 0 &&
        silent >= cfg_.watchdog_silent_after)
        return commit(DecisionKind::kWatchdogUpscale,
                      Upscale(alloc, app, nullptr, false), nullptr);

    // No full history window yet: conservative utilization stepping on
    // the reference picture keeps the cluster alive if the run starts
    // underprovisioned (holding a starved allocation for T intervals
    // builds a queue that takes far longer to drain). Telemetry
    // degraded before anything useful was ever seen: hold.
    if (!eval_window.Ready()) {
        if (ref == nullptr)
            return commit(DecisionKind::kDegradedHold, alloc, nullptr);
        return commit(fresh ? DecisionKind::kWarmup
                            : DecisionKind::kDegradedHeuristic,
                      UtilStep(*ref, alloc, app, violated), nullptr);
    }

    // Safety: an observed violation triggers an immediate blanket
    // upscale; a persistent one escalates more aggressively. (The paper
    // describes scaling "to the max amount"; with the simulator's large
    // per-tier maxima a single escalation to max dominates the max-CPU
    // accounting, so we escalate multiplicatively instead — it reaches
    // the maxima within a few intervals if the violation persists.)
    // Only the fresh rung, whose full observation backs the count of
    // consecutive violations, escalates.
    if (violated) {
        const bool escalate =
            fresh && consecutive >= cfg_.max_fallback_after;
        // A violation the model failed to avert for this many intervals
        // also costs it trust: future decisions use the doubled latency
        // margin until it is restored by a healthy streak (or Reset()).
        if (escalate && !trust_reduced) {
            trust_reduced = true;
            trust_lost = true;
        }
        return commit(escalate ? DecisionKind::kEscalatedFallback
                               : DecisionKind::kFallback,
                      Upscale(alloc, app, ref, escalate), nullptr);
    }

    // ---- model path ----------------------------------------------------
    const std::vector<Candidate> cands = BuildCandidates(*ref, alloc, app);
    eval_allocs_.resize(cands.size());
    for (size_t i = 0; i < cands.size(); ++i)
        eval_allocs_[i] = cands[i].alloc;
    const std::vector<Prediction> preds =
        model_->Evaluate(eval_window, eval_allocs_);
    SINAN_CHECK_EQ(preds.size(), cands.size());
    for (const Prediction& p : preds) {
        // A NaN prediction would silently poison every margin
        // comparison below (NaN <= x is false, so the candidate is
        // rejected and the scheduler degrades to blanket upscaling
        // without ever reporting the model fault).
        SINAN_CHECK_FINITE(p.P99());
        SINAN_CHECK_BOUNDS(p.p_violation, 0.0, 1.0);
    }

    // Reduced trust makes the latency margin twice as conservative.
    const double margin =
        std::min(model_->ValRmseSubQosMs(), kMarginCapFrac * qos) *
            (trust_reduced ? 2.0 : 1.0) +
        umargin;

    // Hysteresis: only reclaim after a streak of comfortable intervals.
    // The ladder never reclaims: shrinking a tier on a picture that may
    // no longer hold is how a blind manager causes its own violation.
    const bool may_reclaim =
        !ladder && healthy >= kReclaimAfterHealthy;

    // Aggressiveness proportional to confidence: the CPU reclaim on
    // offer is capped at confidence times the largest step-down among
    // the candidates (at confidence 1, no cap), so a half-trusted frame
    // reclaims in small steps instead of either fully or not at all.
    const double cur_total =
        std::accumulate(alloc.begin(), alloc.end(), 0.0);
    double max_down = 0.0;
    for (const Candidate& c : cands) {
        if (c.IsDown())
            max_down = std::max(max_down, cur_total - c.total_cpu);
    }
    const double down_budget = assess.confidence * max_down;

    // The filter: kNotCheapest means the candidate is acceptable.
    auto judge = [&](const Candidate& c, const Prediction& p) {
        if (c.IsDown()) {
            if (!may_reclaim)
                return ladder ? CandidateOutcome::kRejectedDegradedTelemetry
                              : CandidateOutcome::kRejectedHysteresis;
            if (cur_total - c.total_cpu > down_budget + 1e-9)
                return CandidateOutcome::kRejectedUncertaintyStep;
            // Reject downs that would immediately saturate a tier.
            for (int j = 0; j < n; ++j) {
                if (ref->tiers[j].cpu_used > kPostDownUtilCap * c.alloc[j])
                    return CandidateOutcome::kRejectedPostDownSaturation;
            }
        }
        if (!(p.P99() <= qos - margin))
            return CandidateOutcome::kRejectedLatencyMargin;
        const double pv = p.p_violation + pv_widen;
        if (!(c.IsDown() ? pv < kPDown : pv < kPUp))
            return CandidateOutcome::kRejectedViolationProb;
        return CandidateOutcome::kNotCheapest;
    };
    int best = -1;
    std::vector<CandidateOutcome> outcomes(cands.size());
    for (size_t i = 0; i < cands.size(); ++i) {
        outcomes[i] = judge(cands[i], preds[i]);
        if (outcomes[i] == CandidateOutcome::kNotCheapest &&
            (best < 0 || cands[i].total_cpu < cands[best].total_cpu))
            best = static_cast<int>(i);
    }
    if (best >= 0)
        outcomes[best] = CandidateOutcome::kChosen;

    // No acceptable action: scale everything up. The fresh rung still
    // reports the hold candidate's prediction (always the first).
    std::vector<double> chosen =
        best >= 0 ? cands[best].alloc : Upscale(alloc, app, nullptr, false);
    const Prediction* pred = best >= 0 ? &preds[best]
                             : fresh   ? &preds.front()
                                       : nullptr;
    const DecisionKind kind = ladder     ? DecisionKind::kDegradedModel
                              : best < 0 ? DecisionKind::kNoFeasibleUpscale
                              : graded   ? DecisionKind::kUncertainModel
                                         : DecisionKind::kModel;
#ifndef SINAN_DISABLE_DCHECKS
    SINAN_DCHECK(cands.front().IsHold());
    for (int i = 0; i < n; ++i) {
        SINAN_DCHECK_BOUNDS(chosen[i], app.tiers[i].min_cpu - 1e-9,
                            app.tiers[i].max_cpu + 1e-9);
    }
#endif

    chosen = commit(kind, std::move(chosen), pred);
    if (metrics_) {
        metrics_->Inc("sinan.scheduler.candidates", cands.size());
        for (size_t i = 0; i < cands.size(); ++i) {
            metrics_->Inc(std::string("sinan.scheduler.outcome.") +
                          ToString(outcomes[i]));
            // The ladder's predictions rest on a frozen picture; they
            // are traced but kept out of the prediction histograms.
            if (ladder)
                continue;
            metrics_->Observe("sinan.scheduler.pred_p99_ms",
                              preds[i].P99(), LatencyBounds());
            metrics_->Observe("sinan.scheduler.pred_p_violation",
                              preds[i].p_violation, ProbabilityBounds());
        }
        if (best >= 0) {
            metrics_->Inc(std::string("sinan.scheduler.chosen.") +
                          ToString(cands[best].kind));
        } else if (ladder) {
            metrics_->Inc("sinan.scheduler.no_feasible");
        }
    }
    if (trace_) {
        DecisionTraceEntry& ent = trace_->intervals.back();
        ent.margin_ms = margin;
        ent.may_reclaim = may_reclaim;
        ent.chosen = best;
        ent.candidates.reserve(cands.size());
        for (size_t i = 0; i < cands.size(); ++i) {
            ent.candidates.push_back({cands[i].kind, cands[i].total_cpu,
                                      preds[i].latency_ms,
                                      preds[i].p_violation, outcomes[i]});
        }
    }
    return chosen;
}

} // namespace sinan
