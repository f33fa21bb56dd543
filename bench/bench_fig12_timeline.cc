/**
 * @file
 * Reproduces Figure 12: detailed Sinan timelines on the Social Network —
 * (top) constant 250 emulated users, (bottom) a diurnal load pattern.
 * For each decision interval we report the offered RPS, the measured
 * p99, the model's predicted p99 and violation probability for the
 * chosen action, and the aggregate and per-tier CPU allocation.
 *
 * Expected shape: predicted latency tracks measured latency, violations
 * are avoided, and the allocation follows the diurnal load.
 *
 * A third timeline runs the constant load under a telemetry blackout
 * followed by capacity loss, showing the degraded-mode ladder (hold →
 * watchdog upscale → recovery) and reporting the recovery time.
 */
#include <cstdio>

#include "bench_util.h"
#include "common/table.h"
#include "core/scheduler.h"
#include "harness/telemetry_log.h"

namespace sinan {
namespace {

void
PrintTimeline(const Application& app, const RunResult& r, int stride)
{
    std::printf("%6s %7s %9s %10s %7s %9s\n", "t(s)", "RPS", "p99(ms)",
                "pred(ms)", "P(viol)", "CPU(cores)");
    for (size_t i = 0; i < r.timeline.size(); i += stride) {
        const IntervalRecord& rec = r.timeline[i];
        std::printf("%6.0f %7.0f %9.1f %10.1f %7.2f %9.1f\n", rec.time_s,
                    rec.rps, rec.p99_ms, rec.predicted_p99_ms,
                    rec.predicted_violation, rec.total_cpu);
    }
    std::printf("\nP(meet QoS)=%.3f  mean CPU=%.1f  max CPU=%.1f\n",
                r.qos_meet_prob, r.mean_cpu, r.max_cpu);

    // Per-tier average allocation (the paper's right-hand column).
    std::printf("\nPer-tier mean CPU allocation (cores):\n");
    std::vector<double> acc(app.tiers.size(), 0.0);
    for (const IntervalRecord& rec : r.timeline)
        for (size_t t = 0; t < rec.alloc.size(); ++t)
            acc[t] += rec.alloc[t];
    for (size_t t = 0; t < acc.size(); ++t) {
        std::printf("  %-22s %6.2f\n", app.tiers[t].name.c_str(),
                    acc[t] / static_cast<double>(r.timeline.size()));
    }

    // Prediction tracking quality over intervals with a prediction.
    double abs_err = 0.0;
    int n = 0;
    for (const IntervalRecord& rec : r.timeline) {
        if (rec.predicted_p99_ms < 0.0 || rec.time_s < 20.0)
            continue;
        abs_err += std::abs(rec.predicted_p99_ms - rec.p99_ms);
        ++n;
    }
    if (n) {
        std::printf("\nMean |predicted - measured| p99: %.1f ms over %d "
                    "intervals\n",
                    abs_err / n, n);
    }

    // Decision telemetry from the scheduler's metric registry.
    const TelemetrySummary tel = SummarizeTelemetry(r.metrics);
    std::printf("Prediction accuracy %.3f (%llu/%llu mispredicted); "
                "fallbacks %llu (%llu escalated, rate %.3f); trust "
                "lost/restored %llu/%llu\n",
                tel.PredictionAccuracy(),
                static_cast<unsigned long long>(tel.mispredictions),
                static_cast<unsigned long long>(tel.predictions),
                static_cast<unsigned long long>(tel.fallbacks),
                static_cast<unsigned long long>(tel.escalations),
                tel.FallbackRate(),
                static_cast<unsigned long long>(tel.trust_lost),
                static_cast<unsigned long long>(tel.trust_restored));
}

} // namespace
} // namespace sinan

int
main()
{
    using namespace sinan;
    bench::PrintHeader(
        "Figure 12 — Sinan timelines on Social Network",
        "Fig. 12 top: 250 users constant; bottom: diurnal load");

    const Application app = BuildSocialNetwork();
    TrainedSinan trained =
        bench::GetTrainedSinan(app, bench::SocialPipeline(), "social");
    std::printf("CNN val RMSE: %.1f ms\n\n", trained.model->ValRmseMs());

    {
        std::printf("--- constant load: 250 users ---\n");
        SinanScheduler sinan(*trained.model, SchedulerConfig{});
        ConstantLoad load(250.0);
        RunConfig cfg;
        cfg.duration_s = bench::RunSeconds(300.0);
        cfg.warmup_s = 20.0;
        cfg.seed = 21;
        const RunResult r = RunManaged(app, sinan, load, cfg);
        PrintTimeline(app, r, 10);
    }
    {
        std::printf("\n--- diurnal load: 100..300 users ---\n");
        SinanScheduler sinan(*trained.model, SchedulerConfig{});
        DiurnalLoad load(100.0, 300.0, bench::RunSeconds(600.0));
        RunConfig cfg;
        cfg.duration_s = bench::RunSeconds(600.0);
        cfg.warmup_s = 20.0;
        cfg.seed = 22;
        const RunResult r = RunManaged(app, sinan, load, cfg);
        PrintTimeline(app, r, 20);
    }
    {
        std::printf("\n--- constant 250 users under faults: telemetry "
                    "blackout, then capacity loss ---\n");
        SinanScheduler sinan(*trained.model, SchedulerConfig{});
        ConstantLoad load(250.0);
        RunConfig cfg;
        cfg.duration_s = bench::RunSeconds(120.0);
        cfg.warmup_s = 10.0;
        cfg.seed = 23;
        // Ends at interval 32 so even the fast-mode run (48 s) leaves
        // room to observe the recovery.
        cfg.faults = ParseFaultSpec("drop@14+6;caploss@24+8:mag=0.5");
        const RunResult r = RunManaged(app, sinan, load, cfg);
        PrintTimeline(app, r, 5);

        const TelemetrySummary tel = SummarizeTelemetry(r.metrics);
        const double fault_end_s =
            static_cast<double>(cfg.faults.EndInterval()) *
            SimConfig::interval_s;
        const int rec = RecoveryIntervals(r, fault_end_s, app.qos_ms);
        std::printf("Degraded decisions %llu (model %llu, heuristic "
                    "%llu, hold %llu); watchdog upscales %llu\n",
                    static_cast<unsigned long long>(tel.degraded),
                    static_cast<unsigned long long>(tel.degraded_model),
                    static_cast<unsigned long long>(
                        tel.degraded_heuristic),
                    static_cast<unsigned long long>(tel.degraded_hold),
                    static_cast<unsigned long long>(
                        tel.watchdog_upscales));
        if (rec < 0) {
            std::printf("Recovery after last fault: not within the "
                        "run\n");
        } else {
            std::printf("Recovery after last fault: %d intervals to "
                        "p99 <= QoS\n",
                        rec);
        }
    }
    return 0;
}
