/**
 * @file
 * Reproduces Figure 11: mean and max aggregate CPU allocation and the
 * probability of meeting QoS for Sinan, AutoScaleOpt, AutoScaleCons,
 * and PowerChief, across the load sweep of both applications.
 *
 * Expected shape (paper Sec. 5.3): only Sinan and AutoScaleCons meet QoS
 * across all loads; Sinan uses substantially less CPU than
 * AutoScaleCons (paper: -25.9% avg hotel, -59.0% avg social);
 * AutoScaleOpt and PowerChief start violating QoS as load grows.
 */
#include <cstdio>
#include <map>
#include <memory>

#include "baselines/autoscale.h"
#include "baselines/powerchief.h"
#include "bench_util.h"
#include "common/table.h"
#include "core/scheduler.h"
#include "harness/telemetry_log.h"

namespace sinan {
namespace {

using bench::GetTrainedSinan;
using bench::PrintHeader;
using bench::RunSeconds;

struct SweepResult {
    std::map<std::string, std::vector<RunResult>> by_manager;
};

SweepResult
SweepApp(const Application& app, TrainedSinan& trained,
         const std::vector<double>& loads)
{
    // All manager × load runs execute concurrently on the global
    // thread pool (SINAN_THREADS); each run owns its manager (Sinan
    // runs clone the model), and every run is seeded, so the figures
    // match a serial sweep.
    SweepResult out;
    out.by_manager = bench::SweepManagersAcrossLoads(
        app, trained, loads, RunSeconds(100.0));
    return out;
}

void
PrintTables(const Application& app, const std::vector<double>& loads,
            const SweepResult& sweep)
{
    std::vector<std::string> headers = {"manager"};
    for (double u : loads)
        headers.push_back(FormatDouble(u, 0));

    auto emit = [&](const char* title, auto getter) {
        std::printf("\n%s — %s\n", app.name.c_str(), title);
        TextTable t(headers);
        for (const auto& [name, results] : sweep.by_manager) {
            t.Row().Add(name);
            for (const RunResult& r : results)
                t.Add(getter(r), 2);
        }
        std::printf("%s", t.Render().c_str());
    };
    emit("mean CPU allocation (cores)",
         [](const RunResult& r) { return r.mean_cpu; });
    emit("max CPU allocation (cores)",
         [](const RunResult& r) { return r.max_cpu; });
    emit("P(meet QoS)",
         [](const RunResult& r) { return r.qos_meet_prob; });

    // Decision telemetry from the per-run metric registries; only
    // Sinan's scheduler emits it, so the table is Sinan-only.
    {
        std::printf("\n%s — Sinan decision telemetry (per load)\n",
                    app.name.c_str());
        std::vector<std::string> tel_headers = headers;
        tel_headers[0] = "metric";
        TextTable t(tel_headers);
        const auto& sinan_runs = sweep.by_manager.at("Sinan");
        auto emit_tel = [&](const char* name, auto getter) {
            t.Row().Add(std::string(name));
            for (const RunResult& r : sinan_runs)
                t.Add(getter(SummarizeTelemetry(r.metrics)), 3);
        };
        emit_tel("prediction accuracy", [](const TelemetrySummary& s) {
            return s.PredictionAccuracy();
        });
        emit_tel("fallback rate", [](const TelemetrySummary& s) {
            return s.FallbackRate();
        });
        emit_tel("escalations", [](const TelemetrySummary& s) {
            return static_cast<double>(s.escalations);
        });
        std::printf("%s", t.Render().c_str());
    }

    // Headline claim: Sinan's CPU savings vs the other QoS-meeting
    // manager (AutoScaleCons), over loads where both meet QoS >= 95%.
    const auto& sinan_r = sweep.by_manager.at("Sinan");
    const auto& cons_r = sweep.by_manager.at("AutoScaleCons");
    double sum_save = 0.0, max_save = 0.0;
    int n = 0;
    for (size_t i = 0; i < loads.size(); ++i) {
        if (sinan_r[i].qos_meet_prob < 0.95 ||
            cons_r[i].qos_meet_prob < 0.95) {
            continue;
        }
        const double save = 1.0 - sinan_r[i].mean_cpu /
                                      cons_r[i].mean_cpu;
        sum_save += save;
        max_save = std::max(max_save, save);
        ++n;
    }
    if (n) {
        std::printf("\nSinan CPU savings vs AutoScaleCons (QoS-meeting "
                    "loads): avg %.1f%%, max %.1f%%\n",
                    100.0 * sum_save / n, 100.0 * max_save);
    }
}

/**
 * Fault-scenario columns: Sinan, Sinan-U (same model with the
 * uncertainty-aware decision policy enabled), and AutoScaleCons run
 * once per named chaos scenario at a mid-range load. Reported per
 * scenario: P(meet QoS), mean CPU, how many decisions ran degraded /
 * on the graded-confidence path, watchdog upscales, and the recovery
 * time (intervals past the last fault until p99 is back under QoS;
 * 0 = immediate).
 */
void
PrintChaosTable(const Application& app, TrainedSinan& trained,
                double users)
{
    std::printf("\n%s — resilience under chaos scenarios "
                "(users=%.0f)\n", app.name.c_str(), users);
    const auto by_manager = bench::SweepManagersAcrossFaults(
        app, trained, users, RunSeconds(60.0));
    const std::vector<ChaosScenario>& scenarios = ChaosScenarios();

    TextTable t({"scenario", "manager", "P(meetQoS)", "meanCPU",
                 "degraded", "uncertain", "watchdog", "recovery"});
    for (size_t i = 0; i < scenarios.size(); ++i) {
        const ChaosScenario& sc = scenarios[i];
        const double fault_end_s =
            static_cast<double>(ParseFaultSpec(sc.spec).EndInterval()) *
            SimConfig::interval_s;
        for (const auto& [name, results] : by_manager) {
            const RunResult& r = results[i];
            const TelemetrySummary s = SummarizeTelemetry(r.metrics);
            const int rec =
                RecoveryIntervals(r, fault_end_s, app.qos_ms);
            t.Row()
                .Add(sc.name)
                .Add(name)
                .Add(r.qos_meet_prob, 3)
                .Add(r.mean_cpu, 1)
                .Add(static_cast<double>(s.degraded), 0)
                .Add(static_cast<double>(s.uncertain), 0)
                .Add(static_cast<double>(s.watchdog_upscales), 0)
                .Add(rec < 0 ? std::string("never")
                             : std::to_string(rec) + " iv");
        }
    }
    std::printf("%s", t.Render().c_str());
}

} // namespace
} // namespace sinan

int
main()
{
    using namespace sinan;
    bench::PrintHeader("Figure 11 — end-to-end manager comparison",
                       "Fig. 11 (a) Hotel Reservation, (b) Social "
                       "Network: mean/max CPU allocation and P(meet QoS)");

    {
        const Application app = BuildHotelReservation();
        std::printf("[hotel] training Sinan (bandit collection + hybrid "
                    "model)...\n");
        TrainedSinan trained =
            bench::GetTrainedSinan(app, bench::HotelPipeline(), "hotel");
        std::printf("[hotel] CNN val RMSE: %.1f ms\n",
                    trained.model->ValRmseMs());
        const auto loads = bench::HotelLoads();
        const auto sweep = SweepApp(app, trained, loads);
        PrintTables(app, loads, sweep);
    }
    {
        const Application app = BuildSocialNetwork();
        std::printf("\n[social] training Sinan...\n");
        TrainedSinan trained = bench::GetTrainedSinan(
            app, bench::SocialPipeline(), "social");
        std::printf("[social] CNN val RMSE: %.1f ms\n",
                    trained.model->ValRmseMs());
        const auto loads = bench::SocialLoads();
        const auto sweep = SweepApp(app, trained, loads);
        PrintTables(app, loads, sweep);
        // Mid-range load: heavy enough that blind intervals cost real
        // QoS, so the graded-confidence policy separates from the
        // binary ladder on the correlated scenarios.
        PrintChaosTable(app, trained, 250.0);
    }
    return 0;
}
