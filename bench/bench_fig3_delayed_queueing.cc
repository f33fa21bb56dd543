/**
 * @file
 * Reproduces Figure 3 (the motivation figure): the delayed queueing
 * effect. A single-tier service is driven slightly above its capacity;
 * one run upscales eagerly as soon as latency starts climbing (the
 * paper's blue line), the other only after QoS is already violated (the
 * red line). The late reaction pays a long recovery because the built-up
 * queue must drain even after resources are restored.
 */
#include <cstdio>

#include "cluster/cluster.h"
#include "common/table.h"
#include "workload/workload.h"

namespace sinan {
namespace {

Application
SingleTierApp()
{
    Application app;
    app.name = "single-tier";
    app.qos_ms = 100.0;
    TierSpec t;
    t.name = "service";
    t.concurrency_per_replica = 256;
    t.init_cpu = 2.0;
    t.min_cpu = 0.5;
    t.max_cpu = 16.0;
    app.tiers.push_back(t);
    RequestType rt;
    rt.name = "req";
    rt.root.tier = 0;
    rt.root.demand_s = 0.010;
    rt.root.demand_cv = 0.1;
    app.request_types.push_back(rt);
    return app;
}

/** Runs the overload scenario; upscale triggers per the policy. */
std::vector<std::pair<double, double>>
Run(bool eager)
{
    const Application app = SingleTierApp();
    ClusterConfig ccfg;
    Cluster cluster(app, ccfg, 3);
    // Capacity at 2 cores and 10 ms demand is 200 rps; offer 280. The
    // upscale target (3.6 cores) restores only modest headroom, so any
    // queue built up before the reaction drains slowly — the essence of
    // the delayed queueing effect.
    StepLoad load({{0.0, 120.0}, {20.0, 280.0}});
    WorkloadGenerator gen(cluster, load, 5);
    std::vector<std::pair<double, double>> series;
    bool upscaled = false;
    int bad_streak = 0;
    for (int k = 0; k < 90; ++k) {
        const IntervalObservation obs = gen.RunInterval();
        const double now = obs.time_s;
        series.emplace_back(now, obs.P99());
        if (upscaled)
            continue;
        // The eager policy reacts to the input-load signal itself (the
        // paper's blue line: act before the queue builds). The late one
        // is a conventional alarm: it requires the QoS violation to be
        // sustained for three evaluation periods before acting (red
        // line) — by which time the queue has been building the whole
        // while.
        bad_streak = obs.P99() > app.qos_ms ? bad_streak + 1 : 0;
        const bool trigger = eager ? obs.rps > 240.0 : bad_streak >= 3;
        if (trigger) {
            cluster.SetCpuLimit(0, 3.6);
            upscaled = true;
            std::printf("  %s upscale at t=%.0f s (p99=%.0f ms)\n",
                        eager ? "eager" : "late", now, obs.P99());
        }
    }
    return series;
}

} // namespace
} // namespace sinan

int
main()
{
    using namespace sinan;
    std::printf("Figure 3 — the delayed queueing effect\n");
    std::printf("Single tier, capacity 200 rps, load steps 120->280 rps "
                "at t=20 s; QoS 100 ms\n\n");

    const auto eager = Run(true);
    const auto late = Run(false);

    TextTable t({"t(s)", "eager p99(ms)", "late p99(ms)"});
    for (size_t i = 0; i < eager.size(); i += 5) {
        t.Row()
            .Add(eager[i].first, 0)
            .Add(eager[i].second, 1)
            .Add(late[i].second, 1);
    }
    std::printf("%s", t.Render().c_str());

    auto recovery = [&](const std::vector<std::pair<double, double>>& s) {
        double last_bad = 0.0;
        for (const auto& [time, p99] : s) {
            if (time > 20.0 && p99 > 100.0)
                last_bad = time;
        }
        return last_bad;
    };
    std::printf("\nlast interval above QoS: eager t=%.0f s, late t=%.0f s\n",
                recovery(eager), recovery(late));
    std::printf("(the late reaction keeps violating long after upscaling "
                "— queues must drain first)\n");
    return 0;
}
