/**
 * @file
 * Tests for load shapes, the Poisson open-loop workload generator and
 * its interval step.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>

#include "app/apps.h"
#include "workload/workload.h"

namespace sinan {
namespace {

TEST(ConstantLoad, IsConstant)
{
    ConstantLoad load(120.0);
    EXPECT_DOUBLE_EQ(load.UsersAt(0.0), 120.0);
    EXPECT_DOUBLE_EQ(load.UsersAt(1e6), 120.0);
}

TEST(DiurnalLoad, OscillatesBetweenBounds)
{
    DiurnalLoad load(100.0, 300.0, 200.0);
    EXPECT_NEAR(load.UsersAt(0.0), 100.0, 1e-9);    // trough
    EXPECT_NEAR(load.UsersAt(100.0), 300.0, 1e-9);  // peak at half period
    EXPECT_NEAR(load.UsersAt(200.0), 100.0, 1e-9);  // back to trough
    for (double t = 0; t < 400; t += 7) {
        EXPECT_GE(load.UsersAt(t), 100.0 - 1e-9);
        EXPECT_LE(load.UsersAt(t), 300.0 + 1e-9);
    }
}

TEST(DiurnalLoad, RejectsBadArgs)
{
    EXPECT_THROW(DiurnalLoad(1, 2, 0), std::invalid_argument);
    EXPECT_THROW(DiurnalLoad(5, 2, 10), std::invalid_argument);
}

TEST(StepLoad, StepsAtScheduledTimes)
{
    StepLoad load({{0.0, 10.0}, {5.0, 50.0}, {9.0, 20.0}});
    EXPECT_DOUBLE_EQ(load.UsersAt(0.0), 10.0);
    EXPECT_DOUBLE_EQ(load.UsersAt(4.9), 10.0);
    EXPECT_DOUBLE_EQ(load.UsersAt(5.0), 50.0);
    EXPECT_DOUBLE_EQ(load.UsersAt(8.0), 50.0);
    EXPECT_DOUBLE_EQ(load.UsersAt(100.0), 20.0);
}

TEST(StepLoad, RejectsBadSchedules)
{
    EXPECT_THROW(StepLoad({}), std::invalid_argument);
    EXPECT_THROW(StepLoad({{5.0, 1.0}, {2.0, 1.0}}),
                 std::invalid_argument);
}

TEST(FlashCrowdLoad, TrapezoidEnvelopeOverBaseShape)
{
    ConstantLoad base(100.0);
    // 10 s spike starting at t=20: 2 s ramp up, 6 s hold, 2 s ramp down.
    FlashCrowdLoad load(base, {{20.0, 10.0, 3.0}});
    EXPECT_DOUBLE_EQ(load.UsersAt(19.9), 100.0);  // before onset
    EXPECT_DOUBLE_EQ(load.UsersAt(20.0), 100.0);  // ramp starts at x1
    EXPECT_NEAR(load.UsersAt(21.0), 200.0, 1e-9); // halfway up the ramp
    EXPECT_NEAR(load.UsersAt(22.0), 300.0, 1e-9); // hold begins
    EXPECT_NEAR(load.UsersAt(25.0), 300.0, 1e-9); // mid-hold
    EXPECT_NEAR(load.UsersAt(28.0), 300.0, 1e-9); // hold ends
    EXPECT_NEAR(load.UsersAt(29.0), 200.0, 1e-9); // halfway down
    EXPECT_DOUBLE_EQ(load.UsersAt(30.0), 100.0);  // spike over
    // Multiplicative on the base: a varying base scales accordingly.
    StepLoad step({{0.0, 50.0}, {25.0, 80.0}});
    FlashCrowdLoad on_step(step, {{20.0, 10.0, 3.0}});
    EXPECT_NEAR(on_step.UsersAt(24.0), 150.0, 1e-9);
    EXPECT_NEAR(on_step.UsersAt(26.0), 240.0, 1e-9);
}

TEST(FlashCrowdLoad, OverlappingSpikesMultiply)
{
    ConstantLoad base(10.0);
    FlashCrowdLoad load(base,
                        {{0.0, 10.0, 2.0}, {5.0, 20.0, 3.0}});
    // t=9: first spike holding (x=0.9 -> ramp-down env 0.5 gives 1.5x),
    // second holding at 3x.
    EXPECT_NEAR(load.UsersAt(9.0), 10.0 * 1.5 * 3.0, 1e-9);
    // t=12: only the second spike remains, in its hold region.
    EXPECT_NEAR(load.UsersAt(12.0), 30.0, 1e-9);
}

TEST(FlashCrowdLoad, RejectsDegenerateSpikes)
{
    ConstantLoad base(10.0);
    EXPECT_THROW(FlashCrowdLoad(base, {{5.0, 0.0, 2.0}}),
                 std::invalid_argument);
    EXPECT_THROW(FlashCrowdLoad(base, {{5.0, -1.0, 2.0}}),
                 std::invalid_argument);
    EXPECT_THROW(FlashCrowdLoad(base, {{5.0, 4.0, 0.9}}),
                 std::invalid_argument);
}

TEST(WorkloadGenerator, InjectsAtPoissonRate)
{
    const Application app = BuildHotelReservation();
    Cluster cluster(app, ClusterConfig{}, 1);
    ConstantLoad load(200.0);
    WorkloadGenerator gen(cluster, load, 5);
    // 30 simulated seconds at 200 rps -> ~6000 requests.
    for (int i = 0; i < 3000; ++i)
        gen.Tick(i * 0.01, 0.01);
    EXPECT_NEAR(static_cast<double>(gen.Injected()), 6000.0, 300.0);
    EXPECT_EQ(cluster.InFlight(),
              static_cast<int64_t>(gen.Injected()));
}

TEST(WorkloadGenerator, RespectsRequestMix)
{
    Application app = BuildSocialNetwork();
    SetRequestMix(app, {50.0, 50.0, 0.0});
    ClusterConfig cfg;
    cfg.metric_noise = 0.0;
    Cluster cluster(app, cfg, 1);
    ConstantLoad load(500.0);
    WorkloadGenerator gen(cluster, load, 5);
    for (int i = 0; i < 500; ++i) {
        gen.Tick(i * 0.01, 0.01);
        cluster.Tick(i * 0.01, 0.01);
    }
    const IntervalObservation obs = cluster.Harvest(5.0, 5.0);
    // ReadUserTimeline's entry tier userTimeline must see no traffic.
    const int ut = app.TierIndex("userTimeline");
    EXPECT_DOUBLE_EQ(obs.tiers[ut].rx_pps, 0.0);
    // ComposePost path must see traffic.
    const int cp = app.TierIndex("composePost");
    EXPECT_GT(obs.tiers[cp].rx_pps, 0.0);
}

TEST(WorkloadGenerator, MixProportionsApproximatelyRespected)
{
    Application app = BuildSocialNetwork();
    SetRequestMix(app, {25.0, 75.0, 0.0});
    ClusterConfig cfg;
    cfg.metric_noise = 0.0;
    Cluster cluster(app, cfg, 1);
    ConstantLoad load(1000.0);
    WorkloadGenerator gen(cluster, load, 5);
    for (int i = 0; i < 1000; ++i) {
        gen.Tick(i * 0.01, 0.01);
        cluster.Tick(i * 0.01, 0.01);
    }
    const IntervalObservation obs = cluster.Harvest(10.0, 10.0);
    const int cp = app.TierIndex("composePost");
    const int ht = app.TierIndex("homeTimeline");
    const double cp_rate =
        obs.tiers[cp].rx_pps / app.tiers[cp].pkts_per_rpc;
    const double ht_rate =
        obs.tiers[ht].rx_pps / app.tiers[ht].pkts_per_rpc;
    // homeTimeline sees ~3x the arrivals of composePost (75:25),
    // modulo extra rx from child completions (compose has many).
    EXPECT_GT(ht_rate / cp_rate, 1.1);
}

TEST(WorkloadGenerator, RejectsBadRate)
{
    const Application app = BuildHotelReservation();
    Cluster cluster(app, ClusterConfig{}, 1);
    ConstantLoad load(1.0);
    EXPECT_THROW(WorkloadGenerator(cluster, load, 1, 0.0),
                 std::invalid_argument);
}

TEST(WorkloadGenerator, RateMultiplierScalesArrivals)
{
    const Application app = BuildHotelReservation();
    Cluster a(app, ClusterConfig{}, 1);
    Cluster b(app, ClusterConfig{}, 1);
    ConstantLoad load(200.0);
    WorkloadGenerator plain(a, load, 5);
    WorkloadGenerator doubled(b, load, 5);
    doubled.SetRateMultiplier(2.0);
    for (int i = 0; i < 3000; ++i) {
        plain.Tick(i * 0.01, 0.01);
        doubled.Tick(i * 0.01, 0.01);
    }
    const double ratio = static_cast<double>(doubled.Injected()) /
                         static_cast<double>(plain.Injected());
    EXPECT_NEAR(ratio, 2.0, 0.2);
}

TEST(WorkloadGenerator, RejectsBadRateMultiplier)
{
    const Application app = BuildHotelReservation();
    Cluster cluster(app, ClusterConfig{}, 1);
    ConstantLoad load(1.0);
    WorkloadGenerator gen(cluster, load, 1);
    EXPECT_THROW(gen.SetRateMultiplier(0.0), std::invalid_argument);
    EXPECT_THROW(gen.SetRateMultiplier(-1.0), std::invalid_argument);
    EXPECT_THROW(gen.SetRateMultiplier(
                     std::numeric_limits<double>::quiet_NaN()),
                 std::invalid_argument);
    EXPECT_THROW(gen.SetRateMultiplier(
                     std::numeric_limits<double>::infinity()),
                 std::invalid_argument);
    gen.SetRateMultiplier(1.5); // valid values are accepted
}

TEST(WorkloadGenerator, DeterministicAcrossRunsWithSameSeed)
{
    const Application app = BuildHotelReservation();
    auto run = [&] {
        Cluster cluster(app, ClusterConfig{}, 1);
        ConstantLoad load(100.0);
        WorkloadGenerator gen(cluster, load, 99);
        for (int i = 0; i < 500; ++i)
            gen.Tick(i * 0.01, 0.01);
        return gen.Injected();
    };
    EXPECT_EQ(run(), run());
}


TEST(WorkloadBursts, DisabledByDefault)
{
    const Application app = BuildHotelReservation();
    Cluster a(app, ClusterConfig{}, 1);
    Cluster b(app, ClusterConfig{}, 1);
    ConstantLoad load(100.0);
    WorkloadGenerator plain(a, load, 5);
    WorkloadGenerator with_default(b, load, 5, 1.0, BurstOptions{});
    for (int i = 0; i < 2000; ++i) {
        plain.Tick(i * 0.01, 0.01);
        with_default.Tick(i * 0.01, 0.01);
    }
    EXPECT_EQ(plain.Injected(), with_default.Injected());
}

TEST(WorkloadBursts, RaiseMeanArrivalRate)
{
    const Application app = BuildHotelReservation();
    Cluster a(app, ClusterConfig{}, 1);
    Cluster b(app, ClusterConfig{}, 1);
    ConstantLoad load(200.0);
    BurstOptions bursts;
    bursts.enabled = true;
    bursts.mean_gap_s = 10.0;
    bursts.mean_duration_s = 5.0;
    bursts.mult_min = 2.0;
    bursts.mult_max = 2.0;
    WorkloadGenerator plain(a, load, 5);
    WorkloadGenerator bursty(b, load, 5, 1.0, bursts);
    // 200 simulated seconds.
    for (int i = 0; i < 20000; ++i) {
        plain.Tick(i * 0.01, 0.01);
        bursty.Tick(i * 0.01, 0.01);
    }
    // ~1/3 of the time in a x2 burst -> ~1.3x mean rate.
    EXPECT_GT(static_cast<double>(bursty.Injected()),
              static_cast<double>(plain.Injected()) * 1.15);
    EXPECT_LT(static_cast<double>(bursty.Injected()),
              static_cast<double>(plain.Injected()) * 1.6);
}

TEST(WorkloadBursts, ComposeBiasSkewsMixDuringBursts)
{
    Application app = BuildSocialNetwork();
    ASSERT_EQ(app.burst_bias_type, 0);
    app.burst_bias_extra = 1.0; // every burst arrival becomes compose
    ClusterConfig ccfg;
    ccfg.metric_noise = 0.0;
    Cluster cluster(app, ccfg, 1);
    ConstantLoad load(500.0);
    BurstOptions bursts;
    bursts.enabled = true;
    bursts.mean_gap_s = 0.001; // effectively always bursting
    bursts.mean_duration_s = 1e9;
    bursts.mult_min = 1.0;
    bursts.mult_max = 1.0;
    WorkloadGenerator gen(cluster, load, 5, 1.0, bursts);
    for (int i = 0; i < 500; ++i) {
        gen.Tick(i * 0.01, 0.01);
        cluster.Tick(i * 0.01, 0.01);
    }
    const IntervalObservation obs = cluster.Harvest(5.0, 5.0);
    // With bias 1.0 every burst-time request is ComposePost; only the
    // handful of pre-burst ticks can reach the read path.
    const double home =
        obs.tiers[app.TierIndex("homeTimeline")].rx_pps;
    const double compose =
        obs.tiers[app.TierIndex("composePost")].rx_pps;
    EXPECT_GT(compose, 0.0);
    EXPECT_LT(home, 0.05 * compose);
}

uint64_t
Bits(double v)
{
    return std::bit_cast<uint64_t>(v);
}

void
ExpectSameBits(const IntervalObservation& a, const IntervalObservation& b)
{
    EXPECT_EQ(Bits(a.time_s), Bits(b.time_s));
    EXPECT_EQ(Bits(a.rps), Bits(b.rps));
    EXPECT_EQ(Bits(a.completed_rps), Bits(b.completed_rps));
    ASSERT_EQ(a.tiers.size(), b.tiers.size());
    for (size_t i = 0; i < a.tiers.size(); ++i) {
        const TierMetrics& x = a.tiers[i];
        const TierMetrics& y = b.tiers[i];
        EXPECT_EQ(Bits(x.cpu_limit), Bits(y.cpu_limit)) << i;
        EXPECT_EQ(Bits(x.cpu_used), Bits(y.cpu_used)) << i;
        EXPECT_EQ(Bits(x.rss_mb), Bits(y.rss_mb)) << i;
        EXPECT_EQ(Bits(x.cache_mb), Bits(y.cache_mb)) << i;
        EXPECT_EQ(Bits(x.rx_pps), Bits(y.rx_pps)) << i;
        EXPECT_EQ(Bits(x.tx_pps), Bits(y.tx_pps)) << i;
        EXPECT_EQ(Bits(x.queue_len), Bits(y.queue_len)) << i;
        EXPECT_EQ(Bits(x.active), Bits(y.active)) << i;
        EXPECT_EQ(Bits(x.queue_wait_s), Bits(y.queue_wait_s)) << i;
    }
    ASSERT_EQ(a.latency_ms.size(), b.latency_ms.size());
    for (size_t p = 0; p < a.latency_ms.size(); ++p)
        EXPECT_EQ(Bits(a.latency_ms[p]), Bits(b.latency_ms[p])) << p;
}

TEST(WorkloadGenerator, RunIntervalMatchesHandLoop)
{
    // The interval step is, per 10-ms tick t: arrivals, then service,
    // both at t * 0.01 s; then one 1-s harvest at the interval's end.
    const Application app = BuildHotelReservation();
    const ConstantLoad load(2000.0);
    Cluster stepped(app, ClusterConfig{}, 9);
    Cluster manual(app, ClusterConfig{}, 9);
    WorkloadGenerator step_gen(stepped, load, 11, 1.0, DefaultBursts());
    WorkloadGenerator hand_gen(manual, load, 11, 1.0, DefaultBursts());
    int64_t t = 0;
    for (int64_t k = 1; k <= 3; ++k) {
        const IntervalObservation a = step_gen.RunInterval();
        for (int i = 0; i < 100; ++i, ++t) {
            hand_gen.Tick(static_cast<double>(t) * 0.01, 0.01);
            manual.Tick(static_cast<double>(t) * 0.01, 0.01);
        }
        const IntervalObservation b =
            manual.Harvest(static_cast<double>(t) * 0.01, 1.0);
        EXPECT_EQ(Bits(a.time_s), Bits(static_cast<double>(100 * k) * 0.01));
        EXPECT_GT(a.rps, 0.0);
        ExpectSameBits(a, b);
    }
    EXPECT_EQ(step_gen.Injected(), hand_gen.Injected());
}

TEST(SimConfig, IntervalsInCountsWholeIntervals)
{
    EXPECT_EQ(SimConfig::IntervalsIn(0.004), 0);
    EXPECT_EQ(SimConfig::IntervalsIn(2.5), 2);
    EXPECT_EQ(SimConfig::IntervalsIn(600.0), 600);
}

} // namespace
} // namespace sinan
