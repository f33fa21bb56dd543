/**
 * @file
 * Golden-file pin of the telemetry_log serializers. The decision-trace
 * CSV and JSON renderings are consumed by the acceptance tooling and
 * compared byte-for-byte by the determinism tests, so their exact bytes
 * are a contract: any formatting drift (column order, precision,
 * enum spelling, JSON layout) must show up as a reviewed diff of the
 * committed golden files, not as a silent change.
 *
 * The fixture trace is hand-built to cover every serialization branch:
 * a warm-up interval with no candidates, a model interval with one
 * candidate per outcome, a fallback, a degraded interval with
 * non-finite telemetry, and an uncertainty-aware interval with graded
 * confidence. Regenerate after an intentional format change
 * with:  SINAN_REGEN_GOLDEN=1 ./tests/golden_trace_test
 *
 * The decision matrix pins the scheduler itself: real managed runs on
 * the bundled bench_cache models, across precisions, both telemetry
 * policies and every chaos scenario, each digested to one line. Any
 * change to a decision, a trace field or a metric shows up as a
 * changed line of tests/golden/decision_matrix.txt.
 *
 * The offline digests pin the paths the matrix never reaches: a short
 * bandit collection plus hybrid training (the saved model bytes), a
 * PowerChief timeline, and one LIME explanation of the trained CNN
 * (tests/golden/offline_digests.txt).
 *
 * The simulator digests pin the queueing network underneath all of
 * them: raw Cluster + WorkloadGenerator runs at a fixed allocation,
 * with no manager, every observation field and every sampled span
 * printed in round-trip precision (tests/golden/simulator_digests.txt).
 */
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "app/apps.h"
#include "baselines/powerchief.h"
#include "core/scheduler.h"
#include "explain/lime.h"
#include "harness/harness.h"
#include "harness/telemetry_log.h"
#include "workload/workload.h"

namespace sinan {
namespace {

std::string
GoldenPath(const char* name)
{
    return std::string(SINAN_REPO_ROOT) + "/tests/golden/" + name;
}

std::string
ReadFileOrEmpty(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "";
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** A fixed trace exercising every row shape the serializers emit. */
DecisionTrace
FixtureTrace()
{
    DecisionTrace trace;

    // Interval 0: warm-up, no candidates (the candidate=-1 row).
    DecisionTraceEntry warmup;
    warmup.time_s = 1.0;
    warmup.interval = 0;
    warmup.kind = DecisionKind::kWarmup;
    warmup.observed_p99_ms = 87.5;
    trace.intervals.push_back(warmup);

    // Interval 1: model path, one candidate per outcome.
    DecisionTraceEntry model;
    model.time_s = 2.0;
    model.interval = 1;
    model.kind = DecisionKind::kModel;
    model.observed_p99_ms = 142.25;
    model.healthy_streak = 3;
    model.margin_ms = 20.0;
    model.may_reclaim = true;
    model.chosen = 1;
    const CandidateOutcome outcomes[] = {
        CandidateOutcome::kNotCheapest,
        CandidateOutcome::kChosen,
        CandidateOutcome::kRejectedHysteresis,
        CandidateOutcome::kRejectedPostDownSaturation,
        CandidateOutcome::kRejectedLatencyMargin,
        CandidateOutcome::kRejectedViolationProb,
        CandidateOutcome::kRejectedDegradedTelemetry,
    };
    const ActionKind kinds[] = {
        ActionKind::kHold,          ActionKind::kScaleDown,
        ActionKind::kScaleDownBatch, ActionKind::kScaleUp,
        ActionKind::kScaleUpAll,    ActionKind::kScaleUpVictims,
        ActionKind::kHold,
    };
    for (int i = 0; i < 7; ++i) {
        CandidateTrace c;
        c.kind = kinds[i];
        c.total_cpu = 10.0 + i * 0.5;
        c.latency_ms = {100.0 + i, 110.0 + i, 120.0 + i, 130.0 + i,
                        140.0 + i};
        c.p_violation = 0.01 * i;
        c.outcome = outcomes[i];
        model.candidates.push_back(c);
    }
    trace.intervals.push_back(model);

    // Interval 2: fallback after an observed violation, trust lost.
    DecisionTraceEntry fallback;
    fallback.time_s = 3.0;
    fallback.interval = 2;
    fallback.kind = DecisionKind::kEscalatedFallback;
    fallback.observed_p99_ms = 512.0;
    fallback.violated = true;
    fallback.trust_reduced = true;
    fallback.mispredictions = 2;
    fallback.consecutive_violations = 3;
    fallback.trust_lost = true;
    trace.intervals.push_back(fallback);

    // Interval 3: degraded telemetry (non-finite), heuristic path.
    DecisionTraceEntry degraded;
    degraded.time_s = 4.0;
    degraded.interval = 3;
    degraded.kind = DecisionKind::kDegradedHeuristic;
    degraded.observed_p99_ms = -1.0;
    degraded.telemetry = TelemetryHealth::kNonFinite;
    degraded.silent_intervals = 1;
    degraded.trust_reduced = true;
    degraded.trust_restored = false;
    trace.intervals.push_back(degraded);

    // Interval 4: uncertainty-aware path — partially-trusted telemetry,
    // graded confidence, widened margin, and a candidate rejected by the
    // confidence-scaled step-down budget.
    DecisionTraceEntry uncertain;
    uncertain.time_s = 5.0;
    uncertain.interval = 4;
    uncertain.kind = DecisionKind::kUncertainModel;
    uncertain.observed_p99_ms = 98.0;
    uncertain.telemetry = TelemetryHealth::kNonFinite;
    uncertain.silent_intervals = 2;
    uncertain.confidence = 0.8;
    uncertain.uncertainty_margin_ms = 3.0;
    uncertain.tier_confidence = {1.0, 0.0, 1.0, 0.25};
    uncertain.chosen = 1;
    CandidateTrace too_big;
    too_big.kind = ActionKind::kScaleDown;
    too_big.total_cpu = 9.0;
    too_big.latency_ms = {90.0, 95.0, 100.0, 105.0, 110.0};
    too_big.p_violation = 0.02;
    too_big.outcome = CandidateOutcome::kRejectedUncertaintyStep;
    uncertain.candidates.push_back(too_big);
    CandidateTrace hold;
    hold.kind = ActionKind::kHold;
    hold.total_cpu = 10.0;
    hold.latency_ms = {95.0, 100.0, 105.0, 110.0, 115.0};
    hold.p_violation = 0.01;
    hold.outcome = CandidateOutcome::kChosen;
    uncertain.candidates.push_back(hold);
    trace.intervals.push_back(uncertain);

    return trace;
}

void
CheckGolden(const char* name, const std::string& rendered)
{
    const std::string path = GoldenPath(name);
    if (std::getenv("SINAN_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << rendered;
        GTEST_SKIP() << "regenerated " << path;
    }
    const std::string golden = ReadFileOrEmpty(path);
    ASSERT_FALSE(golden.empty())
        << path << " missing; regenerate with SINAN_REGEN_GOLDEN=1";
    EXPECT_EQ(rendered, golden)
        << name
        << " drifted from the committed golden file. If the change is "
           "intentional, rerun with SINAN_REGEN_GOLDEN=1 and commit "
           "the diff.";
}

TEST(GoldenTraceTest, DecisionTraceCsvBytesAreStable)
{
    CheckGolden("decision_trace.csv",
                DecisionTraceToCsv(FixtureTrace()));
}

TEST(GoldenTraceTest, DecisionTraceJsonBytesAreStable)
{
    CheckGolden("decision_trace.json",
                DecisionTraceToJson(FixtureTrace()));
}

TEST(GoldenTraceTest, RenderingIsAPureFunctionOfTheTrace)
{
    const DecisionTrace t = FixtureTrace();
    EXPECT_EQ(DecisionTraceToCsv(t), DecisionTraceToCsv(t));
    EXPECT_EQ(DecisionTraceToJson(t), DecisionTraceToJson(t));
}

// ---- decision matrix ------------------------------------------------

/** FNV-1a, 64-bit. */
uint64_t
Fnv1a(const std::string& bytes)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Loads a bundled bench_cache model exactly like the bench cache-hit
 *  path (same FeatureConfig recipe and hybrid hyper-parameters). */
std::unique_ptr<HybridModel>
LoadBundledModel(const Application& app, const std::string& name)
{
    const std::string path =
        std::string(SINAN_REPO_ROOT) + "/bench_cache/" + name + ".model";
    if (!std::filesystem::exists(path))
        return nullptr;
    const PipelineConfig pcfg; // history / lookahead defaults
    FeatureConfig f;
    f.n_tiers = static_cast<int>(app.tiers.size());
    f.history = pcfg.history;
    f.violation_lookahead = pcfg.violation_lookahead;
    f.qos_ms = app.qos_ms;
    auto model =
        std::make_unique<HybridModel>(f, DefaultHybridConfig(), 1);
    std::ifstream in(path, std::ios::binary);
    model->Load(in);
    return model;
}

TEST(GoldenTraceTest, DecisionMatrixMatchesPinnedDigests)
{
    const Application social = BuildSocialNetwork();
    const Application hotel = BuildHotelReservation();
    // One model instance per row, so no row inherits another's quant
    // mode or workspace.
    const std::unique_ptr<HybridModel> social_fp32 =
        LoadBundledModel(social, "social");
    const std::unique_ptr<HybridModel> social_int8 =
        LoadBundledModel(social, "social");
    const std::unique_ptr<HybridModel> hotel_fp32 =
        LoadBundledModel(hotel, "hotel");
    if (!social_fp32 || !hotel_fp32)
        GTEST_SKIP() << "bundled bench_cache models not present";
    ASSERT_TRUE(social_int8->Int8Calibrated());

    struct Row {
        const char* label;
        const Application* app;
        HybridModel* model;
        QuantMode quant;
        double users;
    };
    const Row rows[] = {
        {"social-fp32", &social, social_fp32.get(), QuantMode::kOff, 200},
        {"social-int8", &social, social_int8.get(), QuantMode::kInt8,
         200},
        {"hotel-fp32", &hotel, hotel_fp32.get(), QuantMode::kOff, 2500},
    };
    // Every named scenario, plus specs for decisions the catalog never
    // reaches: blinding the scheduler before its window fills (hold and
    // heuristic), a real overload seen through partially-poisoned
    // telemetry (the graded fallback), and a stale redelivery of a
    // spiked frame (no feasible candidate on the ladder and graded).
    std::vector<std::pair<std::string, std::string>> faults;
    for (const ChaosScenario& sc : ChaosScenarios())
        faults.emplace_back(sc.name, sc.spec);
    for (const char* spec :
         {"drop@0+2;nan@3+2", "delay@1+2;nan@4+3:tiers=0-1",
          "flash@10+8:mag=3;nan@12+4:tiers=0-0",
          "spike@12+4:mag=800;delay@13+2"})
        faults.emplace_back(spec, spec);

    std::string rendered;
    std::set<DecisionKind> reached[2];
    for (const Row& row : rows) {
        for (const bool uncertain : {false, true}) {
            for (const auto& [name, spec] : faults) {
                SchedulerConfig sc;
                sc.quant = row.quant;
                sc.uncertainty.enabled = uncertain;
                SinanScheduler sched(*row.model, sc);
                RunConfig rc;
                rc.duration_s = 40.0;
                rc.warmup_s = 4.0;
                rc.faults = ParseFaultSpec(spec);
                const RunResult r = RunManaged(
                    *row.app, sched, ConstantLoad(row.users), rc);
                for (const DecisionTraceEntry& e :
                     r.decision_trace.intervals)
                    reached[uncertain ? 1 : 0].insert(e.kind);
                char line[256];
                std::snprintf(
                    line, sizeof line, "%s uncertainty=%s %s %016" PRIx64
                    "\n",
                    row.label, uncertain ? "on" : "off", name.c_str(),
                    Fnv1a(DecisionTraceToCsv(r.decision_trace) +
                          r.metrics.ToCsv()));
                rendered += line;
            }
        }
    }
    // The matrix walks every rung of the pipeline: all kinds but the
    // graded one with the policy off, all of them with it on.
    EXPECT_EQ(reached[0].size(), 9u);
    EXPECT_EQ(reached[0].count(DecisionKind::kUncertainModel), 0u);
    EXPECT_EQ(reached[1].size(), 10u);
    CheckGolden("decision_matrix.txt", rendered);
}

// ---- offline paths -------------------------------------------------

/** Appends @p v to @p out in round-trip precision. */
void
AppendExact(std::string& out, double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g,", v);
    out += buf;
}

std::string
DigestLine(const char* label, const std::string& bytes)
{
    char line[128];
    std::snprintf(line, sizeof line, "%s %016" PRIx64 "\n", label,
                  Fnv1a(bytes));
    return line;
}

TEST(GoldenTraceTest, OfflinePathsMatchPinnedDigests)
{
    const Application social = BuildSocialNetwork();
    std::string rendered;

    // Bandit collection + CNN/BT training, scaled down to one epoch and
    // a handful of trees: the saved container pins the explorer, the
    // load schedule, the feature scales, the optimizer and the trees.
    PipelineConfig pcfg;
    pcfg.collect_s = 300.0;
    pcfg.users_min = 50.0;
    pcfg.users_max = 350.0;
    pcfg.hybrid = DefaultHybridConfig();
    pcfg.hybrid.train.epochs = 1;
    pcfg.hybrid.bt.n_trees = 16;
    pcfg.seed = 5;
    const TrainedSinan trained = TrainSinanForApp(social, pcfg);
    ASSERT_FALSE(trained.valid.samples.empty());
    std::ostringstream saved;
    trained.model->Save(saved);
    rendered += DigestLine("train-social", saved.str());

    // One LIME explanation of the trained CNN.
    LimeExplainer lime(trained.model->Cnn(), trained.features);
    const LimeExplanation e = lime.ExplainTiers(trained.valid.samples[0]);
    ASSERT_EQ(e.weights.size(), social.tiers.size());
    std::string weights;
    for (const double w : e.weights)
        AppendExact(weights, w);
    rendered += DigestLine("lime-social", weights);

    // PowerChief's boost / reclaim timeline on the hotel app.
    const Application hotel = BuildHotelReservation();
    PowerChief chief;
    RunConfig rc;
    rc.duration_s = 200.0;
    const RunResult r = RunManaged(hotel, chief, ConstantLoad(2500), rc);
    std::string timeline;
    for (const IntervalRecord& rec : r.timeline) {
        AppendExact(timeline, rec.p99_ms);
        AppendExact(timeline, rec.total_cpu);
        for (const double a : rec.alloc)
            AppendExact(timeline, a);
    }
    rendered += DigestLine("powerchief-hotel", timeline);

    CheckGolden("offline_digests.txt", rendered);
}

// ---- simulator ----------------------------------------------------

/** Appends every field of @p obs in round-trip precision. */
void
AppendObservation(std::string& out, const IntervalObservation& obs)
{
    AppendExact(out, obs.time_s);
    AppendExact(out, obs.rps);
    AppendExact(out, obs.completed_rps);
    for (const TierMetrics& m : obs.tiers) {
        for (const double v :
             {m.cpu_limit, m.cpu_used, m.rss_mb, m.cache_mb, m.rx_pps,
              m.tx_pps, m.queue_len, m.active, m.queue_wait_s})
            AppendExact(out, v);
    }
    for (const double v : obs.latency_ms)
        AppendExact(out, v);
    out += '\n';
}

/** Appends every span of @p traces (ids, tiers and timestamps). */
void
AppendTraces(std::string& out, const std::vector<Trace>& traces)
{
    for (const Trace& t : traces) {
        out += std::to_string(t.trace_id) + ":" +
               std::to_string(t.request_type) + ",";
        AppendExact(out, t.begin_s);
        AppendExact(out, t.end_s);
        for (const Span& s : t.spans) {
            out += std::to_string(s.tier) + "/" +
                   std::to_string(s.parent_span) +
                   (s.async ? "a," : "s,");
            AppendExact(out, s.enqueue_s);
            AppendExact(out, s.start_s);
            AppendExact(out, s.end_s);
        }
        out += '\n';
    }
}

/** Hook run at the start of each simulated second (faults). */
using SecondHook = void (*)(Cluster&, int second, double now);

/**
 * Runs @p app under a constant @p users load for @p seconds of 10-ms
 * ticks, every tier held at @p alloc_frac of its max_cpu, harvesting
 * each second, and returns the digest input: every observation and,
 * when tracing is on, every completed trace.
 */
std::string
SimulatorRun(const Application& app, const ClusterConfig& cc,
             double alloc_frac, double users, int seconds, bool bursts,
             SecondHook hook = nullptr)
{
    constexpr double kDt = 0.01;
    constexpr int kTicksPerSecond = 100;
    Cluster cluster(app, cc, 41);
    std::vector<double> alloc;
    for (const TierSpec& t : app.tiers)
        alloc.push_back(t.max_cpu * alloc_frac);
    cluster.SetAllocation(alloc);
    const ConstantLoad load(users);
    WorkloadGenerator gen(cluster, load, 43, 1.0,
                          bursts ? DefaultBursts() : BurstOptions());
    std::string out;
    int64_t tick = 0;
    for (int sec = 0; sec < seconds; ++sec) {
        if (hook != nullptr)
            hook(cluster, sec, static_cast<double>(tick) * kDt);
        for (int i = 0; i < kTicksPerSecond; ++i, ++tick) {
            const double now = static_cast<double>(tick) * kDt;
            gen.Tick(now, kDt);
            cluster.Tick(now, kDt);
        }
        AppendObservation(
            out, cluster.Harvest(static_cast<double>(tick) * kDt, 1.0));
        AppendTraces(out, cluster.TakeTraces());
    }
    return out;
}

TEST(GoldenTraceTest, SimulatorMatchesPinnedDigests)
{
    const Application hotel = BuildHotelReservation();
    const Application social = BuildSocialNetwork();
    std::string rendered;

    // Hotel near saturation with bursts on: admission queues build to
    // thousands of stages in about half the seconds and drain between
    // bursts, so slot hand-off and queue order are exercised.
    rendered += DigestLine(
        "hotel-3000-bursts",
        SimulatorRun(hotel, ClusterConfig{}, 0.4, 3000, 300, true));

    // Social with one request in five traced: every span's tier and
    // enqueue / start / end timestamps enter the digest. Queues build
    // in about a quarter of the seconds and drain.
    ClusterConfig traced;
    traced.trace_sample = 0.2;
    rendered += DigestLine(
        "social-450-traced",
        SimulatorRun(social, traced, 0.3, 450, 120, false));

    // Scaled-out, slower hotel with one injected stall (its queue
    // spikes) and one capacity loss mid-run.
    ClusterConfig scaled;
    scaled.replica_scale = 2;
    scaled.speed_factor = 0.8;
    rendered += DigestLine(
        "hotel-scaled-faults",
        SimulatorRun(hotel, scaled, 0.5, 2500, 120, true,
                     [](Cluster& c, int sec, double now) {
                         if (sec == 40)
                             c.InjectStall(c.App().TierIndex("search"),
                                           now + 0.35);
                         if (sec == 70)
                             c.SetCapacityFactor(
                                 c.App().TierIndex("frontend"), 0.6);
                     }));

    CheckGolden("simulator_digests.txt", rendered);
}

} // namespace
} // namespace sinan
