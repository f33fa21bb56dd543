/**
 * @file
 * Benchmark driver: runs one workload of the repository benchmark and
 * prints its measurements as one JSON object on the last stdout line
 * (perfbench/run.py builds this binary and turns that object into the
 * benchmark's result line; see perfbench/README.md).
 *
 * A workload is a fixed-length *episode* — one complete closed-loop
 * managed run (ManagedRun::AdvanceInterval -> SinanScheduler::Decide ->
 * apply) or one FleetManager::Run — fully determined by the seed. The
 * driver repeats episodes until the requested wall time is spent, so
 * every episode of one seed must produce the same decision-trace
 * digest. Decision-quality metrics come from the (identical) episodes
 * themselves; timing metrics take each decision's and each interval's
 * fastest repetition (see FastestRepetition).
 *
 * Everything is timed from outside the program's layers, from this
 * file: a ResourceManager decorator around Decide, a HybridModel
 * subclass whose Evaluate calls EvaluateTimed for the stage split, and
 * stopwatches around AdvanceInterval and DecideAndApply. Wall time is
 * read only through bench::Stopwatch; CPU time and peak RSS come from
 * getrusage.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    --threads T --root DIR [--trace-out FILE]
 */
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/apps.h"
#include "bench_util.h"
#include "common/cpu_features.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/scheduler.h"
#include "fleet/fleet.h"
#include "fleet/fleet_log.h"
#include "harness/harness.h"
#include "harness/telemetry_log.h"

namespace sinan {
namespace perfbench {

/** Sink of the reference loop (external linkage keeps its stores). */
uint64_t g_reference_sink = 0;

namespace {

// ---------------------------------------------------------------------
// Clock, CPU and memory readings.

/** Process-wide epoch: span timestamps are microseconds since start. */
const bench::Stopwatch&
Epoch()
{
    static const bench::Stopwatch epoch;
    return epoch;
}

double
NowUs()
{
    return Epoch().Seconds() * 1e6;
}

double
ProcessCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
PeakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * Best-of-5 time of a fixed register-only integer loop that shares no
 * code with the program: a record of the cores' speed when the run
 * started and ended. It does not see contention in shared caches or
 * memory.
 */
double
ReferenceLoopMs()
{
    double best = 1e30;
    for (int rep = 0; rep < 5; ++rep) {
        const bench::Stopwatch sw;
        uint64_t x = g_reference_sink | 1;
        for (int i = 0; i < 1000000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        g_reference_sink = x;
        best = std::min(best, sw.Millis());
    }
    return best;
}

double
Median(const std::vector<double>& v)
{
    return VectorQuantile(v, 0.5);
}

/** FNV-1a, 64-bit: digests of the deterministic outputs. */
uint64_t
Fnv1a(const std::string& bytes, uint64_t h = 0xcbf29ce484222325ULL)
{
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
Hex(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// ---------------------------------------------------------------------
// Span recorder (traced runs only). Spans stay in memory and are
// written as Chrome trace-event JSON at exit; per-interval self times
// are derived from the same readings.

struct Span {
    const char* layer;
    int episode;
    int shard;
    int64_t interval;
    double start_us;
    double dur_us;
};

/** Per-interval accumulators filled by the decorator and the timed
 *  model while DecideAndApply runs. */
struct IntervalAcc {
    double decide_us = 0.0;
    double evaluate_us = 0.0;
    double features_us = 0.0;
    double trunk_us = 0.0;
    double head_us = 0.0;
    double bt_us = 0.0;
};

/** Per-layer samples of the traced loop. */
struct LayerSamples {
    std::vector<double> advance_ms;
    std::vector<double> apply_ms;       // DecideAndApply minus Decide
    std::vector<double> decide_self_ms; // Decide minus Evaluate
    std::vector<double> evaluate_ms;    // per Evaluate call
    std::vector<double> features_us, trunk_us, head_us, bt_us;
    /** Sum over all traced intervals of the layer self times above
     *  (advance, apply, decide self and the four stages). */
    double self_sum_s = 0.0;
    std::string kernel_id;
};

class Tracer {
  public:
    explicit Tracer(std::string workload) : workload_(std::move(workload))
    {
    }

    void
    BeginEpisode(int episode)
    {
        episode_ = episode;
        interval_ = 0;
        acc_ = IntervalAcc{};
    }

    /** Records one span. Solo runs have a single shard, 0; fleet spans
     *  cover every shard and carry 0 too. */
    void
    Record(const char* layer, double start_us, double end_us)
    {
        spans_.push_back(
            {layer, episode_, 0, interval_, start_us, end_us - start_us});
    }

    IntervalAcc& Acc() { return acc_; }
    LayerSamples& Samples() { return samples_; }
    const LayerSamples& Samples() const { return samples_; }

    /** Closes one solo interval: AdvanceInterval spanned [t0, t1],
     *  DecideAndApply [t1, t2]. */
    void
    EndInterval(double t0, double t1, double t2)
    {
        Record("harness.advance", t0, t1);
        Record("harness.decide_and_apply", t1, t2);
        const double advance = t1 - t0;
        const double apply = (t2 - t1) - acc_.decide_us;
        const double decide_self = acc_.decide_us - acc_.evaluate_us;
        samples_.advance_ms.push_back(advance * 1e-3);
        samples_.apply_ms.push_back(apply * 1e-3);
        samples_.decide_self_ms.push_back(decide_self * 1e-3);
        samples_.self_sum_s +=
            (advance + apply + decide_self + acc_.features_us +
             acc_.trunk_us + acc_.head_us + acc_.bt_us) *
            1e-6;
        ++interval_;
        acc_ = IntervalAcc{};
    }

    /** Chrome trace-event JSON ("X" complete events), keyed by
     *  (workload, shard, interval, layer). */
    void
    WriteChromeJson(const std::string& path) const
    {
        std::ofstream out(path);
        if (!out)
            throw std::runtime_error("cannot write trace " + path);
        out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
        char buf[320];
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            std::snprintf(buf, sizeof buf,
                          "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                          "\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                          "\"args\":{\"workload\":\"%s\",\"shard\":%d,"
                          "\"episode\":%d,\"interval\":%lld}}%s\n",
                          s.layer, workload_.c_str(), s.shard, s.episode,
                          s.start_us, s.dur_us, workload_.c_str(), s.shard,
                          s.episode, static_cast<long long>(s.interval),
                          i + 1 < spans_.size() ? "," : "");
            out << buf;
        }
        out << "]}\n";
    }

    size_t SpanCount() const { return spans_.size(); }

  private:
    std::string workload_;
    std::vector<Span> spans_;
    IntervalAcc acc_;
    LayerSamples samples_;
    int episode_ = 0;
    int64_t interval_ = 0;
};

// ---------------------------------------------------------------------
// Layer boundaries timed from outside.

/**
 * HybridModel whose Evaluate (the scheduler's only model call) runs
 * EvaluateTimed, so the traced run gets the feature / trunk / head /
 * tree stage split of every call. The stage spans are laid end to end
 * from the Evaluate start in execution order: EvaluateTimed reports
 * durations, not timestamps.
 */
class TimedHybridModel : public HybridModel {
  public:
    TimedHybridModel(const FeatureConfig& fcfg, const HybridConfig& cfg,
                     uint64_t seed, Tracer& tracer)
        : HybridModel(fcfg, cfg, seed), tracer_(tracer)
    {
    }

    std::vector<Prediction>
    Evaluate(const MetricWindow& window,
             const std::vector<std::vector<double>>& allocations) override
    {
        EvalStageTimes st;
        const double t0 = NowUs();
        std::vector<Prediction> out =
            EvaluateTimed(window, allocations, &st);
        const double t1 = NowUs();
        const double f = st.feature_build_s * 1e6, tr = st.trunk_s * 1e6,
                     h = st.head_s * 1e6, b = st.bt_s * 1e6;
        tracer_.Record("models.evaluate", t0, t1);
        tracer_.Record("models.features", t0, t0 + f);
        tracer_.Record("models.trunk", t0 + f, t0 + f + tr);
        tracer_.Record("models.head", t0 + f + tr, t0 + f + tr + h);
        tracer_.Record("gbt.bt", t0 + f + tr + h, t0 + f + tr + h + b);
        IntervalAcc& acc = tracer_.Acc();
        acc.evaluate_us += t1 - t0;
        acc.features_us += f;
        acc.trunk_us += tr;
        acc.head_us += h;
        acc.bt_us += b;
        LayerSamples& s = tracer_.Samples();
        s.evaluate_ms.push_back((t1 - t0) * 1e-3);
        s.features_us.push_back(f);
        s.trunk_us.push_back(tr);
        s.head_us.push_back(h);
        s.bt_us.push_back(b);
        s.kernel_id = st.kernel_id;
        return out;
    }

  private:
    Tracer& tracer_;
};

/**
 * ResourceManager decorator around the scheduler: times every Decide,
 * validates its output, and counts failures (a throw, or an allocation
 * of the wrong length or with a non-finite entry). A failed decision
 * holds the current allocation so the episode can continue.
 */
class CheckedManager : public ResourceManager {
  public:
    CheckedManager(ResourceManager& inner, Tracer* tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    std::vector<double>
    Decide(const IntervalObservation& obs, const std::vector<double>& alloc,
           const Application& app) override
    {
        ++attempted_;
        const double t0 = NowUs();
        std::vector<double> next;
        bool threw = false;
        try {
            next = inner_.Decide(obs, alloc, app);
        } catch (const std::exception& e) {
            threw = true;
            if (first_error_.empty())
                first_error_ = e.what();
        }
        const double t1 = NowUs();
        decide_ms_.push_back((t1 - t0) * 1e-3);
        if (tracer_) {
            tracer_->Record("core.decide", t0, t1);
            tracer_->Acc().decide_us += t1 - t0;
        }
        bool ok = !threw && next.size() == app.tiers.size();
        for (const double v : next)
            ok = ok && std::isfinite(v);
        if (!ok) {
            ++failed_;
            if (!threw && first_error_.empty())
                first_error_ = "invalid allocation from Decide";
            return alloc;
        }
        return next;
    }

    const char* Name() const override { return inner_.Name(); }
    void Reset() override { inner_.Reset(); }
    double LastPredictedP99() const override
    {
        return inner_.LastPredictedP99();
    }
    double LastViolationProb() const override
    {
        return inner_.LastViolationProb();
    }
    void AttachTelemetry(DecisionTrace* trace,
                         MetricsRegistry* metrics) override
    {
        inner_.AttachTelemetry(trace, metrics);
    }

    int64_t Attempted() const { return attempted_; }
    int64_t Failed() const { return failed_; }
    const std::string& FirstError() const { return first_error_; }
    const std::vector<double>& DecideMs() const { return decide_ms_; }

  private:
    ResourceManager& inner_;
    Tracer* tracer_;
    int64_t attempted_ = 0;
    int64_t failed_ = 0;
    std::string first_error_;
    std::vector<double> decide_ms_;
};

// ---------------------------------------------------------------------
// Workloads.

struct Workload {
    std::string name;
    bool fleet = false;
    /** Solo: "social" or "hotel". */
    std::string app;
    QuantMode quant = QuantMode::kOff;
    bool uncertainty = false;
    bool chaos = false;
    /** Simulated length of one episode (one decision per second). */
    double duration_s = 0.0;
    double warmup_s = 0.0;
    /** Highest tail percentile with >= 10 samples beyond it in one
     *  episode's decisions (the per-episode sample count is fixed). */
    double tail_q = 0.0;
};

constexpr double kDiurnalPeriodS = 600.0;

/** Intervals per process-CPU reading in a solo episode (getrusage is a
 *  system call; per interval it would cost more than it resolves). */
constexpr size_t kCpuBlock = 50;

/** Highest tail quantile with at least 10 of @p n samples beyond it. */
double
TailQuantile(int64_t n)
{
    for (const double q : {0.999, 0.995, 0.99, 0.98, 0.95, 0.9, 0.8, 0.5})
        if ((1.0 - q) * static_cast<double>(n) >= 10.0 - 1e-9)
            return q;
    return 0.5;
}

Workload
FindWorkload(const std::string& name)
{
    Workload w;
    w.name = name;
    // Episode lengths are set so the decision-quality metrics, which
    // differ from seed to seed, average enough bursts (and, for
    // hotel-chaos, fault cycles) to vary by only a few percent across
    // seeds: three 600-s diurnal days on social, twelve fault cycles on
    // hotel.
    if (name == "social-int8") {
        w.app = "social";
        w.quant = QuantMode::kInt8;
        w.duration_s = 3 * kDiurnalPeriodS;
        w.warmup_s = 20.0;
    } else if (name == "hotel-chaos") {
        w.app = "hotel";
        w.uncertainty = true;
        w.chaos = true;
        w.duration_s = 600.0;
        w.warmup_s = 15.0;
    } else if (name == "fleet-32") {
        w.fleet = true;
        w.duration_s = 60.0;
        w.warmup_s = 10.0;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    // One decision per simulated second.
    w.tail_q = TailQuantile(static_cast<int64_t>(std::llround(w.duration_s)));
    return w;
}

/**
 * hotel-chaos fault schedule: the catalog's correlated-outage pair
 * (caploss + nan rolling across tiers 1-3), stale-telemetry (delay) and
 * telemetry-blackout (drop) repeated every 50 intervals, each event's
 * start jittered within its slot by the seed. Durations are fixed so
 * every seed injects the same amount of fault.
 */
std::string
ChaosSpec(uint64_t seed, double duration_s)
{
    Rng rng(seed ^ 0xc4a05ULL);
    auto jitter = [&](int span) {
        return static_cast<int>(rng.NextU64() % static_cast<uint64_t>(span));
    };
    std::ostringstream spec;
    const int intervals = static_cast<int>(duration_s);
    const char* sep = "";
    for (int base = 20; base + 50 <= intervals; base += 50) {
        const int c = base + jitter(8);
        const int d = base + 22 + jitter(6);
        const int x = base + 34 + jitter(6);
        spec << sep << "caploss@" << c << "+6:tiers=1-3,jitter=1,mag=0.5;"
             << "nan@" << c << "+8:tiers=1-3,jitter=1;"
             << "delay@" << d << "+4;drop@" << x << "+5";
        sep = ";";
    }
    return spec.str();
}

/**
 * Fleet of 32 mixed clusters with bench_fleet_scale's spice: one
 * baseline (cons) shard and one faulted shard per 16. A 100-cluster
 * fleet (about 85 MiB of shard state, all four CPUs busy at every
 * interval barrier) varied by 25% from run to run on a shared 4-vCPU
 * host; 32 clusters still spread 8 shards per thread and fit three
 * times as many repetitions into a run.
 */
FleetConfig
FleetWorkloadConfig(const Workload& w, uint64_t seed)
{
    FleetConfig cfg;
    cfg.n_clusters = 32;
    cfg.default_manager = "sinan";
    cfg.duration_s = w.duration_s;
    cfg.warmup_s = w.warmup_s;
    cfg.seed = seed;
    for (int k = 12; k < cfg.n_clusters; k += 16) {
        ShardOverride fault;
        fault.index = k;
        fault.faults_set = true;
        fault.faults = "stall@4+2:tier=1;drop@8";
        cfg.overrides.push_back(fault);
    }
    for (int k = 5; k < cfg.n_clusters; k += 16) {
        ShardOverride cons;
        cons.index = k;
        cons.manager = "cons";
        cfg.overrides.push_back(cons);
    }
    return cfg;
}

/**
 * Loads a committed model directly, with no retrain fallback: a
 * missing or unreadable file is an error, and so is an uncalibrated
 * model when the workload runs int8.
 */
std::unique_ptr<HybridModel>
LoadModel(const std::string& root, const Application& app,
          const std::string& key, bool need_int8, Tracer* tracer)
{
    const PipelineConfig pcfg =
        key == "hotel" ? bench::HotelPipeline() : bench::SocialPipeline();
    FeatureConfig f;
    f.n_tiers = static_cast<int>(app.tiers.size());
    f.history = pcfg.history;
    f.violation_lookahead = pcfg.violation_lookahead;
    f.qos_ms = app.qos_ms;
    std::unique_ptr<HybridModel> model;
    if (tracer)
        model = std::make_unique<TimedHybridModel>(f, pcfg.hybrid,
                                                   pcfg.seed ^ 0xcafe,
                                                   *tracer);
    else
        model = std::make_unique<HybridModel>(f, pcfg.hybrid,
                                              pcfg.seed ^ 0xcafe);
    const std::string path = root + "/bench_cache/" + key + ".model";
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("model file missing: " + path);
    model->Load(in);
    if (need_int8 && !model->Int8Calibrated())
        throw std::runtime_error("model has no int8 calibration: " + path);
    return model;
}

// ---------------------------------------------------------------------
// Episodes.

struct EpisodeResult {
    double setup_s = 0.0;
    double loop_s = 0.0;
    double cpu_s = 0.0;
    /** (Shard-)intervals completed. */
    int64_t intervals = 0;
    int64_t attempted = 0;
    int64_t failed = 0;
    std::string first_error;
    /** Per decision (solo: timed by the decorator; fleet: the decision
     *  phase of each interval, as the program reports it). */
    std::vector<double> decide_ms;
    /** Solo: wall time of each interval (advance + decide + apply). */
    std::vector<double> interval_ms;
    /** Solo: process CPU seconds of each block of kCpuBlock intervals. */
    std::vector<double> cpu_block_s;
    uint64_t digest = 0;
    double qos_meet_prob = 0.0;
    double mean_cpu = 0.0;
    std::map<std::string, int64_t> counts;
    // Fleet only.
    double decide_sum_s = 0.0;
    int model_clones = 0;
};

int64_t
CountOf(const EpisodeResult& r, const std::string& name)
{
    const auto it = r.counts.find(name);
    return it == r.counts.end() ? 0 : it->second;
}

void
CountDecisions(const DecisionTrace& trace, std::map<std::string, int64_t>& c)
{
    for (const DecisionTraceEntry& e : trace.intervals) {
        ++c[std::string("core.decisions.") + ToString(e.kind)];
        c["core.candidates"] += static_cast<int64_t>(e.candidates.size());
    }
}

/** Everything one solo episode owns; built by SoloSetup. */
struct SoloEpisode {
    Application app;
    std::unique_ptr<HybridModel> model;
    std::unique_ptr<SinanScheduler> sched;
    std::unique_ptr<CheckedManager> manager;
    std::unique_ptr<LoadShape> load;
    std::unique_ptr<ManagedRun> run;
};

std::unique_ptr<SoloEpisode>
SoloSetup(const Workload& w, const std::string& root, uint64_t seed,
          Tracer* tracer)
{
    auto ep = std::make_unique<SoloEpisode>();
    ep->app = w.app == "hotel" ? BuildHotelReservation()
                               : BuildSocialNetwork();
    ep->model = LoadModel(root, ep->app, w.app,
                          w.quant == QuantMode::kInt8, tracer);
    SchedulerConfig sc;
    sc.quant = w.quant;
    sc.uncertainty.enabled = w.uncertainty;
    ep->sched = std::make_unique<SinanScheduler>(*ep->model, sc);
    ep->manager = std::make_unique<CheckedManager>(*ep->sched, tracer);
    if (w.app == "hotel")
        ep->load = std::make_unique<ConstantLoad>(3000.0);
    else
        ep->load = std::make_unique<DiurnalLoad>(50.0, 350.0, kDiurnalPeriodS);
    RunConfig rc;
    rc.duration_s = w.duration_s;
    rc.warmup_s = w.warmup_s;
    rc.seed = seed;
    if (w.chaos)
        rc.faults = ParseFaultSpec(ChaosSpec(seed, w.duration_s));
    ep->run = std::make_unique<ManagedRun>(ep->app, *ep->manager, *ep->load,
                                           rc);
    return ep;
}

EpisodeResult
RunSoloEpisode(const Workload& w, const std::string& root, uint64_t seed,
               Tracer* tracer)
{
    EpisodeResult r;
    const bench::Stopwatch setup;
    std::unique_ptr<SoloEpisode> ep = SoloSetup(w, root, seed, tracer);
    r.setup_s = setup.Seconds();

    ManagedRun& run = *ep->run;
    const double cpu0 = ProcessCpuSeconds();
    double block_cpu0 = cpu0;
    const bench::Stopwatch loop;
    int64_t aborted = 0;
    try {
        while (!run.Done()) {
            const double t0 = NowUs();
            run.AdvanceInterval();
            const double t1 = NowUs();
            run.DecideAndApply();
            const double t2 = NowUs();
            r.interval_ms.push_back((t2 - t0) * 1e-3);
            if (tracer)
                tracer->EndInterval(t0, t1, t2);
            if (r.interval_ms.size() % kCpuBlock == 0) {
                const double cpu = ProcessCpuSeconds();
                r.cpu_block_s.push_back(cpu - block_cpu0);
                block_cpu0 = cpu;
            }
        }
    } catch (const std::exception& e) {
        // A run abort fails the interval in flight and every one after.
        aborted = run.TotalIntervals() - run.IntervalsDone();
        r.first_error = e.what();
    }
    r.loop_s = loop.Seconds();
    r.cpu_s = ProcessCpuSeconds() - cpu0;
    r.intervals = run.IntervalsDone();

    const RunResult res = run.Finish();
    const CheckedManager& m = *ep->manager;
    r.attempted = m.Attempted() + aborted;
    r.failed = m.Failed() + aborted;
    if (r.first_error.empty())
        r.first_error = m.FirstError();
    r.decide_ms = m.DecideMs();
    r.qos_meet_prob = res.qos_meet_prob;
    r.mean_cpu = res.mean_cpu;
    uint64_t h = Fnv1a(DecisionTraceToCsv(res.decision_trace));
    for (const IntervalRecord& rec : res.timeline) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g,%.17g;", rec.p99_ms,
                      rec.total_cpu);
        h = Fnv1a(buf, h);
    }
    r.digest = h;
    CountDecisions(res.decision_trace, r.counts);
    return r;
}

EpisodeResult
RunFleetEpisode(const Workload& w, const std::string& root, uint64_t seed,
                Tracer* tracer)
{
    EpisodeResult r;
    const double setup_us = NowUs();
    const bench::Stopwatch setup;
    const Application hotel = BuildHotelReservation();
    const Application social = BuildSocialNetwork();
    const std::unique_ptr<HybridModel> hotel_model =
        LoadModel(root, hotel, "hotel", false, nullptr);
    const std::unique_ptr<HybridModel> social_model =
        LoadModel(root, social, "social", false, nullptr);
    const FleetConfig cfg = FleetWorkloadConfig(w, seed);
    FleetManager fleet(cfg, FleetModels{hotel_model.get(), social_model.get()},
                       FleetApps{&hotel, &social});
    r.setup_s = setup.Seconds();

    const int64_t n = cfg.n_clusters;
    const int64_t total = static_cast<int64_t>(
        std::llround(w.duration_s / cfg.sim.interval_s));
    const double cpu0 = ProcessCpuSeconds();
    const bench::Stopwatch loop;
    FleetResult fr;
    bool aborted = false;
    const double run_us = NowUs();
    try {
        fr = fleet.Run();
    } catch (const std::exception& e) {
        aborted = true;
        r.first_error = e.what();
    }
    r.loop_s = loop.Seconds();
    if (tracer) {
        tracer->Record("fleet.setup", setup_us, run_us);
        tracer->Record("fleet.run", run_us, NowUs());
    }
    r.cpu_s = ProcessCpuSeconds() - cpu0;
    r.attempted = n * total;
    if (aborted) {
        r.failed = r.attempted;
        return r;
    }
    r.intervals = n * static_cast<int64_t>(fr.timeline.size());
    r.failed = r.attempted - r.intervals;
    // Every decision's effect is the allocation in force for the next
    // interval: it must have one finite entry per tier.
    for (const FleetClusterResult& c : fr.clusters) {
        const size_t tiers =
            (c.spec.app == "hotel" ? hotel : social).tiers.size();
        for (const IntervalRecord& rec : c.result.timeline) {
            bool ok = rec.alloc.size() == tiers;
            for (const double v : rec.alloc)
                ok = ok && std::isfinite(v);
            if (!ok) {
                ++r.failed;
                if (r.first_error.empty())
                    r.first_error = "invalid allocation in fleet shard " +
                                    std::to_string(c.spec.index);
            }
        }
        CountDecisions(c.result.decision_trace, r.counts);
    }
    r.decide_ms = fr.decide_ms;
    for (const double ms : fr.decide_ms)
        r.decide_sum_s += ms * 1e-3;
    r.model_clones = fr.model_clones;
    r.qos_meet_prob = fr.qos_meet_prob;
    r.mean_cpu = fr.mean_total_cpu;
    r.digest = Fnv1a(FleetTraceToCsv(fr));
    return r;
}

EpisodeResult
RunEpisode(const Workload& w, const std::string& root, uint64_t seed,
           Tracer* tracer)
{
    return w.fleet ? RunFleetEpisode(w, root, seed, tracer)
                   : RunSoloEpisode(w, root, seed, tracer);
}

// ---------------------------------------------------------------------
// Phases and metrics.

/** Episodes of one kind (untraced or traced) and their total cost. */
struct Phase {
    std::vector<EpisodeResult> episodes;
    double wall_s = 0.0;
    double cpu_s = 0.0;
};

/**
 * Runs episodes back to back until @p seconds of wall time is spent and
 * each phase holds at least @p min_episodes. With a tracer, untraced and
 * traced episodes alternate, so both phases sample the same host
 * conditions and their difference is the tracing overhead.
 */
void
RunEpisodes(const Workload& w, const std::string& root, uint64_t seed,
            double seconds, size_t min_episodes, Phase& untraced,
            Phase* traced, Tracer* tracer)
{
    const bench::Stopwatch wall;
    for (int i = 0;; ++i) {
        const bool trace_this = tracer != nullptr && i % 2 == 1;
        const bool enough =
            wall.Seconds() >= seconds &&
            untraced.episodes.size() >= min_episodes &&
            (traced == nullptr || traced->episodes.size() >= min_episodes);
        if (enough && !trace_this)
            return;
        Phase& p = trace_this ? *traced : untraced;
        const double cpu0 = ProcessCpuSeconds();
        const double wall0 = wall.Seconds();
        if (trace_this)
            tracer->BeginEpisode(static_cast<int>(p.episodes.size()));
        p.episodes.push_back(
            RunEpisode(w, root, seed, trace_this ? tracer : nullptr));
        p.wall_s += wall.Seconds() - wall0;
        p.cpu_s += ProcessCpuSeconds() - cpu0;
    }
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

std::string
Json(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
Num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

double
IntervalsPerSecond(const EpisodeResult& r)
{
    return static_cast<double>(r.intervals) / r.loop_s;
}

/**
 * Element-wise minimum over a phase's episodes of a per-interval series.
 * Every episode of a seed repeats exactly the same work (the digest
 * check proves it), so the fastest repetition of each interval is its
 * time with the least interference: the shared host's per-CPU speed
 * drifts by 20-40% for seconds to minutes as other tenants come and go,
 * and contention only ever adds time.
 */
std::vector<double>
FastestRepetition(const Phase& p, std::vector<double> EpisodeResult::*series)
{
    std::vector<double> best = p.episodes.front().*series;
    for (const EpisodeResult& e : p.episodes) {
        const std::vector<double>& v = e.*series;
        best.resize(std::min(best.size(), v.size()));
        for (size_t i = 0; i < best.size(); ++i)
            best[i] = std::min(best[i], v[i]);
    }
    return best;
}

struct Timing {
    double decide_p50_ms = 0.0;
    double decide_tail_ms = 0.0;
    double intervals_per_s = 0.0;
    double cpu_ms_per_interval = 0.0;
};

Timing
Summarize(const Workload& w, const Phase& p)
{
    Timing t;
    const std::vector<double> decide =
        FastestRepetition(p, &EpisodeResult::decide_ms);
    t.decide_p50_ms = Median(decide);
    t.decide_tail_ms = VectorQuantile(decide, w.tail_q);
    const double n = static_cast<double>(p.episodes.front().intervals);
    if (w.fleet) {
        // Fleet phase A is not observable per interval from outside
        // FleetManager::Run: take the fastest (cheapest) whole episode.
        double cpu_s = 1e30, ips = 0.0;
        for (const EpisodeResult& e : p.episodes) {
            cpu_s = std::min(cpu_s, e.cpu_s);
            ips = std::max(ips, IntervalsPerSecond(e));
        }
        t.cpu_ms_per_interval = cpu_s * 1e3 / n;
        t.intervals_per_s = ips;
        return t;
    }
    double wall_ms = 0.0, cpu_s = 0.0;
    for (const double ms : FastestRepetition(p, &EpisodeResult::interval_ms))
        wall_ms += ms;
    const std::vector<double> cpu_blocks =
        FastestRepetition(p, &EpisodeResult::cpu_block_s);
    for (const double secs : cpu_blocks)
        cpu_s += secs;
    t.intervals_per_s = n / (wall_ms * 1e-3);
    t.cpu_ms_per_interval =
        cpu_s * 1e3 / static_cast<double>(cpu_blocks.size() * kCpuBlock);
    return t;
}

/** Times @p min_setups - (samples already taken) extra set-ups. */
void
TopUpSetups(const Workload& w, const std::string& root, uint64_t seed,
            size_t min_setups, std::vector<double>& setups)
{
    while (setups.size() < min_setups) {
        const bench::Stopwatch sw;
        if (w.fleet) {
            const Application hotel = BuildHotelReservation();
            const Application social = BuildSocialNetwork();
            const auto hm = LoadModel(root, hotel, "hotel", false, nullptr);
            const auto sm = LoadModel(root, social, "social", false, nullptr);
            const FleetManager fleet(FleetWorkloadConfig(w, seed),
                                     FleetModels{hm.get(), sm.get()},
                                     FleetApps{&hotel, &social});
            setups.push_back(sw.Seconds());
        } else {
            const auto ep = SoloSetup(w, root, seed, nullptr);
            setups.push_back(sw.Seconds());
        }
    }
}

/** Per-layer metrics of the traced episodes. Every workload reports
 *  every metric; a layer a workload does not time reads 0. */
std::vector<Metric>
LayerMetrics(const Workload& w, const Phase& traced, const Tracer& tracer,
             const Timing& untimed, const Timing& timed, int threads)
{
    const LayerSamples& s = tracer.Samples();
    double loop_s = 0.0;
    for (const EpisodeResult& e : traced.episodes)
        loop_s += e.loop_s;
    auto solo = [&](double v) { return w.fleet ? 0.0 : v; };
    auto fleet = [&](const std::function<double(const EpisodeResult&)>& f) {
        std::vector<double> v;
        for (const EpisodeResult& e : traced.episodes)
            v.push_back(f(e));
        return w.fleet ? Median(v) : 0.0;
    };
    const EpisodeResult& t0 = traced.episodes.front();
    std::vector<Metric> layers = {
        // The end-to-end tail of the untraced episodes: reported, not
        // gated, because it is the timing most sensitive to contention
        // in the host's shared caches (see README.md).
        {"decide_tail_ms", untimed.decide_tail_ms, "ms"},
        {"harness.advance_ms", solo(Median(s.advance_ms)), "ms"},
        {"harness.advance_mean_ms", solo(Mean(s.advance_ms)), "ms"},
        {"harness.apply_ms", solo(Median(s.apply_ms)), "ms"},
        {"core.decide_self_ms", solo(Median(s.decide_self_ms)), "ms"},
        {"models.evaluate_ms", solo(Median(s.evaluate_ms)), "ms"},
        {"models.features_us", solo(Median(s.features_us)), "us"},
        {"models.trunk_us", solo(Median(s.trunk_us)), "us"},
        {"models.head_us", solo(Median(s.head_us)), "us"},
        {"gbt.bt_us", solo(Median(s.bt_us)), "us"},
        {"trace.layer_coverage", solo(s.self_sum_s / loop_s), "fraction"},
        {"fleet.phase_a_s",
         fleet([](const EpisodeResult& r) { return r.loop_s - r.decide_sum_s; }),
         "s"},
        {"fleet.decide_sum_s",
         fleet([](const EpisodeResult& r) { return r.decide_sum_s; }), "s"},
        {"fleet.model_clones", static_cast<double>(t0.model_clones), "count"},
        {"fleet.parallel_efficiency",
         fleet([&](const EpisodeResult& r) {
             return r.cpu_s / (r.loop_s * threads);
         }),
         "fraction"},
        {"host.cpu_util", traced.cpu_s / traced.wall_s, "fraction"},
        {"trace.overhead_intervals_per_s",
         (untimed.intervals_per_s - timed.intervals_per_s) /
             untimed.intervals_per_s,
         "fraction"},
        {"trace.overhead_decide_p50",
         (timed.decide_p50_ms - untimed.decide_p50_ms) /
             untimed.decide_p50_ms,
         "fraction"},
        {"core.candidates",
         static_cast<double>(CountOf(t0, "core.candidates")), "count"},
    };
    for (int k = 0; k <= static_cast<int>(DecisionKind::kUncertainModel); ++k) {
        const std::string name = std::string("core.decisions.") +
                                 ToString(static_cast<DecisionKind>(k));
        layers.push_back({name, static_cast<double>(CountOf(t0, name)),
                          "count"});
    }
    return layers;
}

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    int threads = 0;
    std::string root = ".";
    std::string trace_out;
};

[[noreturn]] void
Usage(const std::string& msg)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver --workload "
                 "NAME --seed N --seconds S --trace 0|1 --threads T "
                 "--root DIR [--trace-out FILE]\n",
                 msg.c_str());
    std::exit(2);
}

Args
ParseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            Usage("missing value for " + k);
        const std::string v = argv[++i];
        try {
            if (k == "--workload")
                a.workload = v;
            else if (k == "--seed")
                a.seed = std::stoull(v);
            else if (k == "--seconds")
                a.seconds = std::stod(v);
            else if (k == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (k == "--threads")
                a.threads = std::stoi(v);
            else if (k == "--root")
                a.root = v;
            else if (k == "--trace-out")
                a.trace_out = v;
            else
                Usage("unknown flag " + k);
        } catch (const std::logic_error&) {
            Usage("bad value for " + k + ": " + v);
        }
    }
    if (a.workload.empty() || a.threads < 1 || !(a.seconds > 0.0))
        Usage("--workload, --threads >= 1 and --seconds > 0 are required");
    return a;
}

int
Main(int argc, char** argv)
{
    const Args a = ParseArgs(argc, argv);
    Epoch();
    const Workload w = FindWorkload(a.workload);
    SetNumThreads(a.threads);
    const double ref_start_ms = ReferenceLoopMs();

    std::vector<std::string> failures;
    std::vector<std::string> notes;
    auto check = [&](bool ok, const std::string& what) {
        if (!ok)
            failures.push_back(what);
    };

    // With fewer repetitions, an interval's fastest one filters little
    // of the host's noise.
    const size_t min_episodes = 4;
    Phase untraced, traced;
    Tracer tracer(w.name);
    RunEpisodes(w, a.root, a.seed, a.seconds, min_episodes, untraced,
                a.trace ? &traced : nullptr, a.trace ? &tracer : nullptr);

    // Set-up is timed once per episode; top up to a steady median.
    std::vector<double> setups;
    for (const Phase* p : {&untraced, &traced})
        for (const EpisodeResult& e : p->episodes)
            setups.push_back(e.setup_s);
    TopUpSetups(w, a.root, a.seed, 15, setups);
    const double peak_rss = PeakRssMiB();

    // Determinism self-checks: every episode of one seed is identical
    // (traced ones too: tracing changes no decision), and the digest at
    // pool=1 equals the digest at pool=threads.
    const EpisodeResult& first = untraced.episodes.front();
    for (const Phase* p : {&untraced, &traced})
        for (const EpisodeResult& e : p->episodes) {
            check(e.digest == first.digest,
                  p == &traced ? "traced digest differs from untraced"
                               : "episodes of one seed disagree (digest)");
            check(e.qos_meet_prob == first.qos_meet_prob &&
                      e.mean_cpu == first.mean_cpu &&
                      e.counts == first.counts,
                  "episodes of one seed disagree (quality metrics)");
        }
    SetNumThreads(1);
    const EpisodeResult serial = RunEpisode(w, a.root, a.seed, nullptr);
    SetNumThreads(a.threads);
    check(serial.digest == first.digest,
          "digest at pool=1 differs from pool=" + std::to_string(a.threads));

    int64_t attempted = serial.attempted, failed = serial.failed;
    std::string first_error = serial.first_error;
    for (const Phase* p : {&untraced, &traced})
        for (const EpisodeResult& e : p->episodes) {
            attempted += e.attempted;
            failed += e.failed;
            if (first_error.empty())
                first_error = e.first_error;
        }
    check(first.qos_meet_prob > 0.0 && first.qos_meet_prob <= 1.0,
          "qos_meet_prob out of (0, 1]");
    check(first.mean_cpu > 0.0 && std::isfinite(first.mean_cpu),
          "mean_cpu_cores not positive");

    const Timing t = Summarize(w, untraced);
    const std::vector<Metric> metrics = {
        {"decide_p50_ms", t.decide_p50_ms, "ms"},
        {"decide_tail_ms", t.decide_tail_ms, "ms"},
        {"intervals_per_s", t.intervals_per_s, "1/s"},
        {"host_cpu_ms_per_interval", t.cpu_ms_per_interval, "ms"},
        {"setup_s", Median(setups), "s"},
        {"peak_rss_mb", peak_rss, "MiB"},
        {"qos_meet_prob", first.qos_meet_prob, "fraction"},
        {"mean_cpu_cores", first.mean_cpu, "cores"},
        {"ok_frac",
         1.0 - static_cast<double>(failed) /
                   static_cast<double>(std::max<int64_t>(attempted, 1)),
         "fraction"},
    };
    {
        const std::vector<double> decide =
            FastestRepetition(untraced, &EpisodeResult::decide_ms);
        const auto beyond =
            std::count_if(decide.begin(), decide.end(),
                          [&](double v) { return v > t.decide_tail_ms; });
        char buf[320];
        std::snprintf(buf, sizeof buf,
                      "each interval's time is its fastest of %zu identical "
                      "untraced episodes; decide_tail_ms is p%g of %zu "
                      "decisions (%lld beyond it)",
                      untraced.episodes.size(), w.tail_q * 100.0,
                      decide.size(), static_cast<long long>(beyond));
        notes.push_back(buf);
    }
    if (w.fleet)
        notes.push_back(
            "fleet-32 decide_p50_ms/decide_tail_ms are the per-interval "
            "decision phase for all shards as reported by the program "
            "itself (FleetResult::decide_ms), not timed from outside");

    std::vector<Metric> layers;
    if (a.trace) {
        layers = LayerMetrics(w, traced, tracer, t, Summarize(w, traced),
                              a.threads);
        if (w.fleet)
            notes.push_back(
                "fleet-32 has fleet-level spans only: its shards decide on "
                "base HybridModel clones, so the harness/core/models timing "
                "metrics read 0 (layer not timed on this workload)");
        else
            notes.push_back("models.kernel_id=" + tracer.Samples().kernel_id);
        if (!a.trace_out.empty())
            tracer.WriteChromeJson(a.trace_out);
        notes.push_back("trace: " + std::to_string(tracer.SpanCount()) +
                        " spans over " +
                        std::to_string(traced.episodes.size()) +
                        " traced episodes");
    }

    const double ref_end_ms = ReferenceLoopMs();

    // Result object (one line).
    std::ostringstream out;
    out << "{\"workload\":" << Json(w.name) << ",\"seed\":" << a.seed
        << ",\"descriptor\":{\"pool_threads\":" << NumThreads()
        << ",\"simd_compiled\":" << (SimdCompiledIn() ? "true" : "false")
        << ",\"simd_active\":" << (SimdActive() ? "true" : "false")
        << ",\"fp32_kernel_id\":" << Json(ActiveKernelId())
        << ",\"int8_kernel_id\":" << Json(ActiveInt8KernelId())
        << ",\"episodes\":" << untraced.episodes.size()
        << ",\"traced_episodes\":" << traced.episodes.size()
        << ",\"episode_sim_s\":" << Num(w.duration_s)
        << ",\"setup_samples\":" << setups.size()
        << ",\"host_ref_loop_ms\":[" << Num(ref_start_ms) << ","
        << Num(ref_end_ms) << "]"
        << ",\"digest\":" << Json(Hex(first.digest))
        << ",\"serial_digest\":" << Json(Hex(serial.digest)) << "}";
    // Per-episode timings of the untraced phase, in run order.
    out << ",\"episode_timings\":[";
    for (size_t i = 0; i < untraced.episodes.size(); ++i) {
        const EpisodeResult& e = untraced.episodes[i];
        out << (i ? "," : "") << "{\"intervals_per_s\":"
            << Num(IntervalsPerSecond(e)) << ",\"decide_p50_ms\":"
            << Num(Median(e.decide_ms)) << ",\"decide_tail_ms\":"
            << Num(VectorQuantile(e.decide_ms, w.tail_q)) << ",\"setup_s\":"
            << Num(e.setup_s) << "}";
    }
    out << "]";
    if (w.chaos)
        out << ",\"fault_spec\":" << Json(ChaosSpec(a.seed, w.duration_s));
    out << ",\"attempted\":" << attempted << ",\"failed\":" << failed
        << ",\"first_error\":" << Json(first_error)
        << ",\"checks_failed\":[";
    for (size_t i = 0; i < failures.size(); ++i)
        out << (i ? "," : "") << Json(failures[i]);
    out << "],\"notes\":[";
    for (size_t i = 0; i < notes.size(); ++i)
        out << (i ? "," : "") << Json(notes[i]);
    out << "]";
    auto dump = [&](const char* key, const std::vector<Metric>& ms) {
        out << ",\"" << key << "\":{";
        for (size_t i = 0; i < ms.size(); ++i)
            out << (i ? "," : "") << Json(ms[i].name) << ":{\"value\":"
                << Num(ms[i].value) << ",\"unit\":" << Json(ms[i].unit)
                << "}";
        out << "}";
    };
    dump("end_to_end", metrics);
    dump("per_layer", layers);
    out << "}";
    std::printf("%s\n", out.str().c_str());
    return 0;
}

} // namespace
} // namespace perfbench
} // namespace sinan

int
main(int argc, char** argv)
{
    try {
        return sinan::perfbench::Main(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
}
