/**
 * @file
 * Unit and property tests for the common substrate: RNG distributions,
 * percentile digests, ring windows, table rendering, and the number
 * grammar for outside text.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>
#include <type_traits>

#include "common/check.h"
#include "common/metrics.h"
#include "common/parse.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/timeseries.h"

namespace sinan {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.NextU64() == b.NextU64();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.Uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.Uniform(5.0, 9.0);
        EXPECT_GE(u, 5.0);
        EXPECT_LT(u, 9.0);
    }
}

TEST(Rng, UniformIntBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.UniformInt(10ULL), 10ULL);
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = rng.UniformInt(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
    }
}

TEST(Rng, UniformIntCoversAllValues)
{
    Rng rng(11);
    std::vector<int> seen(6, 0);
    for (int i = 0; i < 600; ++i)
        ++seen[rng.UniformInt(6ULL)];
    for (int v : seen)
        EXPECT_GT(v, 0);
}

TEST(Rng, BernoulliExtremes)
{
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.Bernoulli(0.0));
        EXPECT_TRUE(rng.Bernoulli(1.0));
    }
}

TEST(Rng, ExponentialMeanApproximatelyCorrect)
{
    Rng rng(5);
    double acc = 0.0;
    constexpr int kN = 20000;
    for (int i = 0; i < kN; ++i)
        acc += rng.Exponential(4.0);
    EXPECT_NEAR(acc / kN, 4.0, 0.15);
}

TEST(Rng, NormalMomentsApproximatelyCorrect)
{
    Rng rng(9);
    double mean = 0.0, var = 0.0;
    constexpr int kN = 20000;
    std::vector<double> xs(kN);
    for (int i = 0; i < kN; ++i) {
        xs[i] = rng.Normal(2.0, 3.0);
        mean += xs[i];
    }
    mean /= kN;
    for (double x : xs)
        var += (x - mean) * (x - mean);
    var /= kN;
    EXPECT_NEAR(mean, 2.0, 0.1);
    EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

TEST(Rng, LogNormalIsPositiveWithRequestedMean)
{
    Rng rng(13);
    double acc = 0.0;
    constexpr int kN = 20000;
    for (int i = 0; i < kN; ++i) {
        const double v = rng.LogNormal(0.005, 0.3);
        EXPECT_GT(v, 0.0);
        acc += v;
    }
    EXPECT_NEAR(acc / kN, 0.005, 0.0004);
}

TEST(Rng, LogNormalZeroMeanReturnsZero)
{
    Rng rng(13);
    EXPECT_EQ(rng.LogNormal(0.0, 0.3), 0.0);
}

TEST(Rng, PrecomputedLogNormalLawMatchesMeanCvDrawBitForBit)
{
    // The simulator draws every service demand from a LogNormalLaw
    // built once per call-tree node; each draw must equal both
    // LogNormal(mean, cv) and the law written out from scratch, and
    // leave the generator (state and cached normal) where they do.
    for (const double mean : {-1.0, 0.0, 1e-4, 0.005, 0.2, 3.0}) {
        for (const double cv : {0.0, 0.3, 1.0, 2.5}) {
            SCOPED_TRACE(testing::Message()
                         << "mean=" << mean << " cv=" << cv);
            const LogNormalLaw law(mean, cv);
            Rng by_law(99), by_mean_cv(99), by_hand(99);
            for (int i = 0; i < 3; ++i) {
                const double a = by_law.LogNormal(law);
                const double b = by_mean_cv.LogNormal(mean, cv);
                double c = 0.0;
                if (mean > 0.0) {
                    const double sigma2 = std::log(1.0 + cv * cv);
                    const double mu = std::log(mean) - 0.5 * sigma2;
                    c = std::exp(by_hand.Normal(mu, std::sqrt(sigma2)));
                }
                EXPECT_EQ(std::bit_cast<uint64_t>(a),
                          std::bit_cast<uint64_t>(b));
                EXPECT_EQ(std::bit_cast<uint64_t>(a),
                          std::bit_cast<uint64_t>(c));
            }
            const double cached = by_hand.Normal();
            EXPECT_EQ(by_law.Normal(), cached);
            EXPECT_EQ(by_mean_cv.Normal(), cached);
            const uint64_t next = by_hand.NextU64();
            EXPECT_EQ(by_law.NextU64(), next);
            EXPECT_EQ(by_mean_cv.NextU64(), next);
        }
    }
}

TEST(Rng, PoissonSmallLambdaMean)
{
    Rng rng(17);
    double acc = 0.0;
    constexpr int kN = 20000;
    for (int i = 0; i < kN; ++i)
        acc += rng.Poisson(2.5);
    EXPECT_NEAR(acc / kN, 2.5, 0.1);
}

TEST(Rng, PoissonLargeLambdaMean)
{
    Rng rng(19);
    double acc = 0.0;
    constexpr int kN = 5000;
    for (int i = 0; i < kN; ++i)
        acc += rng.Poisson(80.0);
    EXPECT_NEAR(acc / kN, 80.0, 1.0);
}

TEST(Rng, PoissonZeroRateIsZero)
{
    Rng rng(23);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(Rng, ForkedStreamsAreIndependent)
{
    Rng a(42);
    Rng b = a.Fork();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.NextU64() == b.NextU64();
    EXPECT_LT(same, 2);
}

TEST(PercentileDigest, EmptyReturnsZero)
{
    PercentileDigest d;
    EXPECT_EQ(d.Quantile(0.99), 0.0);
    EXPECT_EQ(d.Mean(), 0.0);
    EXPECT_EQ(d.Max(), 0.0);
    EXPECT_EQ(d.Count(), 0u);
}

TEST(PercentileDigest, SingleValue)
{
    PercentileDigest d;
    d.Add(42.0);
    d.Seal();
    EXPECT_EQ(d.Quantile(0.0), 42.0);
    EXPECT_EQ(d.Quantile(0.5), 42.0);
    EXPECT_EQ(d.Quantile(1.0), 42.0);
}

TEST(PercentileDigest, KnownQuantilesOfSequence)
{
    PercentileDigest d;
    for (int i = 1; i <= 101; ++i)
        d.Add(static_cast<double>(i));
    d.Seal();
    EXPECT_DOUBLE_EQ(d.Quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(d.Quantile(0.5), 51.0);
    EXPECT_DOUBLE_EQ(d.Quantile(1.0), 101.0);
    EXPECT_NEAR(d.Quantile(0.95), 96.0, 1e-9);
}

TEST(PercentileDigest, InterleavedAddAndQuery)
{
    PercentileDigest d;
    d.Add(10.0);
    d.Add(20.0);
    d.Seal();
    EXPECT_DOUBLE_EQ(d.Quantile(1.0), 20.0);
    d.Add(30.0); // invalidates the sealed state
    d.Seal();    // re-sealing after more writes is allowed
    EXPECT_DOUBLE_EQ(d.Quantile(1.0), 30.0);
    EXPECT_DOUBLE_EQ(d.Quantile(0.0), 10.0);
}

TEST(PercentileDigest, ResetClears)
{
    PercentileDigest d;
    d.Add(5.0);
    d.Reset();
    EXPECT_EQ(d.Count(), 0u);
    EXPECT_EQ(d.Quantile(0.5), 0.0);
}

TEST(PercentileDigest, UnsealedQueryIsAContractViolation)
{
    // Sealed-before-query is a hard contract: an unsealed query used
    // to silently sort a private copy, which hid missing roll-up calls
    // and cost an O(n log n) copy per query on the telemetry path.
    PercentileDigest d;
    d.Add(1.0);
    d.Add(2.0);
    EXPECT_THROW(d.Quantile(0.5), ContractViolation);
    EXPECT_THROW(d.Quantiles({0.5, 0.9}), ContractViolation);
    EXPECT_THROW(d.Max(), ContractViolation);
    // Mean and Count never needed the sort; they stay queryable.
    EXPECT_DOUBLE_EQ(d.Mean(), 1.5);
    EXPECT_EQ(d.Count(), 2u);
    d.Seal();
    EXPECT_DOUBLE_EQ(d.Quantile(0.5), 1.5);
}

TEST(PercentileDigest, ConcurrentConstReadersDoNotRace)
{
    // Regression: Quantile()/Max() used to sort `mutable` state from
    // const methods, so two threads reading one digest through const
    // refs raced (caught under TSan). Queries on a sealed digest are
    // pure reads, so concurrent const readers are safe.
    PercentileDigest d;
    Rng rng(13);
    for (int i = 0; i < 2000; ++i)
        d.Add(rng.Uniform(0, 1000));
    d.Seal();
    const PercentileDigest& ref = d;

    std::vector<double> results(8, 0.0);
    std::vector<std::thread> readers;
    for (int r = 0; r < 8; ++r) {
        readers.emplace_back([&ref, &results, r] {
            double acc = 0.0;
            for (int i = 0; i < 50; ++i) {
                acc += ref.Quantile(0.99);
                acc += ref.Max();
                acc += ref.Quantiles({0.5, 0.95}).back();
            }
            results[r] = acc;
        });
    }
    for (std::thread& t : readers)
        t.join();
    for (int r = 1; r < 8; ++r)
        EXPECT_DOUBLE_EQ(results[r], results[0]);
    EXPECT_EQ(d.Count(), 2000u);
    EXPECT_DOUBLE_EQ(d.Quantile(1.0), d.Max());
}

TEST(PercentileDigest, QuantilesBatchMatchesSingles)
{
    PercentileDigest d;
    Rng rng(3);
    for (int i = 0; i < 500; ++i)
        d.Add(rng.Uniform(0, 100));
    d.Seal();
    const auto qs = d.Quantiles({0.5, 0.9, 0.99});
    EXPECT_DOUBLE_EQ(qs[0], d.Quantile(0.5));
    EXPECT_DOUBLE_EQ(qs[1], d.Quantile(0.9));
    EXPECT_DOUBLE_EQ(qs[2], d.Quantile(0.99));
}

TEST(PercentileDigest, MeanAndMax)
{
    PercentileDigest d;
    d.Add(1.0);
    d.Add(2.0);
    d.Add(6.0);
    d.Seal();
    EXPECT_DOUBLE_EQ(d.Mean(), 3.0);
    EXPECT_DOUBLE_EQ(d.Max(), 6.0);
}

/** Property: quantiles are monotonically non-decreasing in p. */
class QuantileMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(QuantileMonotoneTest, MonotoneInP)
{
    Rng rng(static_cast<uint64_t>(GetParam()));
    PercentileDigest d;
    const int n = 1 + static_cast<int>(rng.UniformInt(300ULL));
    for (int i = 0; i < n; ++i)
        d.Add(rng.Normal(50, 20));
    d.Seal();
    double prev = d.Quantile(0.0);
    for (double p = 0.05; p <= 1.0; p += 0.05) {
        const double q = d.Quantile(p);
        EXPECT_GE(q, prev - 1e-12);
        prev = q;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileMonotoneTest,
                         ::testing::Range(1, 9));

TEST(RunningSummary, TracksMinMaxMeanCount)
{
    RunningSummary s;
    s.Add(3.0);
    s.Add(-1.0);
    s.Add(4.0);
    EXPECT_EQ(s.Count(), 3u);
    EXPECT_DOUBLE_EQ(s.Min(), -1.0);
    EXPECT_DOUBLE_EQ(s.Max(), 4.0);
    EXPECT_DOUBLE_EQ(s.Mean(), 2.0);
    s.Reset();
    EXPECT_EQ(s.Count(), 0u);
    EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
}

TEST(VectorQuantile, EdgeProbabilities)
{
    std::vector<double> v = {3.0, 1.0, 2.0};
    EXPECT_DOUBLE_EQ(VectorQuantile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(VectorQuantile(v, 1.0), 3.0);
    EXPECT_DOUBLE_EQ(VectorQuantile(v, 0.5), 2.0);
    EXPECT_DOUBLE_EQ(VectorQuantile({}, 0.5), 0.0);
}

TEST(Rmse, MatchesHandComputation)
{
    EXPECT_DOUBLE_EQ(Rmse({1.0, 2.0}, {1.0, 4.0}), std::sqrt(2.0));
    EXPECT_DOUBLE_EQ(Rmse({}, {}), 0.0);
    EXPECT_THROW(Rmse({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Mean, Basics)
{
    EXPECT_DOUBLE_EQ(Mean({2.0, 4.0}), 3.0);
    EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t({"name", "value"});
    t.Row().Add("alpha").Add(1.5, 1);
    t.Row().Add("b").Add(static_cast<long long>(10));
    const std::string out = t.Render();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("1.5"), std::string::npos);
    EXPECT_NE(out.find("10"), std::string::npos);
    EXPECT_EQ(t.NumRows(), 2u);
}

TEST(TextTable, CsvOutput)
{
    TextTable t({"a", "b"});
    t.Row().Add("x").Add(2.25, 2);
    EXPECT_EQ(t.RenderCsv(), "a,b\nx,2.25\n");
}

TEST(FormatDouble, Precision)
{
    EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

TEST(WriteFile, RoundTripsThroughDisk)
{
    const std::string path = "/tmp/sinan_test_dir/out.txt";
    WriteFile(path, "hello");
    std::ifstream in(path);
    std::string content;
    std::getline(in, content);
    EXPECT_EQ(content, "hello");
    std::filesystem::remove_all("/tmp/sinan_test_dir");
}

TEST(RingWindow, RejectsZeroCapacity)
{
    EXPECT_THROW(RingWindow<int>(0), std::invalid_argument);
}

TEST(RingWindow, FillsThenWrapsChronologically)
{
    RingWindow<int> w(3);
    EXPECT_FALSE(w.Full());
    w.Push(1);
    w.Push(2);
    w.Push(3);
    EXPECT_TRUE(w.Full());
    w.Push(4); // evicts 1
    EXPECT_EQ(w.At(0), 2);
    EXPECT_EQ(w.At(1), 3);
    EXPECT_EQ(w.At(2), 4);
    EXPECT_EQ(w.Back(), 4);
    w.Push(5);
    w.Push(6);
    w.Push(7); // multiple wraps
    EXPECT_EQ(w.At(0), 5);
    EXPECT_EQ(w.At(2), 7);
}

TEST(RingWindow, AtOutOfRangeThrows)
{
    RingWindow<int> w(2);
    w.Push(1);
    EXPECT_THROW(w.At(1), std::out_of_range);
    EXPECT_THROW(RingWindow<int>(2).Back(), std::out_of_range);
}

TEST(RingWindow, ClearResets)
{
    RingWindow<int> w(2);
    w.Push(1);
    w.Push(2);
    w.Clear();
    EXPECT_EQ(w.Size(), 0u);
    w.Push(9);
    EXPECT_EQ(w.At(0), 9);
}

TEST(MetricsRegistry, CountersAndGauges)
{
    MetricsRegistry reg;
    EXPECT_EQ(reg.Counter("absent"), 0u);
    EXPECT_DOUBLE_EQ(reg.Gauge("absent"), 0.0);
    reg.Inc("a");
    reg.Inc("a", 4);
    reg.Set("g", 2.5);
    reg.Set("g", -1.0);
    EXPECT_EQ(reg.Counter("a"), 5u);
    EXPECT_DOUBLE_EQ(reg.Gauge("g"), -1.0);
    reg.Clear();
    EXPECT_EQ(reg.Counter("a"), 0u);
}

TEST(MetricsRegistry, HistogramBucketsAndSummary)
{
    MetricsRegistry reg;
    reg.Observe("h", 0.5, {1.0, 10.0, 100.0});
    reg.Observe("h", 1.0);  // boundary lands in its bucket (inclusive)
    reg.Observe("h", 50.0);
    reg.Observe("h", 1000.0); // overflow
    const FixedHistogram* h = reg.Histogram("h");
    ASSERT_NE(h, nullptr);
    ASSERT_EQ(h->Counts().size(), 4u);
    EXPECT_EQ(h->Counts()[0], 2u);
    EXPECT_EQ(h->Counts()[1], 0u);
    EXPECT_EQ(h->Counts()[2], 1u);
    EXPECT_EQ(h->Counts()[3], 1u);
    EXPECT_EQ(h->Count(), 4u);
    EXPECT_DOUBLE_EQ(h->Sum(), 1051.5);
    EXPECT_DOUBLE_EQ(h->Min(), 0.5);
    EXPECT_DOUBLE_EQ(h->Max(), 1000.0);
    EXPECT_EQ(reg.Histogram("absent"), nullptr);
}

TEST(MetricsRegistry, HistogramRejectsUnsortedBounds)
{
    EXPECT_THROW(FixedHistogram({3.0, 1.0}), std::invalid_argument);
}

TEST(MetricsRegistry, SerializationIsDeterministic)
{
    auto fill = [](MetricsRegistry& reg, bool reorder) {
        if (reorder) {
            reg.Set("gauge.z", 7.0);
            reg.Inc("counter.b", 2);
            reg.Inc("counter.a");
        } else {
            reg.Inc("counter.a");
            reg.Inc("counter.b", 2);
            reg.Set("gauge.z", 7.0);
        }
        reg.Observe("hist", 3.0, {1.0, 5.0});
        reg.Observe("hist", 9.0);
    };
    MetricsRegistry x, y;
    fill(x, false);
    fill(y, true);
    // Same metrics in any insertion order render byte-identically.
    EXPECT_EQ(x.ToCsv(), y.ToCsv());
    EXPECT_EQ(x.ToJson(), y.ToJson());
    EXPECT_NE(x.ToCsv().find("counter,counter.a,value,1"),
              std::string::npos);
    EXPECT_NE(x.ToCsv().find("histogram,hist,le_inf,1"),
              std::string::npos);
    EXPECT_NE(x.ToJson().find("\"counter.b\": 2"), std::string::npos);
}

// ---- ParseNumber ------------------------------------------------------

template <typename T>
void
ExpectParses(const char* s, T want)
{
    SCOPED_TRACE(s);
    T got{};
    ASSERT_EQ(ParseNumber(s, got), std::errc{});
    if constexpr (std::is_floating_point_v<T>) {
        EXPECT_EQ(std::bit_cast<uint64_t>(got),
                  std::bit_cast<uint64_t>(want));
    } else {
        EXPECT_EQ(got, want);
    }
}

template <typename T>
void
ExpectRejects(const char* s, std::errc want)
{
    SCOPED_TRACE(s);
    T got = T(7);
    EXPECT_EQ(ParseNumber(s, got), want);
    EXPECT_EQ(got, T(7)) << "a rejected token must leave out unchanged";
}

TEST(ParseNumber, AcceptsWholeTokenNumbers)
{
    ExpectParses("0", 0.0);
    ExpectParses("-0", -0.0);
    ExpectParses(".5", 0.5);
    ExpectParses("5.", 5.0);
    ExpectParses("1e+5", 1e5);
    ExpectParses("1e-320", 1e-320); // subnormal, but not zero
    ExpectParses("-2.5", -2.5);
    ExpectParses("0", 0);
    ExpectParses("-0", 0);
    ExpectParses("-2147483648", INT32_MIN);
    ExpectParses("2147483647", INT32_MAX);
    ExpectParses("-9223372036854775808", INT64_MIN);
    ExpectParses("9223372036854775807", INT64_MAX);
    ExpectParses("0", uint64_t{0});
    ExpectParses("18446744073709551615", UINT64_MAX);
}

TEST(ParseNumber, RejectsWhatIsNotWhollyANumber)
{
    constexpr std::errc kBad = std::errc::invalid_argument;
    for (const char* s : {"", " 5", "5 ", "+5", "0x10", "1.5e", "inf",
                          "-inf", "nan", "-nan", "infinity", "5,",
                          "1e5x", "1e999x", "\t5"}) {
        ExpectRejects<double>(s, kBad);
    }
    for (const char* s : {"", " 5", "5 ", "+5", "0x10", "1.5", "1e3",
                          "5x"}) {
        ExpectRejects<int>(s, kBad);
        ExpectRejects<int64_t>(s, kBad);
        ExpectRejects<uint64_t>(s, kBad);
    }
    ExpectRejects<uint64_t>("-3", kBad);
    ExpectRejects<uint64_t>("-0", kBad);
}

TEST(ParseNumber, ReportsOutOfRange)
{
    constexpr std::errc kRange = std::errc::result_out_of_range;
    ExpectRejects<double>("1e999", kRange);
    ExpectRejects<double>("-1e999", kRange);
    ExpectRejects<double>("1e-400", kRange); // underflows to zero
    ExpectRejects<int>("99999999999999999999", kRange);
    ExpectRejects<int>("2147483648", kRange);
    ExpectRejects<int>("-2147483649", kRange);
    ExpectRejects<int64_t>("99999999999999999999", kRange);
    ExpectRejects<int64_t>("-9223372036854775809", kRange);
    ExpectRejects<uint64_t>("99999999999999999999", kRange);
    ExpectRejects<uint64_t>("18446744073709551616", kRange);
}

TEST(ParseNumber, RoundsDoublesExactlyAsStrtod)
{
    // Seeded bit patterns over the whole finite range (normals and
    // subnormals), printed at round-trip precision and at 25 digits so
    // the parser must also round a decimal that lies between doubles.
    Rng rng(2024);
    int checked = 0;
    while (checked < 1000) {
        const double x = std::bit_cast<double>(rng.NextU64());
        if (!std::isfinite(x))
            continue;
        for (const int prec : {17, 25}) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.*g", prec, x);
            SCOPED_TRACE(buf);
            double got = 0.0;
            ASSERT_EQ(ParseNumber(buf, got), std::errc{});
            const double want = std::strtod(buf, nullptr);
            EXPECT_EQ(std::bit_cast<uint64_t>(got),
                      std::bit_cast<uint64_t>(want));
        }
        ++checked;
    }
}

} // namespace
} // namespace sinan
