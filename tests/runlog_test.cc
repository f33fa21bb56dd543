/**
 * @file
 * Tests for the execution-log writer/parser and its summary processing.
 */
#include <gtest/gtest.h>

#include <filesystem>

#include "app/apps.h"
#include "harness/runlog.h"

namespace sinan {
namespace {

RunResult
ToyResult(int intervals)
{
    RunResult r;
    for (int i = 0; i < intervals; ++i) {
        IntervalRecord rec;
        rec.time_s = i + 1.0;
        rec.rps = 100.0 + i;
        rec.p99_ms = 100.0 + 10.0 * i;
        rec.predicted_p99_ms = 95.0 + 10.0 * i;
        rec.predicted_violation = 0.05 * i;
        rec.alloc = {1.0 + i, 2.0, 3.0};
        rec.total_cpu = rec.alloc[0] + 5.0;
        r.timeline.push_back(rec);
    }
    return r;
}

Application
ToyApp()
{
    Application app;
    app.name = "toy";
    app.qos_ms = 150.0;
    for (const char* n : {"a", "b", "c"}) {
        TierSpec t;
        t.name = n;
        app.tiers.push_back(t);
    }
    RequestType rt;
    rt.root.tier = 0;
    app.request_types.push_back(rt);
    return app;
}

TEST(RunLog, CsvRoundTrip)
{
    const Application app = ToyApp();
    const RunResult r = ToyResult(4);
    const std::string csv = RunLogToCsv(r, app);
    EXPECT_NE(csv.find("cpu:a"), std::string::npos);

    const std::vector<RunLogRow> rows = ParseRunLog(csv);
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_NEAR(rows[2].time_s, 3.0, 1e-9);
    EXPECT_NEAR(rows[2].p99_ms, 120.0, 1e-9);
    EXPECT_NEAR(rows[2].predicted_p99_ms, 115.0, 1e-9);
    ASSERT_EQ(rows[2].alloc.size(), 3u);
    EXPECT_NEAR(rows[2].alloc[0], 3.0, 1e-9);
}

TEST(RunLog, FileRoundTrip)
{
    const Application app = ToyApp();
    const RunResult r = ToyResult(3);
    const std::string path = "/tmp/sinan_runlog_test/run.csv";
    WriteRunLog(path, r, app);
    const std::vector<RunLogRow> rows = LoadRunLog(path);
    EXPECT_EQ(rows.size(), 3u);
    std::filesystem::remove_all("/tmp/sinan_runlog_test");
    EXPECT_THROW(LoadRunLog(path), std::runtime_error);
}

TEST(RunLog, ParserRejectsGarbage)
{
    EXPECT_THROW(ParseRunLog(""), std::invalid_argument);
    EXPECT_THROW(ParseRunLog("not,a,header\n1,2,3\n"),
                 std::invalid_argument);
    EXPECT_THROW(
        ParseRunLog("time_s,rps,p99_ms,predicted_p99_ms,"
                    "predicted_violation,total_cpu\n1,2,3\n"),
        std::invalid_argument);
}

TEST(RunLog, MalformedCellReportsLineAndColumn)
{
    const std::string csv =
        "time_s,rps,p99_ms,predicted_p99_ms,predicted_violation,"
        "total_cpu,cpu:a\n"
        "1,100,50,45,0.1,6,2\n"
        "2,100,oops,45,0.1,6,2\n";
    try {
        ParseRunLog(csv);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
        EXPECT_NE(msg.find("column 3"), std::string::npos) << msg;
        EXPECT_NE(msg.find("'oops'"), std::string::npos) << msg;
    }
}

TEST(RunLog, RejectsTrailingGarbageInCell)
{
    // std::stod would parse the "1.5" prefix and silently drop "x".
    const std::string csv =
        "time_s,rps,p99_ms,predicted_p99_ms,predicted_violation,"
        "total_cpu,cpu:a\n"
        "1.5x,100,50,45,0.1,6,2\n";
    EXPECT_THROW(ParseRunLog(csv), std::invalid_argument);
}

TEST(RunLog, RejectsEmptyCell)
{
    const std::string csv =
        "time_s,rps,p99_ms,predicted_p99_ms,predicted_violation,"
        "total_cpu,cpu:a\n"
        "1,100,,45,0.1,6,2\n";
    EXPECT_THROW(ParseRunLog(csv), std::invalid_argument);
}

TEST(RunLog, RejectsNonFiniteAndPaddedCells)
{
    // A run log holds only the finite, unpadded numbers RunLogToCsv
    // writes.
    for (const char* cell : {"inf", "nan", " 1.0", "+1", "1e999"}) {
        SCOPED_TRACE(cell);
        const std::string csv =
            "time_s,rps,p99_ms,predicted_p99_ms,predicted_violation,"
            "total_cpu,cpu:a\n"
            "1,100," +
            std::string(cell) + ",45,0.1,6,2\n";
        try {
            ParseRunLog(csv);
            FAIL() << "expected std::invalid_argument";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("bad numeric cell"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(RunLog, RejectsAllocColumnCountMismatch)
{
    // Header declares two tiers; rows with one or three alloc cells
    // must be rejected rather than silently shifting allocations.
    const std::string header =
        "time_s,rps,p99_ms,predicted_p99_ms,predicted_violation,"
        "total_cpu,cpu:a,cpu:b\n";
    EXPECT_NO_THROW(ParseRunLog(header + "1,100,50,45,0.1,6,2,3\n"));
    try {
        ParseRunLog(header + "1,100,50,45,0.1,6,2\n");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
        EXPECT_NE(msg.find("7 columns"), std::string::npos) << msg;
        EXPECT_NE(msg.find("header has 8"), std::string::npos) << msg;
    }
    EXPECT_THROW(ParseRunLog(header + "1,100,50,45,0.1,6,2,3,4\n"),
                 std::invalid_argument);
}

TEST(RunLog, AcceptsCrlfLineEndings)
{
    // Logs round-tripped through Windows tooling arrive with CRLF;
    // the '\r' used to stick to the last cell and fail numeric
    // parsing.
    const std::string csv =
        "time_s,rps,p99_ms,predicted_p99_ms,predicted_violation,"
        "total_cpu,cpu:a\r\n"
        "1,100,50,45,0.1,6,2\r\n"
        "2,100,60,55,0.1,6,2\r\n";
    const std::vector<RunLogRow> rows = ParseRunLog(csv);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_NEAR(rows[1].p99_ms, 60.0, 1e-9);
    ASSERT_EQ(rows[1].alloc.size(), 1u);
    EXPECT_NEAR(rows[1].alloc[0], 2.0, 1e-9);
}

TEST(RunLog, TruncatedFinalLineGetsAClearError)
{
    // A run cut short mid-write ends without a newline; the error must
    // say so instead of reporting a bare cell/column mismatch.
    const std::string header =
        "time_s,rps,p99_ms,predicted_p99_ms,predicted_violation,"
        "total_cpu,cpu:a\n";
    // Row cut mid-cell: the partial "0." still parses, so the column
    // count check fires — with the truncation hint.
    try {
        ParseRunLog(header + "1,100,50,45,0.1,6,2\n2,100,60,55,0.");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
        EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
    }
    // Row cut mid-number leaving garbage: the cell error carries the
    // hint too.
    try {
        ParseRunLog(header + "1,100,50,45,0.1,6,2\n2,100,6e");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
    }
    // A complete final row without a trailing newline still parses:
    // truncation is only reported when the row is actually malformed.
    const std::vector<RunLogRow> rows =
        ParseRunLog(header + "1,100,50,45,0.1,6,2\n2,100,60,55,0.1,6,3");
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_NEAR(rows[1].alloc[0], 3.0, 1e-9);
    // An intact file never mentions truncation.
    try {
        ParseRunLog(header + "1,100,oops,45,0.1,6,2\n");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()).find("truncated"),
                  std::string::npos);
    }
}

TEST(RunLog, SummaryMatchesDirectComputation)
{
    const RunResult r = ToyResult(10); // p99: 100..190, QoS 150
    const Application app = ToyApp();
    const auto rows = ParseRunLog(RunLogToCsv(r, app));
    const RunLogSummary s = SummarizeRunLog(rows, app.qos_ms, 0.0);
    EXPECT_EQ(s.intervals, 10u);
    // p99 <= 150 for i=0..5 -> 6 of 10.
    EXPECT_NEAR(s.qos_meet_prob, 0.6, 1e-9);
    EXPECT_NEAR(s.max_p99_ms, 190.0, 1e-9);
    EXPECT_NEAR(s.max_cpu, 15.0, 1e-9);
}

TEST(RunLog, SummaryRespectsWarmup)
{
    const RunResult r = ToyResult(10);
    const Application app = ToyApp();
    const auto rows = ParseRunLog(RunLogToCsv(r, app));
    const RunLogSummary s = SummarizeRunLog(rows, app.qos_ms, 5.0);
    EXPECT_EQ(s.intervals, 5u); // t=6..10
    const RunLogSummary empty = SummarizeRunLog(rows, app.qos_ms, 100.0);
    EXPECT_EQ(empty.intervals, 0u);
    EXPECT_DOUBLE_EQ(empty.qos_meet_prob, 0.0);
}

TEST(RunLog, EndToEndWithRealRun)
{
    // A tiny real run through the harness must serialize cleanly.
    const Application app = BuildSocialNetwork();
    class Hold : public ResourceManager {
      public:
        std::vector<double>
        Decide(const IntervalObservation&,
               const std::vector<double>& alloc,
               const Application&) override
        {
            return alloc;
        }
        const char* Name() const override { return "Hold"; }
    } hold;
    ConstantLoad load(80.0);
    RunConfig cfg;
    cfg.duration_s = 8.0;
    const RunResult r = RunManaged(app, hold, load, cfg);
    const auto rows = ParseRunLog(RunLogToCsv(r, app));
    ASSERT_EQ(rows.size(), 8u);
    EXPECT_EQ(rows[0].alloc.size(), app.tiers.size());
}

} // namespace
} // namespace sinan
