#include "harness/runlog.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/check.h"
#include "common/parse.h"
#include "common/table.h"

namespace sinan {

std::string
RunLogToCsv(const RunResult& result, const Application& app)
{
    std::ostringstream out;
    out << "time_s,rps,p99_ms,predicted_p99_ms,predicted_violation,"
           "total_cpu";
    for (const TierSpec& t : app.tiers)
        out << ",cpu:" << t.name;
    out << '\n';
    out.setf(std::ios::fixed);
    out.precision(4);
    for (const IntervalRecord& rec : result.timeline) {
        // A record whose allocation width drifted from the tier list
        // would silently shift every column after total_cpu.
        SINAN_CHECK_EQ(rec.alloc.size(), app.tiers.size());
        SINAN_CHECK_FINITE(rec.p99_ms);
        out << rec.time_s << ',' << rec.rps << ',' << rec.p99_ms << ','
            << rec.predicted_p99_ms << ',' << rec.predicted_violation
            << ',' << rec.total_cpu;
        for (double a : rec.alloc)
            out << ',' << a;
        out << '\n';
    }
    return out.str();
}

void
WriteRunLog(const std::string& path, const RunResult& result,
            const Application& app)
{
    WriteFile(path, RunLogToCsv(result, app));
}

namespace {

/** Parses one CSV cell as a double; reports line/column on failure. */
double
ParseCell(const std::string& cell, int line_no, size_t col)
{
    double v = 0.0;
    if (ParseNumber(cell, v) != std::errc{}) {
        throw std::invalid_argument(
            "ParseRunLog: line " + std::to_string(line_no) +
            ", column " + std::to_string(col) + ": bad numeric cell '" +
            cell + "'");
    }
    return v;
}

} // namespace

std::vector<RunLogRow>
ParseRunLog(const std::string& csv)
{
    // Logs written on (or round-tripped through) Windows tooling carry
    // CRLF line endings; a run cut short mid-write ends without a
    // trailing newline. Both used to surface as a confusing "bad
    // numeric cell" / column-count mismatch on an otherwise-valid file.
    const bool ends_mid_line = !csv.empty() && csv.back() != '\n';

    std::istringstream in(csv);
    std::string line;
    auto strip_cr = [](std::string& s) {
        if (!s.empty() && s.back() == '\r')
            s.pop_back();
    };
    if (!std::getline(in, line))
        throw std::invalid_argument("ParseRunLog: empty input");
    strip_cr(line);
    if (line.rfind("time_s,", 0) != 0)
        throw std::invalid_argument("ParseRunLog: bad header");
    const size_t header_cols =
        1 + static_cast<size_t>(
                std::count(line.begin(), line.end(), ','));

    std::vector<RunLogRow> rows;
    int line_no = 1;
    while (std::getline(in, line)) {
        ++line_no;
        strip_cr(line);
        if (line.empty())
            continue;
        const bool truncated = ends_mid_line && in.eof();
        const std::string truncation_hint =
            truncated ? " (the file ends without a newline — the final "
                        "row appears truncated)"
                      : "";
        std::istringstream ls(line);
        std::string cell;
        std::vector<double> values;
        while (std::getline(ls, cell, ',')) {
            try {
                values.push_back(
                    ParseCell(cell, line_no, values.size() + 1));
            } catch (const std::invalid_argument& e) {
                throw std::invalid_argument(e.what() + truncation_hint);
            }
        }
        if (values.size() < 6) {
            throw std::invalid_argument(
                "ParseRunLog: line " + std::to_string(line_no) +
                ": short row (" + std::to_string(values.size()) +
                " columns, need at least 6)" + truncation_hint);
        }
        // The alloc columns must agree with the header's tier list; a
        // truncated or over-long row would otherwise silently shift
        // per-tier allocations.
        if (values.size() != header_cols) {
            throw std::invalid_argument(
                "ParseRunLog: line " + std::to_string(line_no) + ": " +
                std::to_string(values.size()) +
                " columns but the header has " +
                std::to_string(header_cols) + truncation_hint);
        }
        RunLogRow row;
        row.time_s = values[0];
        row.rps = values[1];
        row.p99_ms = values[2];
        row.predicted_p99_ms = values[3];
        row.predicted_violation = values[4];
        row.total_cpu = values[5];
        row.alloc.assign(values.begin() + 6, values.end());
        rows.push_back(std::move(row));
    }
    return rows;
}

std::vector<RunLogRow>
LoadRunLog(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("LoadRunLog: cannot open " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return ParseRunLog(buf.str());
}

RunLogSummary
SummarizeRunLog(const std::vector<RunLogRow>& rows, double qos_ms,
                double warmup_s)
{
    RunLogSummary s;
    size_t met = 0;
    for (const RunLogRow& row : rows) {
        if (row.time_s <= warmup_s)
            continue;
        ++s.intervals;
        met += row.p99_ms <= qos_ms;
        s.mean_cpu += row.total_cpu;
        s.mean_p99_ms += row.p99_ms;
        s.max_cpu = std::max(s.max_cpu, row.total_cpu);
        s.max_p99_ms = std::max(s.max_p99_ms, row.p99_ms);
    }
    if (s.intervals) {
        s.qos_meet_prob =
            static_cast<double>(met) / static_cast<double>(s.intervals);
        s.mean_cpu /= static_cast<double>(s.intervals);
        s.mean_p99_ms /= static_cast<double>(s.intervals);
    }
    return s;
}

} // namespace sinan
