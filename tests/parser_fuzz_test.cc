/**
 * @file
 * Seeded mutation fuzz over the parsers of outside text: the fault-spec
 * grammar (ParseFaultSpec), fleet shard overrides (ParseShardOverride)
 * and run logs (ParseRunLog).
 *
 * Each parser gets a fixed budget of inputs mutated from well-formed
 * seeds by byte flips, truncation, self-splicing and whole-token
 * replacement with hostile numbers (nan, inf, 1e999, a 20-digit
 * integer, a lone '+', the empty token). The property is the parsers'
 * documented contract: every input either parses or throws
 * std::invalid_argument (a contract violation is a bug, not a
 * rejection), and whatever parses is finite. Accepted fault specs must
 * also round-trip through FormatFaultSpec. The seed and budget are
 * fixed so a failure reproduces exactly; the failing input is printed.
 *
 * Out of scope: argv (a bad flag exits 2 through SimUsage, pinned by
 * cli_test's death tests) and the binary model container.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "fleet/fleet.h"
#include "harness/runlog.h"
#include "sim/fault_injector.h"

namespace sinan {
namespace {

constexpr int kInputsPerParser = 20000;
constexpr size_t kMaxInputBytes = 512;

/** Replaces one whole token (text between two @p delims) with a
 *  hostile number; a no-op on a token-free input. */
std::string
ReplaceToken(const std::string& s, const std::string& delims, Rng& rng)
{
    static const char* kHostile[] = {"nan", "inf", "1e999",
                                     "99999999999999999999", "+", ""};
    std::vector<std::pair<size_t, size_t>> tokens;
    size_t b = 0;
    for (size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || delims.find(s[i]) != std::string::npos) {
            if (i > b)
                tokens.emplace_back(b, i);
            b = i + 1;
        }
    }
    if (tokens.empty())
        return s;
    const auto [lo, hi] = tokens[rng.UniformInt(tokens.size())];
    return s.substr(0, lo) + kHostile[rng.UniformInt(std::size(kHostile))] +
           s.substr(hi);
}

/** Applies one to three random mutations to @p seed. */
std::string
Mutate(std::string s, const std::string& delims, Rng& rng)
{
    static const std::string kAlphabet = "0123456789.-+eE:;,@=x \t\n";
    const int n = static_cast<int>(rng.UniformInt(int64_t{1}, 3));
    for (int m = 0; m < n; ++m) {
        switch (rng.UniformInt(4u)) {
        case 0: // byte flip: a grammar-adjacent or an arbitrary byte
            if (!s.empty()) {
                const size_t at = rng.UniformInt(s.size());
                s[at] = rng.Bernoulli(0.5)
                            ? kAlphabet[rng.UniformInt(kAlphabet.size())]
                            : static_cast<char>(rng.UniformInt(256u));
            }
            break;
        case 1: // truncation
            s.resize(rng.UniformInt(s.size() + 1));
            break;
        case 2: { // self-splice: copy a slice of s into s
            const size_t lo = rng.UniformInt(s.size() + 1);
            const size_t hi = lo + rng.UniformInt(s.size() - lo + 1);
            s.insert(rng.UniformInt(s.size() + 1), s.substr(lo, hi - lo));
            break;
        }
        default:
            s = ReplaceToken(s, delims, rng);
            break;
        }
    }
    if (s.size() > kMaxInputBytes)
        s.resize(kMaxInputBytes);
    return s;
}

/**
 * Drives kInputsPerParser mutated inputs through @p parse, which
 * returns normally on acceptance (checking its own output) or throws.
 * Returns how many inputs were accepted.
 */
template <typename Parse>
int
Fuzz(const std::vector<std::string>& seeds, const std::string& delims,
     uint64_t rng_seed, Parse parse)
{
    Rng rng(rng_seed);
    int accepted = 0;
    for (int i = 0; i < kInputsPerParser; ++i) {
        const std::string input =
            Mutate(seeds[rng.UniformInt(seeds.size())], delims, rng);
        try {
            parse(input);
            ++accepted;
        } catch (const ContractViolation& e) {
            ADD_FAILURE() << "contract violation on '" << input
                          << "': " << e.what();
        } catch (const std::invalid_argument&) {
            // The documented rejection.
        } catch (const std::exception& e) {
            ADD_FAILURE() << "undocumented exception on '" << input
                          << "': " << e.what();
        }
        if (::testing::Test::HasFailure())
            return accepted;
    }
    return accepted;
}

TEST(ParserFuzz, FaultSpecsParseFiniteAndRoundTripOrThrow)
{
    const std::vector<std::string> seeds = {
        "stall@5+3:tier=2;caploss@8+2:tier=0,mag=0.5;spike@4:mag=250",
        "caploss@8+6:tiers=1-3,jitter=2,mag=0.5;flash@10+5:mag=2",
        "steal@3+4:tier=1,mag=0.375;drop@10;delay@2+2;nan@6",
        "spike@4:mag=123.456789;flash@0+9:mag=1.5",
        "chaos:correlated-outage",
    };
    const int accepted = Fuzz(
        seeds, "@+:;,=-", 1801, [](const std::string& input) {
            const FaultSchedule s = ParseFaultSpec(input);
            for (const FaultEvent& e : s.events)
                ASSERT_TRUE(std::isfinite(e.magnitude)) << input;
            const std::string formatted = FormatFaultSpec(s);
            const FaultSchedule back = ParseFaultSpec(formatted);
            ASSERT_EQ(back.events.size(), s.events.size()) << input;
            for (size_t i = 0; i < s.events.size(); ++i) {
                const FaultEvent& a = s.events[i];
                const FaultEvent& b = back.events[i];
                ASSERT_TRUE(a.kind == b.kind && a.start == b.start &&
                            a.duration == b.duration &&
                            a.tier == b.tier && a.tier_hi == b.tier_hi &&
                            a.jitter == b.jitter &&
                            a.magnitude == b.magnitude)
                    << "'" << input << "' formatted as '" << formatted
                    << "' parsed back differently";
            }
        });
    // The mutations must leave a share of valid inputs, or the
    // round-trip property above is never exercised.
    EXPECT_GT(accepted, kInputsPerParser / 20);
}

TEST(ParserFuzz, ShardOverridesParseFiniteOrThrow)
{
    const std::vector<std::string> seeds = {
        "7:app=hotel,users=2500",
        "3:manager=hold,users=187.5,seed=42",
        "12:faults=stall@2+3:tier=1;drop@6",
        "0:app=social,manager=sinan,seed=18446744073709551615",
    };
    const int accepted = Fuzz(
        seeds, ":,=", 1802, [](const std::string& input) {
            const ShardOverride ov = ParseShardOverride(input);
            ASSERT_GE(ov.index, 0) << input;
            ASSERT_TRUE(std::isfinite(ov.users)) << input;
            ASSERT_GE(ov.users, 0.0) << input;
        });
    EXPECT_GT(accepted, kInputsPerParser / 20);
}

TEST(ParserFuzz, RunLogsParseFiniteOrThrow)
{
    const std::vector<std::string> seeds = {
        "time_s,rps,p99_ms,predicted_p99_ms,predicted_violation,"
        "total_cpu,cpu:a,cpu:b\n"
        "1.0000,100.0000,50.2500,45.0000,0.1000,6.0000,2.0000,4.0000\n"
        "2.0000,120.5000,-1.0000,-1.0000,-1.0000,6.5000,2.5000,4.0000\n",
    };
    const int accepted = Fuzz(
        seeds, ",\n", 1803, [](const std::string& input) {
            for (const RunLogRow& r : ParseRunLog(input)) {
                ASSERT_TRUE(std::isfinite(r.time_s) &&
                            std::isfinite(r.rps) &&
                            std::isfinite(r.p99_ms) &&
                            std::isfinite(r.predicted_p99_ms) &&
                            std::isfinite(r.predicted_violation) &&
                            std::isfinite(r.total_cpu))
                    << input;
                for (const double a : r.alloc)
                    ASSERT_TRUE(std::isfinite(a)) << input;
            }
        });
    EXPECT_GT(accepted, kInputsPerParser / 20);
}

} // namespace
} // namespace sinan
