/**
 * @file
 * Tests for the self-gating bench plumbing (src/harness/BenchGate.hh):
 *
 *  - the parser peels --out / --baseline / --tolerance, keeps the
 *    caller's defaults for absent flags, passes allowlisted flags
 *    through in `rest`, and accepts only a finite tolerance in
 *    [0, 1);
 *  - checkBaseline passes at exactly (1 - tolerance) x baseline,
 *    fails just below it, and reports an unreadable file or a
 *    missing key as status 2.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/BenchGate.hh"

using namespace netdimm;

namespace
{

/**
 * A baseline JSON in the test temp dir, removed on destruction. ctest
 * runs each test in its own process, in parallel, so the file is
 * named after the running test.
 */
struct TempBaseline
{
    std::string path;

    explicit TempBaseline(const std::string &text)
        : path(::testing::TempDir() + "bench_gate_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name() +
               ".json")
    {
        std::ofstream(path) << text;
    }
    ~TempBaseline() { std::remove(path.c_str()); }
};

} // namespace

TEST(BenchGate, ParsesValuedFlagsAndLeavesAllowlistedInRest)
{
    GateCli cli;
    cli.outPath = "BENCH_default.json";
    std::string err;
    ASSERT_TRUE(tryParseGateCli({"--short", "--out", "r.json", "--det",
                                 "--baseline", "b.json", "--tolerance",
                                 "0.5", "--jobs", "3"},
                                {"--det"}, cli, err))
        << err;
    EXPECT_EQ(cli.outPath, "r.json");
    EXPECT_EQ(cli.baselinePath, "b.json");
    EXPECT_DOUBLE_EQ(cli.tolerance, 0.5);
    EXPECT_TRUE(cli.sweep.shortMode);
    EXPECT_EQ(cli.sweep.jobs, 3u);
    EXPECT_EQ(cli.sweep.rest, std::vector<std::string>{"--det"});

    GateCli def;
    def.outPath = "BENCH_default.json";
    ASSERT_TRUE(tryParseGateCli({}, {}, def, err)) << err;
    EXPECT_EQ(def.outPath, "BENCH_default.json");
    EXPECT_TRUE(def.baselinePath.empty());
    EXPECT_DOUBLE_EQ(def.tolerance, 0.20);
    EXPECT_TRUE(def.sweep.rest.empty());

    GateCli zero;
    ASSERT_TRUE(tryParseGateCli({"--tolerance", "0"}, {}, zero, err))
        << err;
    EXPECT_DOUBLE_EQ(zero.tolerance, 0.0);
}

TEST(BenchGate, RejectsBadToleranceAndMissingValues)
{
    for (const char *bad :
         {"abc", "-1", "1", "1.5", "0.2x", "nan", "inf", ""}) {
        GateCli cli;
        std::string err;
        EXPECT_FALSE(tryParseGateCli({"--tolerance", bad}, {}, cli, err))
            << bad;
        EXPECT_NE(err.find("--tolerance"), std::string::npos) << err;
        EXPECT_DOUBLE_EQ(cli.tolerance, 0.20) << bad;
    }
    for (const char *flag : {"--out", "--baseline", "--tolerance"}) {
        GateCli cli;
        std::string err;
        EXPECT_FALSE(tryParseGateCli({flag}, {}, cli, err)) << flag;
        EXPECT_NE(err.find("requires a value"), std::string::npos)
            << err;
    }
    GateCli cli;
    std::string err;
    EXPECT_FALSE(tryParseGateCli({"--trace"}, {"--det"}, cli, err));
    EXPECT_NE(err.find("--trace"), std::string::npos) << err;
}

TEST(BenchGate, CheckBaselinePassesAtFloorAndFailsBelow)
{
    TempBaseline b("{\n  \"schema\": 1,\n  \"a_per_sec\": 1000,\n"
                   "  \"b_per_sec\": 2e3\n}\n");
    // Tolerance 0.25: floors 750 and 1500, exact in binary.
    EXPECT_EQ(checkBaseline(b.path, 0.25,
                            {{"a_per_sec", 750.0}, {"b_per_sec", 1500.0}}),
              0);
    EXPECT_EQ(checkBaseline(b.path, 0.25,
                            {{"a_per_sec", 5000.0},
                             {"b_per_sec", 1499.999}}),
              1);
    EXPECT_EQ(checkBaseline(b.path, 0.0, {{"a_per_sec", 999.999}}), 1);
    EXPECT_EQ(checkBaseline(b.path, 0.0, {{"a_per_sec", 1000.0}}), 0);
}

TEST(BenchGate, CheckBaselineMissingKeyOrFileIsStatus2)
{
    TempBaseline b("{\"a_per_sec\": 1000, \"zero\": 0}\n");
    EXPECT_EQ(checkBaseline(b.path, 0.2, {{"b_per_sec", 1.0}}), 2);
    EXPECT_EQ(checkBaseline(b.path, 0.2,
                            {{"a_per_sec", 1000.0}, {"b_per_sec", 1.0}}),
              2);
    EXPECT_EQ(checkBaseline(b.path, 0.2, {{"zero", 1.0}}), 2);
    EXPECT_EQ(checkBaseline(b.path + ".missing", 0.2,
                            {{"a_per_sec", 1000.0}}),
              2);
}

TEST(BenchGate, HostProbesArePositive)
{
    auto t0 = std::chrono::steady_clock::now();
    EXPECT_GE(wallSeconds(t0), 0.0);
    EXPECT_GT(peakRssKb(), 0);
}
