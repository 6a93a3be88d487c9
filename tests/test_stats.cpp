/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/Stats.hh"

using namespace netdimm::stats;

TEST(Scalar, AccumulatesAndResets)
{
    Scalar s;
    EXPECT_EQ(s.value(), 0u);
    s.inc();
    s.inc(9);
    EXPECT_EQ(s.value(), 10u);
    s.reset();
    EXPECT_EQ(s.value(), 0u);
}

TEST(Average, BasicMoments)
{
    Average a;
    for (double v : {2.0, 4.0, 6.0, 8.0})
        a.sample(v);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 8.0);
    EXPECT_DOUBLE_EQ(a.sum(), 20.0);
    EXPECT_NEAR(a.stddev(), 2.2360679, 1e-6);
}

TEST(Average, EmptyIsZero)
{
    Average a;
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 0.0);
    EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
}

TEST(Average, ResetClears)
{
    Average a;
    a.sample(42.0);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(StatGroup, PrintsAllRows)
{
    StatGroup g("test.group");
    g.add("alpha", 1.5, "us");
    g.add("beta", 2.0);
    std::ostringstream os;
    g.print(os);
    std::string s = os.str();
    EXPECT_NE(s.find("test.group"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("beta"), std::string::npos);
    EXPECT_NE(s.find("us"), std::string::npos);
}
