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

TEST(Quantile, ExactPercentilesOnSmallSet)
{
    Quantile q;
    for (int i = 1; i <= 100; ++i)
        q.sample(double(i));
    EXPECT_EQ(q.count(), 100u);
    EXPECT_DOUBLE_EQ(q.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(q.percentile(1.0), 100.0);
    EXPECT_NEAR(q.percentile(0.5), 50.5, 0.01);
    EXPECT_NEAR(q.percentile(0.99), 99.01, 0.1);
    EXPECT_DOUBLE_EQ(q.mean(), 50.5);
}

TEST(Quantile, EmptyIsZero)
{
    Quantile q;
    EXPECT_DOUBLE_EQ(q.percentile(0.5), 0.0);
}

TEST(Quantile, ReservoirBeyondCapKeepsCount)
{
    Quantile q(128);
    for (int i = 0; i < 10000; ++i)
        q.sample(double(i % 100));
    EXPECT_EQ(q.count(), 10000u);
    // The subsample still spans the distribution.
    EXPECT_LT(q.percentile(0.1), 40.0);
    EXPECT_GT(q.percentile(0.9), 60.0);
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
