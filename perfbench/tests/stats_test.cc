// Hand-computed cases for the benchmark's own arithmetic.
#include <gtest/gtest.h>

#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesBetweenClosestRanks)
{
    // Sorted: 1 2 3 4 5; position q * 4.
    const std::vector<double> v = {5, 1, 4, 2, 3};
    EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(Percentile(v, 0.9), 4.6);  // 4 + 0.6 * (5 - 4)
    EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 5.0);
    // Four values: p50 at position 1.5, p90 at 2.7.
    EXPECT_DOUBLE_EQ(Median({10, 20, 30, 40}), 25.0);
    EXPECT_DOUBLE_EQ(Percentile({10, 20, 30, 40}, 0.9), 37.0);
}

TEST(Percentile, EdgeSamples)
{
    EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(Percentile({7}, 0.9), 7.0);
    EXPECT_DOUBLE_EQ(Percentile({1, 2}, 1.5), 2.0);  // q clamps to 1.
}

TEST(UnionLength, CountsOverlapOnce)
{
    // [0,2) u [1,3) = [0,3); [5,6) apart; [5.5,5.7) inside.
    EXPECT_DOUBLE_EQ(UnionLength({{1, 3}, {0, 2}, {5, 6}, {5.5, 5.7}}), 4.0);
    // Touching intervals merge; empty and inverted ones count nothing.
    EXPECT_DOUBLE_EQ(UnionLength({{0, 1}, {1, 2}, {3, 3}, {5, 4}}), 2.0);
    EXPECT_DOUBLE_EQ(UnionLength({}), 0.0);
}

TEST(SelfTime, SubtractsClippedChildCoverage)
{
    // Parent [0,10); children [1,3) and [2,4) cover [1,4) = 3.
    EXPECT_DOUBLE_EQ(SelfTime({0, 10}, {{1, 3}, {2, 4}}), 7.0);
    // A child sticking out of the parent counts only inside it:
    // [8,12) covers [8,10) = 2; [-1,1) covers [0,1) = 1.
    EXPECT_DOUBLE_EQ(SelfTime({0, 10}, {{8, 12}, {-1, 1}}), 7.0);
    // Fully covered parent has no self time; no children, all of it.
    EXPECT_DOUBLE_EQ(SelfTime({2, 4}, {{0, 5}}), 0.0);
    EXPECT_DOUBLE_EQ(SelfTime({2, 4}, {}), 2.0);
}

TEST(PerUnit, DividesOrReturnsZeroOnEmptyBase)
{
    // 1000 ops over 8 steps; 12 ms overhead over 3000 ops = 4 us/op.
    EXPECT_DOUBLE_EQ(PerUnit(1000, 8), 125.0);
    EXPECT_DOUBLE_EQ(PerUnit(12e3, 3000), 4.0);
    EXPECT_DOUBLE_EQ(PerUnit(5, 0), 0.0);
}

TEST(Ratios, UseTheirStatedBases)
{
    // 30 hits of 40 attempts.
    EXPECT_DOUBLE_EQ(HitRatio(30, 10), 0.75);
    EXPECT_DOUBLE_EQ(HitRatio(0, 0), 0.0);
    // 16 ms traced against 10 ms untraced: 60% overhead.
    EXPECT_DOUBLE_EQ(RelativeOverhead(16, 10), 0.6);
    EXPECT_DOUBLE_EQ(RelativeOverhead(8, 10), -0.2);
    EXPECT_DOUBLE_EQ(RelativeOverhead(1, 0), 0.0);
}

TEST(SpanRecorder, SummarizesSelfTimePerName)
{
    SpanRecorder r(true);
    const int window = r.Add("window", 0.0, 10.0);
    r.Add("step", 1.0, 4.0, window);
    r.Add("step", 3.0, 6.0, window);  // overlaps the first step by 1.
    r.Add("step", 20.0, 21.0);        // a root of its own.
    const auto s = r.Summarize();
    EXPECT_EQ(s.at("window").count, 1);
    EXPECT_DOUBLE_EQ(s.at("window").total_seconds, 10.0);
    EXPECT_DOUBLE_EQ(s.at("window").self_seconds, 5.0);  // 10 - [1,6)
    EXPECT_EQ(s.at("step").count, 3);
    EXPECT_DOUBLE_EQ(s.at("step").total_seconds, 7.0);
    EXPECT_DOUBLE_EQ(s.at("step").self_seconds, 7.0);
}

TEST(SpanRecorder, DisabledRecordsNothing)
{
    SpanRecorder r(false);
    EXPECT_EQ(r.Begin("x"), -1);
    r.End(-1);
    EXPECT_EQ(r.Add("y", 0, 1), -1);
    EXPECT_EQ(r.size(), 0u);
}

}  // namespace
}  // namespace perfbench
