/**
 * @file
 * The benchmark's own arithmetic: percentiles, interval unions, span
 * self time, and guarded divisions. Kept apart from the measuring code
 * so tests can check it on hand-computed cases.
 */
#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstdint>
#include <vector>

namespace perfbench {

/** A half-open time interval [start, end), in seconds. */
struct Interval {
    double start = 0.0;
    double end = 0.0;
};

/**
 * @return the @p q quantile (0 <= q <= 1) of @p values by linear
 * interpolation between closest ranks: position q * (n - 1) in the
 * sorted sample. 0 for an empty sample.
 */
double Percentile(std::vector<double> values, double q);

/** @return the median of @p values (Percentile at 0.5). */
double Median(const std::vector<double>& values);

/**
 * @return the measure of the union of @p intervals: every instant
 * covered by at least one interval counts once. Empty or inverted
 * intervals contribute nothing.
 */
double UnionLength(std::vector<Interval> intervals);

/**
 * @return the self time of @p parent: its length minus the part of it
 * that @p children cover. Children are clipped to the parent, and
 * overlapping children count once.
 */
double SelfTime(const Interval& parent, const std::vector<Interval>& children);

/**
 * @return @p numerator / @p denominator, or 0 when the denominator is
 * 0 (a per-step or per-op figure over a run that had no steps or ops).
 */
double PerUnit(double numerator, double denominator);

/**
 * @return hits / (hits + misses), or 0 when there were no attempts.
 * The base of the ratio is hits + misses.
 */
double HitRatio(std::uint64_t hits, std::uint64_t misses);

/**
 * @return the fractional change of @p treated against @p base,
 * treated / base - 1 (e.g. 0.25 when tracing makes a run 25% slower);
 * 0 when the base is 0.
 */
double RelativeOverhead(double treated, double base);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H
