#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double
Percentile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double pos =
        std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
Median(const std::vector<double>& values)
{
    return Percentile(values, 0.5);
}

double
UnionLength(std::vector<Interval> intervals)
{
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) {
                  return a.start < b.start;
              });
    double total = 0.0;
    bool open = false;
    Interval run;
    for (const Interval& iv : intervals) {
        if (iv.end <= iv.start) {
            continue;
        }
        if (open && iv.start <= run.end) {
            run.end = std::max(run.end, iv.end);
            continue;
        }
        if (open) {
            total += run.end - run.start;
        }
        run = iv;
        open = true;
    }
    if (open) {
        total += run.end - run.start;
    }
    return total;
}

double
SelfTime(const Interval& parent, const std::vector<Interval>& children)
{
    std::vector<Interval> clipped;
    clipped.reserve(children.size());
    for (const Interval& c : children) {
        clipped.push_back({std::max(c.start, parent.start),
                           std::min(c.end, parent.end)});
    }
    return std::max(0.0, parent.end - parent.start) - UnionLength(clipped);
}

double
PerUnit(double numerator, double denominator)
{
    return denominator == 0.0 ? 0.0 : numerator / denominator;
}

double
HitRatio(std::uint64_t hits, std::uint64_t misses)
{
    return PerUnit(static_cast<double>(hits),
                   static_cast<double>(hits) + static_cast<double>(misses));
}

double
RelativeOverhead(double treated, double base)
{
    return base == 0.0 ? 0.0 : treated / base - 1.0;
}

}  // namespace perfbench
