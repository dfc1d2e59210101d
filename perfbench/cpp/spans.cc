#include "spans.h"

#include "stats.h"

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now())
{
}

double
SpanRecorder::Now() const
{
    return ToSeconds(std::chrono::steady_clock::now());
}

double
SpanRecorder::ToSeconds(std::chrono::steady_clock::time_point t) const
{
    return std::chrono::duration<double>(t - epoch_).count();
}

int
SpanRecorder::Begin(const std::string& name, int parent, std::int64_t id)
{
    if (!enabled_) {
        return -1;
    }
    const double now = Now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, now, now, parent, id});
    return static_cast<int>(spans_.size()) - 1;
}

void
SpanRecorder::End(int index)
{
    if (index < 0) {
        return;
    }
    const double now = Now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.at(static_cast<std::size_t>(index)).end = now;
}

int
SpanRecorder::Add(const std::string& name, double start, double end,
                  int parent, std::int64_t id)
{
    if (!enabled_) {
        return -1;
    }
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start, end, parent, id});
    return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::size_t
SpanRecorder::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

std::map<std::string, SpanSummary>
SpanRecorder::Summarize() const
{
    const std::vector<Span> all = spans();
    std::vector<std::vector<Interval>> children(all.size());
    for (const Span& s : all) {
        if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < all.size()) {
            children[static_cast<std::size_t>(s.parent)].push_back(
                {s.start, s.end});
        }
    }
    std::map<std::string, SpanSummary> out;
    for (std::size_t i = 0; i < all.size(); ++i) {
        SpanSummary& sum = out[all[i].name];
        sum.count += 1;
        sum.total_seconds += all[i].end - all[i].start;
        sum.self_seconds += SelfTime({all[i].start, all[i].end}, children[i]);
    }
    return out;
}

double
MeasureSpanCostSeconds()
{
    constexpr int kSpans = 20000;
    SpanRecorder recorder(true);
    const double start = recorder.Now();
    for (int i = 0; i < kSpans; ++i) {
        recorder.End(recorder.Begin("probe", -1, i));
    }
    return (recorder.Now() - start) / kSpans;
}

}  // namespace perfbench
