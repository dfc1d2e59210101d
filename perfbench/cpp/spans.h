/**
 * @file
 * The benchmark's own span recorder. Spans are taken around calls
 * into the program's public functions (Workload::Setup, RunTraining,
 * FrozenPlan::Freeze, ServingRuntime::Submit, ...), kept in memory,
 * and written out with the traced run's artifact. A disabled recorder
 * records nothing, so untraced runs pay one branch per call site.
 */
#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** One recorded span. Times are seconds since the recorder's epoch. */
struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;        ///< index of the causing span; -1 for roots.
    std::int64_t id = -1;   ///< request or window id; -1 when none.
};

/** Per-name totals over a run: how often, how long, and self time. */
struct SpanSummary {
    std::int64_t count = 0;
    double total_seconds = 0.0;
    double self_seconds = 0.0;  ///< total minus child-span coverage.
};

/** Thread-safe, append-only span store. */
class SpanRecorder {
  public:
    explicit SpanRecorder(bool enabled);

    bool enabled() const { return enabled_; }

    /** @return seconds since this recorder was constructed. */
    double Now() const;

    /** @return the seconds-since-epoch value of @p t. */
    double ToSeconds(std::chrono::steady_clock::time_point t) const;

    /** Opens a span now. @return its index, or -1 when disabled. */
    int Begin(const std::string& name, int parent = -1, std::int64_t id = -1);

    /** Closes span @p index now; ignores -1. */
    void End(int index);

    /** Records an already-timed span. @return its index, or -1. */
    int Add(const std::string& name, double start, double end,
            int parent = -1, std::int64_t id = -1);

    /** @return a copy of every span recorded so far. */
    std::vector<Span> spans() const;

    std::size_t size() const;

    /** @return per-name count, total time, and self time. */
    std::map<std::string, SpanSummary> Summarize() const;

  private:
    bool enabled_;
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mu_;  ///< guards spans_.
    std::vector<Span> spans_;
};

/** Opens a span on construction and closes it on destruction. */
class ScopedSpan {
  public:
    ScopedSpan(SpanRecorder& recorder, const std::string& name,
               int parent = -1, std::int64_t id = -1)
        : recorder_(recorder), index_(recorder.Begin(name, parent, id))
    {
    }
    ~ScopedSpan() { recorder_.End(index_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    int index() const { return index_; }

  private:
    SpanRecorder& recorder_;
    int index_;
};

/**
 * @return the measured cost of one Begin/End pair on an enabled
 * recorder, in seconds: the unit for stating the benchmark's own
 * tracing overhead.
 */
double MeasureSpanCostSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H
