/**
 * @file
 * serve-alexnet: open-loop Poisson arrivals into a ServingRuntime.
 *
 * One generator thread submits requests at their scheduled times,
 * whatever the runtime's state (independent users); the main thread
 * collects responses in submission order, which with the runtime's one
 * FIFO executor is also completion order. Each latency runs from the
 * request's scheduled send time, so a stall also charges the requests
 * queued behind it. Every response is checked bit for bit against a
 * solo FrozenPlan::ServeOne of the same request, computed before any
 * timing starts. A run whose generator fell behind its schedule, or
 * whose backlog grew, is invalid and reports nothing.
 */
#include <atomic>
#include <condition_variable>
#include <future>
#include <iostream>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>

#include "layers.h"
#include "serving/serving_runtime.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

using fathom::serving::FrozenPlan;
using fathom::serving::RequestFeeds;
using fathom::workloads::Workload;

/**
 * Offered rate, fixed so that every commit sees the same load. The
 * frozen plan serves about 430 rows/s on a 4-core host, so the runtime
 * is about half busy.
 */
constexpr double kRatePerSecond = 200.0;
/** Distinct requests; the schedule cycles through them. */
constexpr int kDistinctRequests = 64;
/** Leading part of the schedule that warms the runtime, unreported. */
constexpr double kWarmSeconds = 0.5;
/** Invalid when the generator's p99 lateness exceeds this. */
constexpr double kMaxLateP99Ms = 20.0;
/** Invalid when fewer than this share of the offered rate was sent. */
constexpr double kMinAchievedShare = 0.95;
/** Invalid when this many requests are outstanding at the last send. */
constexpr std::int64_t kMaxBacklogAtEnd = 32;
/** Repetitions of each frozen-plan batch timing. */
constexpr int kRowTimingCalls = 20;

/** A set-up workload, its frozen plan, and its request pool. */
struct Served {
    std::unique_ptr<Workload> workload;
    std::shared_ptr<const FrozenPlan> plan;
    std::vector<RequestFeeds> requests;
    double setup_seconds = 0.0;   ///< Setup + Freeze + first ServeOne.
    double freeze_seconds = 0.0;
};

Served
Build(const Options& options, bool traced, SpanRecorder& spans,
      std::int64_t rep)
{
    Served s;
    auto config = BaseConfig(options);
    config.tracing = traced;
    config.telemetry = traced;
    s.workload =
        fathom::workloads::WorkloadRegistry::Global().Create("alexnet");
    auto start = Clock::now();
    {
        ScopedSpan span(spans, "Workload::Setup", -1, rep);
        s.workload->Setup(config);
    }
    s.setup_seconds = SecondsSince(start);
    for (int i = 0; i < kDistinctRequests; ++i) {
        s.requests.push_back(s.workload->SampleServingRequest());
    }
    fathom::serving::FrozenPlanOptions plan_options;
    plan_options.intra_op_threads = kIntraOpThreads;
    plan_options.inter_op_threads = kInterOpThreads;
    start = Clock::now();
    {
        ScopedSpan span(spans, "FrozenPlan::Freeze", -1, rep);
        s.plan = s.workload->FreezeServingPlan(plan_options);
    }
    s.freeze_seconds = SecondsSince(start);
    start = Clock::now();
    {
        ScopedSpan span(spans, "FrozenPlan::ServeOne.first", -1, rep);
        s.plan->ServeOne(s.requests[0]);
    }
    s.setup_seconds += s.freeze_seconds + SecondsSince(start);
    return s;
}

/** What one open-loop run measured (warm-up requests excluded). */
struct OpenLoop {
    std::int64_t sent = 0, succeeded = 0, failed = 0, rejected = 0;
    std::vector<double> latency_ms, queue_ms, exec_ms, late_ms;
    double offered_per_s = 0.0, achieved_per_s = 0.0, served_per_s = 0.0;
    std::int64_t backlog_max = 0, backlog_at_end = 0;
};

/** One scheduled request, as the generator and collector see it. */
struct Slot {
    Clock::time_point due{}, sent{};
    std::future<fathom::serving::InferenceResponse> response;
    bool rejected = false;
    int span = -1;  ///< the request's span; -1 when untraced.
};

OpenLoop
RunOpenLoop(const Served& served,
            const std::vector<std::vector<fathom::Tensor>>& expected,
            std::uint64_t seed, double seconds, SpanRecorder& spans,
            fathom::runtime::Tracer* tracer, Result& result)
{
    // The schedule depends on the seed only.
    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> gap(kRatePerSecond);
    std::vector<double> offsets;
    for (double t = 0.0; t < kWarmSeconds + seconds; t += gap(rng)) {
        offsets.push_back(t);
    }
    const std::size_t n = offsets.size();
    std::vector<Slot> slots(n);

    fathom::serving::ServingOptions serving_options;
    serving_options.tracer = tracer;
    fathom::serving::ServingRuntime runtime(served.plan, serving_options);

    OpenLoop out;
    std::mutex mu;
    std::condition_variable cv;
    std::size_t num_sent = 0;  // guarded by mu.
    std::atomic<std::int64_t> num_done{0};
    std::size_t first_measured = n;
    const auto t0 = Clock::now() + std::chrono::milliseconds(5);
    for (std::size_t i = 0; i < n; ++i) {
        slots[i].due = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(offsets[i]));
        if (first_measured == n && offsets[i] >= kWarmSeconds) {
            first_measured = i;
        }
    }
    Clock::time_point last_done = t0;
    {
        // Joined at the end of this scope, on every path.
        std::jthread generator([&] {
            for (std::size_t i = 0; i < n; ++i) {
                Slot& slot = slots[i];
                std::this_thread::sleep_until(slot.due);
                slot.sent = Clock::now();
                slot.span = spans.Add("request", spans.ToSeconds(slot.due),
                                      spans.ToSeconds(slot.due), -1,
                                      static_cast<std::int64_t>(i));
                const int submit = spans.Begin("ServingRuntime::Submit",
                                               slot.span,
                                               static_cast<std::int64_t>(i));
                try {
                    slot.response = runtime.Submit(
                        served.requests[i % served.requests.size()]);
                } catch (const std::exception&) {
                    slot.rejected = true;
                }
                spans.End(submit);
                if (i >= first_measured) {
                    const std::int64_t backlog =
                        static_cast<std::int64_t>(i) + 1 - num_done.load();
                    out.backlog_max = std::max(out.backlog_max, backlog);
                    out.backlog_at_end = backlog;
                }
                {
                    std::lock_guard<std::mutex> lock(mu);
                    num_sent = i + 1;
                }
                cv.notify_one();
            }
        });

        for (std::size_t i = 0; i < n; ++i) {
            {
                std::unique_lock<std::mutex> lock(mu);
                cv.wait(lock, [&] { return num_sent > i; });
            }
            Slot& slot = slots[i];
            const bool measured = i >= first_measured;
            result.attempted += 1;
            out.sent += measured ? 1 : 0;
            if (slot.rejected) {
                num_done.fetch_add(1);
                result.failed += 1;
                out.rejected += measured ? 1 : 0;
                continue;
            }
            try {
                const auto response = slot.response.get();
                const auto done = Clock::now();
                num_done.fetch_add(1);
                spans.End(slot.span);
                const auto& want = expected[i % expected.size()];
                bool same = response.outputs.size() == want.size();
                for (std::size_t o = 0; same && o < want.size(); ++o) {
                    same = BitEqual(response.outputs[o], want[o]);
                }
                if (!same) {
                    result.Mismatch("request " + std::to_string(i) +
                                    " differs from its solo ServeOne");
                }
                const double sent_at = spans.ToSeconds(slot.sent);
                spans.Add("ServingRuntime.queue", sent_at,
                          sent_at + response.queue_seconds, slot.span,
                          static_cast<std::int64_t>(i));
                spans.Add("ServingRuntime.execute",
                          sent_at + response.queue_seconds,
                          sent_at + response.latency_seconds, slot.span,
                          static_cast<std::int64_t>(i));
                if (measured) {
                    out.succeeded += 1;
                    last_done = done;
                    out.latency_ms.push_back(
                        std::chrono::duration<double>(done - slot.due).count() *
                        1e3);
                    out.late_ms.push_back(
                        std::chrono::duration<double>(slot.sent - slot.due)
                            .count() *
                        1e3);
                    out.queue_ms.push_back(response.queue_seconds * 1e3);
                    out.exec_ms.push_back(
                        (response.latency_seconds - response.queue_seconds) *
                        1e3);
                }
            } catch (const std::exception& e) {
                num_done.fetch_add(1);
                result.failed += 1;
                out.failed += measured ? 1 : 0;
                std::cerr << "request " << i << " failed: " << e.what() << "\n";
            }
        }
    }
    runtime.Stop();

    if (first_measured + 1 < n) {
        const double span = offsets[n - 1] - offsets[first_measured];
        const double sent_span =
            std::chrono::duration<double>(slots[n - 1].sent -
                                          slots[first_measured].sent)
                .count();
        out.offered_per_s = PerUnit(static_cast<double>(n - first_measured - 1),
                                    span);
        out.achieved_per_s = PerUnit(
            static_cast<double>(n - first_measured - 1), sent_span);
        out.served_per_s = PerUnit(
            static_cast<double>(out.succeeded),
            std::chrono::duration<double>(last_done -
                                          slots[first_measured].due)
                .count());
    }
    std::cerr << "loadgen: sent " << out.sent << ", succeeded "
              << out.succeeded << ", failed " << out.failed << ", rejected "
              << out.rejected << "; offered " << out.offered_per_s
              << "/s, achieved " << out.achieved_per_s << "/s; late p99 "
              << Percentile(out.late_ms, 0.99) << " ms, max "
              << Percentile(out.late_ms, 1.0) << " ms; backlog max "
              << out.backlog_max << ", at end " << out.backlog_at_end << "\n";

    std::string invalid;
    if (Percentile(out.late_ms, 0.99) > kMaxLateP99Ms ||
        out.achieved_per_s < kMinAchievedShare * out.offered_per_s) {
        invalid = "the load generator fell behind its schedule";
    } else if (out.backlog_at_end > kMaxBacklogAtEnd) {
        invalid = "the backlog grew to " + std::to_string(out.backlog_at_end) +
                  " outstanding requests";
    }
    if (!invalid.empty()) {
        throw InvalidRun("serve-alexnet: " + invalid);
    }
    return out;
}

/** Median per-row time of ServeBatch at @p rows rows, in ms. */
double
RowMs(const Served& served, std::size_t rows, SpanRecorder& spans)
{
    std::vector<const RequestFeeds*> batch;
    for (std::size_t r = 0; r < rows; ++r) {
        batch.push_back(&served.requests[r]);
    }
    served.plan->ServeBatch(batch);
    std::vector<double> ms;
    for (int c = 0; c < kRowTimingCalls; ++c) {
        const auto start = Clock::now();
        ScopedSpan span(spans, "FrozenPlan::ServeBatch",
                        -1, static_cast<std::int64_t>(rows));
        served.plan->ServeBatch(batch);
        ms.push_back(SecondsSince(start) * 1e3 / static_cast<double>(rows));
    }
    return Median(ms);
}

/** Builds repeatedly (see MoreSetupReps). @return the last build. */
Served
BuildRepeatedly(const Options& options, bool traced, SpanRecorder& spans,
                std::vector<double>& setup_s, std::vector<double>& freeze_s)
{
    Served last;
    const auto start = Clock::now();
    for (int rep = 0; MoreSetupReps(rep, SecondsSince(start)); ++rep) {
        last = Build(options, traced, spans, rep);
        setup_s.push_back(last.setup_seconds);
        freeze_s.push_back(last.freeze_seconds);
    }
    return last;
}

/** Solo ServeOne of every pooled request: the expected responses. */
std::vector<std::vector<fathom::Tensor>>
SoloResponses(const Served& served, const Options& options,
              Reference& reference, Result& result)
{
    std::vector<std::vector<fathom::Tensor>> expected;
    for (const auto& request : served.requests) {
        expected.push_back(served.plan->ServeOne(request));
    }
    if (options.seed == kReferenceSeed) {
        const auto& logits = expected[0][0];
        if (!reference.Expect("logit0." + options.workload + ".request0",
                              HexFloat(logits.data<float>()[0]))) {
            result.Mismatch("serve-alexnet: first response differs from "
                            "reference");
        }
    }
    return expected;
}

Result
RunServeUntraced(const Options& options, Reference& reference)
{
    Result result;
    SpanRecorder off(false);
    std::vector<double> setup_s, freeze_s;
    const Served served = BuildRepeatedly(options, false, off, setup_s,
                                          freeze_s);
    const auto expected = SoloResponses(served, options, reference, result);
    const OpenLoop run = RunOpenLoop(served, expected, options.seed,
                                     options.seconds, off, nullptr, result);
    result.Add("throughput_per_s", run.served_per_s, "items/s");
    result.Add("latency_p50_ms", Percentile(run.latency_ms, 0.5), "ms");
    result.Add("latency_p90_ms", Percentile(run.latency_ms, 0.9), "ms");
    result.Add("setup_s", Median(setup_s), "s");
    return result;
}

Result
RunServeTraced(const Options& options, Reference& reference)
{
    Result result;
    SpanRecorder off(false);
    OpenLoop base;
    {
        const Served served = Build(options, false, off, 0);
        const auto expected = SoloResponses(served, options, reference, result);
        base = RunOpenLoop(served, expected, options.seed, options.seconds / 2,
                           off, nullptr, result);
    }

    SpanRecorder spans(true);
    auto& registry = fathom::telemetry::MetricsRegistry::Global();
    registry.ResetAll();
    std::vector<double> setup_s, freeze_s;
    const Served served = BuildRepeatedly(options, true, spans, setup_s,
                                          freeze_s);
    const auto setup_counters = registry.Snapshot();
    const auto expected = SoloResponses(served, options, reference, result);
    result.Add("frozen.row_ms_b1", RowMs(served, 1, spans), "ms");
    result.Add("frozen.row_ms_b8", RowMs(served, 8, spans), "ms");

    registry.ResetAll();
    fathom::runtime::Tracer tracer;
    tracer.set_enabled(true);
    const auto pool_before = fathom::BufferPool::Global().stats();
    const std::size_t spans_before = spans.size();
    const auto start = Clock::now();
    const OpenLoop run = RunOpenLoop(served, expected, options.seed,
                                     options.seconds / 2, spans, &tracer,
                                     result);
    const double traced_seconds = SecondsSince(start);
    const auto pool_after = fathom::BufferPool::Global().stats();
    const auto counters = registry.Snapshot();
    const auto batches =
        static_cast<std::int64_t>(counters.CounterValue("serving.batches"));

    result.Add("workloads.setup_ms", Median(setup_s) * 1e3, "ms");
    result.Add("serving.freeze_ms", Median(freeze_s) * 1e3, "ms");
    result.Add("runtime.ops_per_step",
               static_cast<double>(served.plan->num_steps()), "count");
    AddRewriteMetrics(setup_counters, static_cast<int>(setup_s.size()),
                      result);
    AddCounterMetrics(pool_before, pool_after, counters, batches, result);
    result.Add("verify.ms",
               VerifySeconds(served.workload->session(), spans, result) * 1e3,
               "ms");
    result.Add("serving.queue_ms_p50", Percentile(run.queue_ms, 0.5), "ms");
    result.Add("serving.queue_ms_p90", Percentile(run.queue_ms, 0.9), "ms");
    result.Add("serving.exec_ms_p50", Percentile(run.exec_ms, 0.5), "ms");
    result.Add("serving.exec_ms_p90", Percentile(run.exec_ms, 0.9), "ms");
    result.Add("serving.batch_mean",
               counters.HistogramValue("serving.batch_size").Mean(), "rows");
    const auto padded = counters.CounterValue("serving.padded_rows");
    result.Add("serving.padded_rows", static_cast<double>(padded), "count");
    result.Add("loadgen.sent", static_cast<double>(run.sent), "count");
    result.Add("loadgen.succeeded", static_cast<double>(run.succeeded),
               "count");
    result.Add("loadgen.failed", static_cast<double>(run.failed), "count");
    result.Add("loadgen.rejected", static_cast<double>(run.rejected), "count");
    result.Add("loadgen.offered_per_s", run.offered_per_s, "1/s");
    result.Add("loadgen.achieved_per_s", run.achieved_per_s, "1/s");
    result.Add("loadgen.late_ms_p99", Percentile(run.late_ms, 0.99), "ms");
    result.Add("loadgen.late_ms_max", Percentile(run.late_ms, 1.0), "ms");
    result.Add("loadgen.backlog_max", static_cast<double>(run.backlog_max),
               "count");
    result.Add("tracer.overhead_frac",
               RelativeOverhead(Percentile(run.latency_ms, 0.5),
                                Percentile(base.latency_ms, 0.5)),
               "ratio");
    result.Add("trace.own_overhead_frac",
               PerUnit(static_cast<double>(spans.size() - spans_before) *
                           MeasureSpanCostSeconds(),
                       traced_seconds),
               "ratio");
    AddKernelProbes(result);
    CompletePerLayer(result);

    TraceArtifact artifact;
    artifact.spans = &spans;
    artifact.tracers.push_back({"serving", &tracer});
    artifact.counters.push_back({"setup", setup_counters});
    artifact.counters.push_back({"measured", counters});
    std::cerr << "trace artifact: " << WriteArtifact(options, result, artifact)
              << "\n";
    return result;
}

}  // namespace

Result
RunServe(const Options& options, Reference& reference)
{
    return options.trace ? RunServeTraced(options, reference)
                         : RunServeUntraced(options, reference);
}

}  // namespace perfbench
