/**
 * @file
 * train-seq2seq and train-alexnet: closed-loop training at batch 4.
 *
 * Steps run in fixed windows of RunTraining calls (each call drains its
 * own input pipeline, as any caller's loop would). A window's time over
 * its step count is one latency sample, so the step-time percentiles
 * are over windows. Untraced runs report the end-to-end metrics; traced
 * runs first repeat the untraced loop for a baseline, then run the same
 * number of steps with the program's tracer and telemetry on and this
 * benchmark's spans around every layer call.
 */
#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>

#include "layers.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

using fathom::workloads::Workload;
using fathom::workloads::WorkloadConfig;

constexpr std::int64_t kBatch = 4;
constexpr int kVerifyReps = 3;

/** Steps per timed RunTraining window: ~100-150 ms on a 4-core host. */
int
WindowSteps(const std::string& model)
{
    return model == "seq2seq" ? 8 : 4;
}

/** A set-up workload and what setting it up cost. */
struct Built {
    std::unique_ptr<Workload> workload;
    double setup_seconds = 0.0;
    double first_step_seconds = 0.0;
    float first_loss = 0.0f;
};

/** Setup and the first (plan-building) training step, each timed. */
Built
Build(const std::string& model, const WorkloadConfig& config,
      SpanRecorder& spans, int parent, std::int64_t rep)
{
    Built b;
    b.workload = fathom::workloads::WorkloadRegistry::Global().Create(model);
    auto start = Clock::now();
    {
        ScopedSpan span(spans, "Workload::Setup", parent, rep);
        b.workload->Setup(config);
    }
    b.setup_seconds = SecondsSince(start);
    start = Clock::now();
    {
        ScopedSpan span(spans, "Workload::RunTraining.first", parent, rep);
        b.first_loss = b.workload->RunTraining(1).final_loss;
    }
    b.first_step_seconds = SecondsSince(start);
    return b;
}

/**
 * Builds repeatedly (see MoreSetupReps), checking the first-step loss:
 * finite, equal across reps, and (for the reference seed) equal to the
 * recorded value. @return the last build; @p setup_s gets each rep's set-up
 * time (Setup plus first step), @p first_step_s each first step.
 */
Built
BuildRepeatedly(const Options& options, Reference& reference,
                const std::string& model, const WorkloadConfig& config,
                SpanRecorder& spans, Result& result,
                std::vector<double>& setup_s, std::vector<double>& first_step_s)
{
    Built last;
    std::string first_loss;
    const auto start = Clock::now();
    for (int rep = 0; MoreSetupReps(rep, SecondsSince(start)); ++rep) {
        last = Build(model, config, spans, -1, rep);
        setup_s.push_back(last.setup_seconds + last.first_step_seconds);
        first_step_s.push_back(last.first_step_seconds);
        result.attempted += 1;
        if (!std::isfinite(last.first_loss)) {
            result.failed += 1;
            result.Mismatch(model + ": first-step loss is not finite");
        }
        if (rep > 0 && HexFloat(last.first_loss) != first_loss) {
            result.Mismatch(model + ": first-step loss differs across set-ups");
        }
        first_loss = HexFloat(last.first_loss);
    }
    if (options.seed == kReferenceSeed &&
        !reference.Expect("loss." + options.workload + ".first_step",
                          HexFloat(last.first_loss))) {
        result.Mismatch(model + ": first-step loss differs from reference");
    }
    return last;
}

/** What a run of timed windows measured. */
struct Windows {
    std::vector<double> step_ms;  ///< per window: its time over its steps.
    std::int64_t steps = 0;
    double seconds = 0.0;
    float last_loss = 0.0f;
};

/**
 * Runs windows of @p window steps until @p seconds have passed (when
 * @p count is 0) or for exactly @p count windows. With an enabled
 * recorder, each window gets a span with the RunTraining call and its
 * Session::Run steps (from the program's tracer) as children.
 */
Windows
RunWindows(Workload& workload, int window, double seconds, int count,
           SpanRecorder& spans, Result& result, const std::string& model)
{
    Windows w;
    auto& tracer = workload.session().tracer();
    const double tracer_offset = spans.Now() - tracer.NowSeconds();
    const auto start = Clock::now();
    for (int k = 0; count > 0 ? k < count : SecondsSince(start) < seconds;
         ++k) {
        const std::size_t steps_before = tracer.steps().size();
        const auto t0 = Clock::now();
        ScopedSpan window_span(spans, "window", -1, k);
        int call = -1;
        float loss = 0.0f;
        {
            ScopedSpan span(spans, "Workload::RunTraining", window_span.index(),
                            k);
            call = span.index();
            loss = workload.RunTraining(window).final_loss;
        }
        const double dt = SecondsSince(t0);
        result.attempted += window;
        if (!std::isfinite(loss)) {
            result.failed += window;
            result.Mismatch(model + ": training loss is not finite");
        }
        if (spans.enabled()) {
            const auto& steps = tracer.steps();
            for (std::size_t s = steps_before; s < steps.size(); ++s) {
                const double begin = tracer_offset + steps[s].start_seconds;
                spans.Add("Session::Run", begin, begin + steps[s].wall_seconds,
                          call, k);
            }
        }
        w.step_ms.push_back(dt * 1e3 / window);
        w.steps += window;
        w.seconds += dt;
        w.last_loss = loss;
    }
    return w;
}

Result
RunTrainUntraced(const Options& options, Reference& reference,
                 const std::string& model)
{
    Result result;
    SpanRecorder off(false);
    WorkloadConfig config = BaseConfig(options);
    config.batch_size = kBatch;
    std::vector<double> setup_s, first_s;
    Built built = BuildRepeatedly(options, reference, model, config, off,
                                  result, setup_s, first_s);
    const int window = WindowSteps(model);
    RunWindows(*built.workload, window, 0.0, 1, off, result, model);  // warm
    const Windows w = RunWindows(*built.workload, window, options.seconds, 0,
                                 off, result, model);
    result.Add("throughput_per_s", PerUnit(w.steps * kBatch, w.seconds),
               "items/s");
    result.Add("latency_p50_ms", Percentile(w.step_ms, 0.5), "ms");
    result.Add("latency_p90_ms", Percentile(w.step_ms, 0.9), "ms");
    result.Add("setup_s", Median(setup_s), "s");
    std::cerr << model << ": " << w.steps << " steps in " << w.step_ms.size()
              << " windows of " << window << "\n";
    return result;
}

Result
RunTrainTraced(const Options& options, Reference& reference,
               const std::string& model)
{
    Result result;
    const int window = WindowSteps(model);
    WorkloadConfig config = BaseConfig(options);
    config.batch_size = kBatch;

    // Baseline: the untraced loop, for the tracing overhead and the
    // loss bit-match.
    SpanRecorder off(false);
    Windows base;
    {
        Built b = Build(model, config, off, -1, 0);
        RunWindows(*b.workload, window, 0.0, 1, off, result, model);
        base = RunWindows(*b.workload, window, options.seconds / 2, 0, off,
                          result, model);
    }
    const int count = static_cast<int>(base.step_ms.size());

    // Traced: program tracer and telemetry on, spans at each layer call.
    config.tracing = true;
    config.telemetry = true;
    SpanRecorder spans(true);
    auto& registry = fathom::telemetry::MetricsRegistry::Global();
    registry.ResetAll();
    std::vector<double> setup_s, first_s;
    Built built = BuildRepeatedly(options, reference, model, config, spans,
                                  result, setup_s, first_s);
    const auto setup_counters = registry.Snapshot();
    std::vector<double> verify_s;
    for (int rep = 0; rep < kVerifyReps; ++rep) {
        verify_s.push_back(
            VerifySeconds(built.workload->session(), spans, result));
    }
    result.Add("verify.ms", Median(verify_s) * 1e3, "ms");
    Workload& workload = *built.workload;
    RunWindows(workload, window, 0.0, 1, off, result, model);  // warm

    workload.session().tracer().Clear();
    registry.ResetAll();
    const auto pool_before = fathom::BufferPool::Global().stats();
    const std::size_t spans_before = spans.size();
    const Windows traced =
        RunWindows(workload, window, 0.0, count, spans, result, model);
    const auto pool_after = fathom::BufferPool::Global().stats();
    const auto counters = registry.Snapshot();

    if (std::memcmp(&traced.last_loss, &base.last_loss, sizeof(float)) != 0) {
        result.Mismatch(model + ": traced loss " + HexFloat(traced.last_loss) +
                        " differs from untraced " + HexFloat(base.last_loss));
    }

    double loop_self = 0.0;
    for (const auto& [name, s] : spans.Summarize()) {
        if (name == "Workload::RunTraining") {
            loop_self = s.self_seconds;
        }
    }
    StepTotals totals;
    AccumulateSteps(workload.session().tracer(), 0, totals);
    result.Add("workloads.setup_ms", Median(setup_s) * 1e3, "ms");
    result.Add("workloads.loop_ms_per_step",
               PerUnit(loop_self * 1e3, traced.steps), "ms");
    result.Add("runtime.first_step_ms", Median(first_s) * 1e3, "ms");
    AddRewriteMetrics(setup_counters, static_cast<int>(setup_s.size()),
                      result);
    AddStepMetrics(totals, result);
    AddCounterMetrics(pool_before, pool_after, counters, traced.steps, result);
    result.Add("tracer.overhead_frac",
               RelativeOverhead(PerUnit(traced.seconds, traced.steps),
                                PerUnit(base.seconds, base.steps)),
               "ratio");
    result.Add("trace.own_overhead_frac",
               PerUnit(static_cast<double>(spans.size() - spans_before) *
                           MeasureSpanCostSeconds(),
                       traced.seconds),
               "ratio");
    AddKernelProbes(result);
    CompletePerLayer(result);

    TraceArtifact artifact;
    artifact.spans = &spans;
    artifact.tracers.push_back({"train", &workload.session().tracer()});
    artifact.counters.push_back({"setup", setup_counters});
    artifact.counters.push_back({"measured", counters});
    std::cerr << "trace artifact: " << WriteArtifact(options, result, artifact)
              << "\n";
    return result;
}

}  // namespace

Result
RunTrain(const Options& options, Reference& reference,
         const std::string& model)
{
    return options.trace ? RunTrainTraced(options, reference, model)
                         : RunTrainUntraced(options, reference, model);
}

}  // namespace perfbench
