/**
 * @file
 * characterize: the paper's own use. All eight models run through
 * core::RunAndTrace with the program's tracer on and rewrites off (the
 * graph as written), then the Fig. 3 op-class profiles and the
 * framework-overhead fraction are computed from the traces. One item
 * is one model characterized; runs measure whole passes over the
 * suite, so every pass has the same mix of models.
 */
#include <iostream>
#include <map>

#include "analysis/op_profile.h"
#include "analysis/stationarity.h"
#include "core/suite.h"
#include "layers.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

fathom::core::SuiteRunOptions
SuiteOptions(const Options& options, bool tracing, bool telemetry)
{
    fathom::core::SuiteRunOptions o;
    o.seed = options.seed;
    o.threads = kIntraOpThreads;
    o.inter_op_threads = kInterOpThreads;
    o.prefetch_depth = kPrefetchDepth;
    o.producer_threads = kProducerThreads;
    o.tracing = tracing;
    o.telemetry = telemetry;
    o.graph_rewrites = false;
    return o;
}

/** "Type:count,..." for the op types of @p tracer's last step. */
std::string
OpTypeCounts(const fathom::runtime::Tracer& tracer)
{
    std::map<std::string, int> counts;
    if (!tracer.steps().empty()) {
        for (const auto& r : tracer.steps().back().records) {
            counts[r.op_type] += 1;
        }
    }
    std::string out;
    for (const auto& [type, n] : counts) {
        out += (out.empty() ? "" : ",") + type + ":" + std::to_string(n);
    }
    return out;
}

/** The Fig. 3 profiles and overhead fraction of one model's traces. */
double
Profile(const fathom::core::WorkloadTraces& traces)
{
    double sum = 0.0;
    for (const auto* tracer : {&traces.training, &traces.inference}) {
        const auto profile =
            fathom::analysis::WallProfile(*tracer, traces.warmup_steps);
        for (const auto c : fathom::graph::AllOpClasses()) {
            sum += profile.ClassFraction(c);
        }
        sum += fathom::analysis::FrameworkOverheadFraction(
            *tracer, traces.warmup_steps);
    }
    return sum;
}

/** What whole passes over the suite measured. */
struct Passes {
    int passes = 0;
    std::vector<double> model_ms;  ///< per model characterized.
    double run_seconds = 0.0;      ///< in RunAndTrace.
    double profile_seconds = 0.0;  ///< in the analysis functions.
    std::int64_t steps = 0;  ///< traced steps, warm-up included.
    fathom::core::WorkloadTraces seq2seq;  ///< last traces, for the artifact.
};

/**
 * Runs whole passes until @p seconds have passed (when @p count is 0)
 * or exactly @p count passes. Checks each model's per-step op-type
 * counts against the reference; with @p totals, also accumulates the
 * traced training steps.
 */
Passes
RunPasses(Reference& reference,
          const fathom::core::SuiteRunOptions& suite, double seconds,
          int count, SpanRecorder& spans, StepTotals* totals, Result& result)
{
    Passes p;
    const auto start = Clock::now();
    while (count > 0 ? p.passes < count : SecondsSince(start) < seconds) {
        ScopedSpan pass(spans, "pass", -1, p.passes);
        for (const auto& name : fathom::core::SuiteNames()) {
            result.attempted += 1;
            try {
                ScopedSpan model(spans, "model", pass.index(), p.passes);
                const auto t0 = Clock::now();
                fathom::core::WorkloadTraces traces;
                {
                    ScopedSpan run(spans, "core::RunAndTrace", model.index(),
                                   p.passes);
                    traces = fathom::core::RunAndTrace(name, suite);
                }
                const double run_s = SecondsSince(t0);
                double profile_s = 0.0;
                if (suite.tracing) {
                    const auto t1 = Clock::now();
                    ScopedSpan span(spans, "analysis::profiles", model.index(),
                                    p.passes);
                    Profile(traces);
                    profile_s = SecondsSince(t1);
                    for (const auto& [stream, tracer] :
                         {std::pair{"train", &traces.training},
                          std::pair{"infer", &traces.inference}}) {
                        if (!reference.Expect(
                                "ops." + name + "." + stream,
                                OpTypeCounts(*tracer))) {
                            result.Mismatch(name + ": " + stream +
                                            " op-type counts differ from "
                                            "reference");
                        }
                    }
                    p.steps += static_cast<std::int64_t>(
                        traces.training.steps().size() +
                        traces.inference.steps().size());
                    if (totals != nullptr) {
                        AccumulateSteps(traces.training, traces.warmup_steps,
                                        *totals);
                    }
                    if (name == "seq2seq") {
                        p.seq2seq = std::move(traces);
                    }
                }
                p.model_ms.push_back((run_s + profile_s) * 1e3);
                p.run_seconds += run_s;
                p.profile_seconds += profile_s;
            } catch (const std::exception& e) {
                result.failed += 1;
                std::cerr << name << " failed: " << e.what() << "\n";
            }
        }
        p.passes += 1;
    }
    return p;
}

/** Sums over the suite of one Setup + first training step each. */
struct SuiteSetup {
    double setup_seconds = 0.0;
    double first_step_seconds = 0.0;
    double verify_seconds = 0.0;
};

SuiteSetup
SetUpSuite(const Options& options, bool traced, SpanRecorder& spans,
           std::int64_t rep, Result& result)
{
    SuiteSetup s;
    auto config = BaseConfig(options);
    config.tracing = true;
    config.telemetry = traced;
    config.graph_rewrites = false;
    for (const auto& name : fathom::core::SuiteNames()) {
        auto workload =
            fathom::workloads::WorkloadRegistry::Global().Create(name);
        auto start = Clock::now();
        {
            ScopedSpan span(spans, "Workload::Setup", -1, rep);
            workload->Setup(config);
        }
        s.setup_seconds += SecondsSince(start);
        start = Clock::now();
        {
            ScopedSpan span(spans, "Workload::RunTraining.first", -1, rep);
            workload->RunTraining(1);
        }
        s.first_step_seconds += SecondsSince(start);
        if (traced) {
            s.verify_seconds += VerifySeconds(workload->session(), spans,
                                              result);
        }
    }
    return s;
}

Result
RunCharacterizeUntraced(const Options& options, Reference& reference)
{
    Result result;
    SpanRecorder off(false);
    std::vector<double> setup_s;
    const auto start = Clock::now();
    for (int rep = 0; MoreSetupReps(rep, SecondsSince(start)); ++rep) {
        const SuiteSetup s = SetUpSuite(options, false, off, rep, result);
        setup_s.push_back(s.setup_seconds + s.first_step_seconds);
    }
    const Passes p =
        RunPasses(reference, SuiteOptions(options, true, false),
                  options.seconds, 0, off, nullptr, result);
    result.Add("throughput_per_s",
               PerUnit(static_cast<double>(p.model_ms.size()),
                       p.run_seconds + p.profile_seconds),
               "items/s");
    result.Add("latency_p50_ms", Percentile(p.model_ms, 0.5), "ms");
    result.Add("latency_p90_ms", Percentile(p.model_ms, 0.9), "ms");
    result.Add("setup_s", Median(setup_s), "s");
    std::cerr << "characterize: " << p.passes << " passes, "
              << p.model_ms.size() << " models\n";
    return result;
}

Result
RunCharacterizeTraced(const Options& options, Reference& reference)
{
    Result result;
    SpanRecorder off(false);
    const Passes base =
        RunPasses(reference, SuiteOptions(options, false, false),
                  options.seconds / 2, 0, off, nullptr, result);

    SpanRecorder spans(true);
    auto& registry = fathom::telemetry::MetricsRegistry::Global();
    registry.ResetAll();
    std::vector<double> setup_s, first_s, verify_s;
    const auto setup_start = Clock::now();
    for (int rep = 0; MoreSetupReps(rep, SecondsSince(setup_start)); ++rep) {
        const SuiteSetup s = SetUpSuite(options, true, spans, rep, result);
        setup_s.push_back(s.setup_seconds + s.first_step_seconds);
        first_s.push_back(s.first_step_seconds);
        verify_s.push_back(s.verify_seconds);
    }
    const auto setup_counters = registry.Snapshot();

    registry.ResetAll();
    StepTotals totals;
    const auto pool_before = fathom::BufferPool::Global().stats();
    const std::size_t spans_before = spans.size();
    const auto start = Clock::now();
    const Passes traced =
        RunPasses(reference, SuiteOptions(options, true, true), 0.0,
                  base.passes, spans, &totals, result);
    const double traced_seconds = SecondsSince(start);
    const auto pool_after = fathom::BufferPool::Global().stats();
    const auto counters = registry.Snapshot();

    result.Add("workloads.setup_ms", Median(setup_s) * 1e3, "ms");
    result.Add("runtime.first_step_ms", Median(first_s) * 1e3, "ms");
    result.Add("verify.ms", Median(verify_s) * 1e3, "ms");
    AddRewriteMetrics(setup_counters, static_cast<int>(setup_s.size()),
                      result);
    AddStepMetrics(totals, result);
    AddCounterMetrics(pool_before, pool_after, counters, traced.steps, result);
    result.Add("analysis.profile_ms",
               PerUnit(traced.profile_seconds * 1e3, traced.passes), "ms");
    result.Add("tracer.overhead_frac",
               RelativeOverhead(PerUnit(traced.run_seconds, traced.passes),
                                PerUnit(base.run_seconds, base.passes)),
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
    artifact.tracers.push_back({"seq2seq.train", &traced.seq2seq.training});
    artifact.tracers.push_back({"seq2seq.infer", &traced.seq2seq.inference});
    artifact.counters.push_back({"setup", setup_counters});
    artifact.counters.push_back({"measured", counters});
    std::cerr << "trace artifact: " << WriteArtifact(options, result, artifact)
              << "\n";
    return result;
}

}  // namespace

Result
RunCharacterize(const Options& options, Reference& reference)
{
    return options.trace ? RunCharacterizeTraced(options, reference)
                         : RunCharacterizeUntraced(options, reference);
}

}  // namespace perfbench
