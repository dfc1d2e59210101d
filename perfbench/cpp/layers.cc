#include "layers.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <stdexcept>

#include "graph/op_class.h"
#include "graph/verify/verifier.h"
#include "kernels/conv2d.h"
#include "kernels/elementwise.h"
#include "kernels/gemm.h"
#include "parallel/thread_pool.h"
#include "stats.h"

namespace perfbench {

namespace {

using fathom::graph::OpClass;

constexpr int kClassMatrix = static_cast<int>(OpClass::kMatrixOps);
constexpr int kClassConv = static_cast<int>(OpClass::kConvolution);
constexpr int kClassElementwise = static_cast<int>(OpClass::kElementwise);
constexpr int kClassReduction =
    static_cast<int>(OpClass::kReductionExpansion);

/** Histogram sum (microseconds) of @p name in @p s, as milliseconds. */
double
HistogramMs(const fathom::telemetry::MetricsSnapshot& s,
            const std::string& name)
{
    return static_cast<double>(s.HistogramValue(name).sum) / 1e3;
}

/**
 * @return the median, over @p samples samples, of the per-call seconds
 * of @p calls back-to-back invocations of @p fn.
 */
double
MedianCallSeconds(const std::function<void()>& fn, int calls, int samples = 7)
{
    fn();  // warm caches and the buffer pool.
    std::vector<double> per_call;
    for (int s = 0; s < samples; ++s) {
        const auto start = Clock::now();
        for (int c = 0; c < calls; ++c) {
            fn();
        }
        per_call.push_back(SecondsSince(start) / calls);
    }
    return Median(per_call);
}

/** @return @p n deterministic values in [-0.5, 0.5). */
std::vector<float>
PseudoRandom(std::size_t n)
{
    std::vector<float> v(n);
    std::uint32_t x = 12345;
    for (float& f : v) {
        x = x * 1664525u + 1013904223u;
        f = static_cast<float>(x >> 8) / 16777216.0f - 0.5f;
    }
    return v;
}

fathom::Tensor
PseudoRandomTensor(const fathom::Shape& shape)
{
    return fathom::Tensor::FromVector(
        shape, PseudoRandom(static_cast<std::size_t>(shape.num_elements())));
}

}  // namespace

void
AccumulateSteps(const fathom::runtime::Tracer& tracer, int skip,
                StepTotals& totals)
{
    const auto& steps = tracer.steps();
    for (std::size_t s = static_cast<std::size_t>(std::max(skip, 0));
         s < steps.size(); ++s) {
        const auto& step = steps[s];
        std::vector<Interval> ops;
        ops.reserve(step.records.size());
        for (const auto& r : step.records) {
            ops.push_back({r.start_seconds, r.start_seconds + r.wall_seconds});
            const auto c = static_cast<std::size_t>(r.op_class);
            totals.class_seconds[c] += r.wall_seconds;
            totals.class_flops[c] += r.cost.flops;
            totals.class_bytes[c] += r.cost.bytes;
        }
        totals.steps += 1;
        totals.ops += static_cast<std::int64_t>(step.records.size());
        totals.step_seconds += step.wall_seconds;
        totals.overhead_seconds += SelfTime({0.0, step.wall_seconds}, ops);
    }
}

void
AddStepMetrics(const StepTotals& t, Result& result)
{
    const auto steps = static_cast<double>(t.steps);
    result.Add("runtime.ops_per_step",
               PerUnit(static_cast<double>(t.ops), steps), "count");
    result.Add("runtime.overhead_ms_per_step",
               PerUnit(t.overhead_seconds * 1e3, steps), "ms");
    result.Add("runtime.overhead_us_per_op",
               PerUnit(t.overhead_seconds * 1e6, static_cast<double>(t.ops)),
               "us");
    const std::pair<const char*, OpClass> classes[] = {
        {"matrix", OpClass::kMatrixOps},
        {"conv", OpClass::kConvolution},
        {"elementwise", OpClass::kElementwise},
        {"reduction", OpClass::kReductionExpansion},
        {"movement", OpClass::kDataMovement},
        {"optimization", OpClass::kOptimization},
        {"random", OpClass::kRandomSampling},
    };
    for (const auto& [name, c] : classes) {
        result.Add(std::string("kernels.") + name + "_ms_per_step",
                   PerUnit(t.class_seconds[static_cast<int>(c)] * 1e3, steps),
                   "ms");
    }
    result.Add("kernels.conv_gflops",
               PerUnit(t.class_flops[kClassConv] / 1e9,
                       t.class_seconds[kClassConv]),
               "GFLOP/s");
    result.Add("kernels.matrix_gflops",
               PerUnit(t.class_flops[kClassMatrix] / 1e9,
                       t.class_seconds[kClassMatrix]),
               "GFLOP/s");
    result.Add("kernels.elementwise_gbps",
               PerUnit(t.class_bytes[kClassElementwise] / 1e9,
                       t.class_seconds[kClassElementwise]),
               "GB/s");
    result.Add("kernels.reduction_gbps",
               PerUnit(t.class_bytes[kClassReduction] / 1e9,
                       t.class_seconds[kClassReduction]),
               "GB/s");
}

void
AddCounterMetrics(const fathom::BufferPool::Stats& before,
                  const fathom::BufferPool::Stats& after,
                  const fathom::telemetry::MetricsSnapshot& counters,
                  std::int64_t steps, Result& result)
{
    const auto n = static_cast<double>(steps);
    const std::uint64_t requests = after.allocations - before.allocations;
    const std::uint64_t fresh = after.fresh_allocs - before.fresh_allocs;
    const std::uint64_t hits = after.pool_hits - before.pool_hits;
    result.Add("allocator.requests_per_step",
               PerUnit(static_cast<double>(requests), n), "count/step");
    result.Add("allocator.fresh_per_step",
               PerUnit(static_cast<double>(fresh), n), "count/step");
    result.Add("allocator.hit_ratio", HitRatio(hits, requests - hits),
               "ratio");
    const std::uint64_t acquires = counters.CounterValue("gemm.pack_acquires");
    const std::uint64_t pack_hits =
        counters.CounterValue("gemm.pack_pool_hits");
    result.Add("gemm.pack_hit_ratio", HitRatio(pack_hits, acquires - pack_hits),
               "ratio");
    result.Add("pipeline.stall_ms_per_step",
               PerUnit(HistogramMs(counters, "pipeline.stall_us"), n), "ms");
    result.Add("pipeline.produce_ms_per_step",
               PerUnit(HistogramMs(counters, "pipeline.produce_us"), n), "ms");
    result.Add("rewrite.inplace_applied",
               PerUnit(static_cast<double>(
                           counters.CounterValue("rewrite.inplace_applied")),
                       n),
               "count/step");
}

void
AddRewriteMetrics(const fathom::telemetry::MetricsSnapshot& counters,
                  int plan_builds, Result& result)
{
    std::uint64_t fires = 0;
    for (const auto& [name, value] : counters.counters) {
        if (name.rfind("rewrite.fire.", 0) == 0) {
            fires += value;
        }
    }
    result.Add("rewrite.passes",
               PerUnit(static_cast<double>(
                           counters.CounterValue("rewrite.passes")),
                       plan_builds),
               "count");
    result.Add("rewrite.fire_total",
               PerUnit(static_cast<double>(fires), plan_builds), "count");
}

double
VerifySeconds(const fathom::runtime::Session& session, SpanRecorder& spans,
              Result& result)
{
    fathom::graph::verify::VerifyOptions options;
    options.variables = &session.variables();
    const auto start = Clock::now();
    ScopedSpan span(spans, "graph::verify::Verify");
    const auto report = fathom::graph::verify::Verify(
        session.graph(), {}, session.graph().AllNodes(), options);
    const double seconds = SecondsSince(start);
    if (!report.ok()) {
        result.Mismatch("verifier reports " +
                        std::to_string(report.diagnostics.size()) +
                        " findings, first: " +
                        report.diagnostics[0].ToString());
    }
    return seconds;
}

void
AddKernelProbes(Result& result)
{
    fathom::parallel::ThreadPool width1(1);
    fathom::parallel::ThreadPool width2(2);

    // Host peaks, measured now: a square GEMM at width 1 and a large
    // memcpy (bytes read plus bytes written).
    constexpr std::int64_t kSquare = 384;
    const auto sq_a = PseudoRandom(kSquare * kSquare);
    const auto sq_b = PseudoRandom(kSquare * kSquare);
    std::vector<float> sq_c(kSquare * kSquare);
    const double gemm_s = MedianCallSeconds(
        [&] {
            fathom::kernels::Gemm(kSquare, kSquare, kSquare, sq_a.data(),
                                  kSquare, 1, sq_b.data(), kSquare, 1,
                                  sq_c.data(), false, width1);
        },
        4);
    const double peak_gflops =
        2.0 * kSquare * kSquare * kSquare / gemm_s / 1e9;
    constexpr std::size_t kCopyBytes = 16u << 20;
    std::vector<char> src(kCopyBytes, 1);
    std::vector<char> dst(kCopyBytes, 0);
    const double copy_s = MedianCallSeconds(
        [&] { std::memcpy(dst.data(), src.data(), kCopyBytes); }, 4);
    const double peak_gbps = 2.0 * kCopyBytes / copy_s / 1e9;
    result.Add("kernels.host_gemm_gflops", peak_gflops, "GFLOP/s");
    result.Add("kernels.host_copy_gbps", peak_gbps, "GB/s");

    // Skinny GEMMs at alexnet's fc6 shape for serving batches 1 and 8.
    constexpr std::int64_t kFcIn = 512;
    constexpr std::int64_t kFcOut = 256;
    const auto fc_a = PseudoRandom(8 * kFcIn);
    const auto fc_w = PseudoRandom(kFcIn * kFcOut);
    std::vector<float> fc_c(8 * kFcOut);
    auto skinny = [&](std::int64_t rows, fathom::parallel::ThreadPool& pool) {
        return [&, rows] {
            fathom::kernels::Gemm(rows, kFcOut, kFcIn, fc_a.data(), kFcIn, 1,
                                  fc_w.data(), kFcOut, 1, fc_c.data(), false,
                                  pool);
        };
    };
    // alexnet's conv1 at the training batch: 64x64x3 input, 11x11x3x12
    // filter, stride 2, SAME padding (32x32 output).
    const auto image = PseudoRandomTensor(fathom::Shape{4, 64, 64, 3});
    const auto filter = PseudoRandomTensor(fathom::Shape{11, 11, 3, 12});
    auto conv = [&](fathom::parallel::ThreadPool& pool) {
        return [&] {
            fathom::kernels::Conv2D(image, filter, 2,
                                    fathom::kernels::Padding::kSame, pool);
        };
    };
    // A same-shape add at seq2seq's LSTM gate size (batch 4, 4 x 32).
    const auto gate_a = PseudoRandomTensor(fathom::Shape{4, 128});
    const auto gate_b = PseudoRandomTensor(fathom::Shape{4, 128});
    auto add = [&](fathom::parallel::ThreadPool& pool) {
        return [&] {
            fathom::kernels::BinaryMap(
                gate_a, gate_b, [](float x, float y) { return x + y; }, pool);
        };
    };

    struct Probe {
        std::string name;
        std::function<void()> w1, w2;
        int calls;
        double work;  ///< flops, or bytes for the elementwise probe.
        bool bytes;
    };
    const double conv_flops = 2.0 * 4 * 32 * 32 * 11 * 11 * 3 * 12;
    const Probe probes[] = {
        {"gemm_b1", skinny(1, width1), skinny(1, width2), 400,
         2.0 * 1 * kFcIn * kFcOut, false},
        {"gemm_b8", skinny(8, width1), skinny(8, width2), 200,
         2.0 * 8 * kFcIn * kFcOut, false},
        {"conv1", conv(width1), conv(width2), 4, conv_flops, false},
        {"elementwise", add(width1), add(width2), 2000, 3.0 * 512 * 4, true},
    };
    for (const Probe& p : probes) {
        const double t1 = MedianCallSeconds(p.w1, p.calls);
        const double t2 = MedianCallSeconds(p.w2, p.calls);
        const double rate = p.work / t1 / 1e9;
        result.Add("kernels.probe_" + p.name + (p.bytes ? "_gbps" : "_gflops"),
                   rate, p.bytes ? "GB/s" : "GFLOP/s");
        result.Add("kernels.probe_" + p.name + "_of_peak",
                   rate / (p.bytes ? peak_gbps : peak_gflops), "ratio");
        result.Add("parallel.speedup_w2." + p.name, t1 / t2, "x");
    }
}

const std::vector<std::pair<std::string, std::string>>&
PerLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> kMetrics = {
        {"workloads.setup_ms", "ms"},
        {"workloads.loop_ms_per_step", "ms"},
        {"runtime.first_step_ms", "ms"},
        {"runtime.ops_per_step", "count"},
        {"runtime.overhead_ms_per_step", "ms"},
        {"runtime.overhead_us_per_op", "us"},
        {"rewrite.passes", "count"},
        {"rewrite.fire_total", "count"},
        {"rewrite.inplace_applied", "count/step"},
        {"verify.ms", "ms"},
        {"kernels.matrix_ms_per_step", "ms"},
        {"kernels.conv_ms_per_step", "ms"},
        {"kernels.elementwise_ms_per_step", "ms"},
        {"kernels.reduction_ms_per_step", "ms"},
        {"kernels.movement_ms_per_step", "ms"},
        {"kernels.optimization_ms_per_step", "ms"},
        {"kernels.random_ms_per_step", "ms"},
        {"kernels.conv_gflops", "GFLOP/s"},
        {"kernels.matrix_gflops", "GFLOP/s"},
        {"kernels.elementwise_gbps", "GB/s"},
        {"kernels.reduction_gbps", "GB/s"},
        {"kernels.host_gemm_gflops", "GFLOP/s"},
        {"kernels.host_copy_gbps", "GB/s"},
        {"kernels.probe_gemm_b1_gflops", "GFLOP/s"},
        {"kernels.probe_gemm_b1_of_peak", "ratio"},
        {"kernels.probe_gemm_b8_gflops", "GFLOP/s"},
        {"kernels.probe_gemm_b8_of_peak", "ratio"},
        {"kernels.probe_conv1_gflops", "GFLOP/s"},
        {"kernels.probe_conv1_of_peak", "ratio"},
        {"kernels.probe_elementwise_gbps", "GB/s"},
        {"kernels.probe_elementwise_of_peak", "ratio"},
        {"parallel.speedup_w2.gemm_b1", "x"},
        {"parallel.speedup_w2.gemm_b8", "x"},
        {"parallel.speedup_w2.conv1", "x"},
        {"parallel.speedup_w2.elementwise", "x"},
        {"allocator.requests_per_step", "count/step"},
        {"allocator.fresh_per_step", "count/step"},
        {"allocator.hit_ratio", "ratio"},
        {"gemm.pack_hit_ratio", "ratio"},
        {"pipeline.stall_ms_per_step", "ms"},
        {"pipeline.produce_ms_per_step", "ms"},
        {"serving.queue_ms_p50", "ms"},
        {"serving.queue_ms_p90", "ms"},
        {"serving.exec_ms_p50", "ms"},
        {"serving.exec_ms_p90", "ms"},
        {"serving.batch_mean", "rows"},
        {"serving.padded_rows", "count"},
        {"serving.freeze_ms", "ms"},
        {"frozen.row_ms_b1", "ms"},
        {"frozen.row_ms_b8", "ms"},
        {"loadgen.sent", "count"},
        {"loadgen.succeeded", "count"},
        {"loadgen.failed", "count"},
        {"loadgen.rejected", "count"},
        {"loadgen.offered_per_s", "1/s"},
        {"loadgen.achieved_per_s", "1/s"},
        {"loadgen.late_ms_p99", "ms"},
        {"loadgen.late_ms_max", "ms"},
        {"loadgen.backlog_max", "count"},
        {"tracer.overhead_frac", "ratio"},
        {"trace.own_overhead_frac", "ratio"},
        {"analysis.profile_ms", "ms"},
    };
    return kMetrics;
}

void
CompletePerLayer(Result& result)
{
    std::map<std::string, Metric> measured;
    for (const Metric& m : result.metrics) {
        measured[m.name] = m;
    }
    for (const auto& [name, metric] : measured) {
        const auto& all = PerLayerMetrics();
        if (std::none_of(all.begin(), all.end(),
                         [&](const auto& m) { return m.first == name; })) {
            throw std::logic_error("unlisted per-layer metric " + name);
        }
    }
    std::vector<Metric> ordered;
    for (const auto& [name, unit] : PerLayerMetrics()) {
        const auto it = measured.find(name);
        ordered.push_back(it != measured.end() ? it->second
                                               : Metric{name, 0.0, unit});
    }
    result.metrics = std::move(ordered);
}

}  // namespace perfbench
