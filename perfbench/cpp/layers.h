/**
 * @file
 * Per-layer metrics derived from what the program already records: its
 * per-op Tracer steps, BufferPool statistics, and MetricsRegistry
 * counters. Shared by the workloads' traced runs.
 */
#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <string>
#include <vector>

#include "common.h"
#include "runtime/session.h"
#include "runtime/tracer.h"
#include "telemetry/metrics.h"
#include "tensor/buffer_pool.h"

namespace perfbench {

/** Op-level totals over a set of traced steps. */
struct StepTotals {
    std::int64_t steps = 0;
    std::int64_t ops = 0;
    double step_seconds = 0.0;
    double overhead_seconds = 0.0;  ///< step spans minus op-interval union.
    double class_seconds[fathom::graph::kNumOpClasses] = {};
    double class_flops[fathom::graph::kNumOpClasses] = {};
    double class_bytes[fathom::graph::kNumOpClasses] = {};
};

/** Adds the steps of @p tracer after the first @p skip to @p totals. */
void AccumulateSteps(const fathom::runtime::Tracer& tracer, int skip,
                     StepTotals& totals);

/** Adds the runtime.* and kernels.* (per class) metrics. */
void AddStepMetrics(const StepTotals& totals, Result& result);

/**
 * Adds allocator.* (from BufferPool deltas), gemm.pack_hit_ratio and
 * pipeline.* (from a registry snapshot), per traced step.
 */
void AddCounterMetrics(const fathom::BufferPool::Stats& before,
                       const fathom::BufferPool::Stats& after,
                       const fathom::telemetry::MetricsSnapshot& counters,
                       std::int64_t steps, Result& result);

/** Adds rewrite.passes and rewrite.fire_total per plan build. */
void AddRewriteMetrics(const fathom::telemetry::MetricsSnapshot& counters,
                       int plan_builds, Result& result);

/**
 * Times one graph::verify::Verify over every node of @p session's
 * graph (structure, type inference without feed seeds, and the lints).
 * A finding is an output-check failure. @return seconds.
 */
double VerifySeconds(const fathom::runtime::Session& session,
                     SpanRecorder& spans, Result& result);

/**
 * Runs the kernel probes through kernels:: public functions: host
 * GEMM and copy peaks, skinny serving GEMMs, alexnet's conv1, and a
 * seq2seq-sized elementwise op, each at width 1 and 2. Adds
 * kernels.host_*, kernels.probe_* and parallel.speedup_w2.*.
 */
void AddKernelProbes(Result& result);

/** @return (name, unit) of every per-layer metric, in report order. */
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/**
 * Orders @p result's metrics as PerLayerMetrics lists them and adds 0
 * for each one the workload does not exercise.
 */
void CompletePerLayer(Result& result);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H
