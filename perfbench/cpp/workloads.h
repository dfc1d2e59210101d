/**
 * @file
 * The benchmark's workloads. Each runs in its own process, measures
 * for Options::seconds, checks the program's outputs, and fills a
 * Result: end-to-end metrics when untraced, per-layer metrics (and the
 * trace artifact) when traced.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <string>

#include "common.h"

namespace perfbench {

/** train-seq2seq and train-alexnet: closed-loop training of @p model. */
Result RunTrain(const Options& options, Reference& reference,
                const std::string& model);

/** serve-alexnet: open-loop Poisson load on a ServingRuntime. */
Result RunServe(const Options& options, Reference& reference);

/** characterize: the eight models through core::RunAndTrace + profiles. */
Result RunCharacterize(const Options& options, Reference& reference);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
