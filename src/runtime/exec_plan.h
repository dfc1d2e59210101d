/**
 * @file
 * The one dataflow executor behind both front doors: `Session`
 * (training) and `serving::FrozenPlan` (inference) differ only in the
 * subgraph they run and the state they bind. Both build an `ExecPlan`
 * with `BuildExecPlan` and run it with `Execute`. Sources (feeds,
 * prebound weights, folded values) seed the workspace before any
 * kernel runs; only kernels are plan steps. Stateful steps are
 * plan-order barriers, so fetches are bit-identical at any inter-op
 * width. See docs/internals.md, "Execution".
 */
#ifndef FATHOM_RUNTIME_EXEC_PLAN_H
#define FATHOM_RUNTIME_EXEC_PLAN_H

#include <chrono>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/op_registry.h"
#include "graph/rewrite/rewrite.h"
#include "graph/verify/verifier.h"
#include "parallel/thread_pool.h"
#include "runtime/tracer.h"
#include "tensor/rng.h"

namespace fathom::runtime {

/** Placeholder feeds for one step, keyed by node id. */
using FeedMap = std::map<graph::NodeId, Tensor>;

/**
 * An immutable executable over one graph. All per-step vectors are
 * indexed by plan step (a kernel, in plan order).
 */
struct ExecPlan {
    const graph::Graph* graph = nullptr;

    /** Per step, the node it executes. */
    std::vector<graph::NodeId> order;
    /** Per step, the node's pre-resolved op definition. */
    std::vector<const graph::OpDef*> defs;
    /** Per step, its data inputs resolved through `replacements`. */
    std::vector<std::vector<graph::Output>> inputs;
    /** Per step, whether the rewrite proved input 0 dies here (empty
        when the graph was not rewritten). */
    std::vector<char> inplace;

    /** Placeholders in the plan; each must be fed. */
    std::vector<graph::NodeId> placeholders;
    /** Variable/Const values bound at build time instead of read. */
    std::vector<std::pair<graph::NodeId, Tensor>> prebound;
    /** Rewrite edge redirection (empty when not rewritten). */
    std::unordered_map<graph::NodeId, graph::NodeId> replacements;
    /** Values precomputed by constant folding. */
    std::unordered_map<graph::NodeId, std::vector<Tensor>> folded;
    /** Fetch edges, resolved through `replacements`. */
    std::vector<graph::Output> fetches;

    /** Per step, the steps unblocked by its completion. */
    std::vector<std::vector<std::int32_t>> dependents;
    /** Per step, how many steps must complete before it may run. */
    std::vector<std::int32_t> initial_pending;

    /** Per step, the distinct producer steps of its data inputs. */
    std::vector<std::vector<std::int32_t>> input_producers;
    /** Per step, how many consumer steps read its outputs. */
    std::vector<std::int32_t> consumer_count;
    /** Per step, whether its outputs may be dropped when dead. */
    std::vector<char> releasable;

    /** @return the plan's facts for the verifier's lints (borrowed). */
    graph::verify::PlanFacts Facts() const;
};

/**
 * Builds the executable for @p graph from an execution order and what
 * rewriting left (`RewriteResult` with only `order` set for a graph
 * run as written).
 *
 * @param prebind when non-null, `Variable`/`Const` reads become
 *        prebound values from this store instead of kernel steps.
 */
ExecPlan BuildExecPlan(const graph::Graph& graph,
                       graph::rewrite::RewriteResult rewritten,
                       const std::vector<graph::Output>& fetches,
                       const graph::VariableStore* prebind = nullptr);

/** The state one Execute call binds. */
struct ExecEnv {
    parallel::ThreadPool& intra_pool;  ///< handed to kernels.
    Rng& rng;
    graph::VariableStore& variables;
    /** Inter-op lane pool; null runs the plan-order loop. */
    parallel::ThreadPool* lanes = nullptr;
    /** Op records go here when non-null and enabled. */
    Tracer* tracer = nullptr;
    /** Origin of op record start times. */
    std::chrono::steady_clock::time_point epoch{};
    /** Drop values at their last consumer (the memory planner). */
    bool release_dead = true;
};

/**
 * Runs @p plan once on @p feeds and returns the fetched tensors in
 * plan fetch order. Reentrant for a const plan: each call owns its
 * workspace. Throws std::invalid_argument for an unfed placeholder
 * (before any kernel runs) and std::runtime_error naming the node for
 * a kernel failure; among concurrently failing steps the lowest plan
 * step wins.
 */
std::vector<Tensor> Execute(const ExecPlan& plan, const FeedMap& feeds,
                            const ExecEnv& env);

}  // namespace fathom::runtime

#endif  // FATHOM_RUNTIME_EXEC_PLAN_H
