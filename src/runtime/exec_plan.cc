#include "runtime/exec_plan.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "telemetry/metrics.h"

namespace fathom::runtime {

using Clock = std::chrono::steady_clock;

namespace {

/** Per-call value table: node id -> that node's outputs. */
using Workspace = std::vector<std::vector<Tensor>>;

std::uint64_t
MicrosSince(Clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              start)
            .count());
}

/**
 * Executor metrics, resolved once. The queue/worker signals are
 * scheduling-dependent by nature and exist to expose it.
 */
struct ExecMetrics {
    telemetry::Counter& inplace_applied;
    telemetry::Counter& parallel_steps;
    telemetry::Counter& worker_busy_us;
    telemetry::Counter& worker_idle_us;
    telemetry::Histogram& ready_queue_depth;

    static ExecMetrics&
    Get()
    {
        static ExecMetrics* m = [] {
            auto& r = telemetry::MetricsRegistry::Global();
            return new ExecMetrics{
                r.GetCounter("rewrite.inplace_applied"),
                r.GetCounter("executor.parallel_steps"),
                r.GetCounter("executor.worker_busy_us"),
                r.GetCounter("executor.worker_idle_us"),
                r.GetHistogram("executor.ready_queue_depth"),
            };
        }();
        return *m;
    }
};

/**
 * Runs plan step @p seq into @p values, tracing it on lane @p lane
 * when @p traced. Thread-safe across distinct steps.
 */
void
RunStep(const ExecPlan& plan, const ExecEnv& env, std::size_t seq,
        Workspace& values, int lane, bool traced)
{
    const graph::NodeId id = plan.order[seq];
    const graph::Node& node = plan.graph->node(id);

    std::vector<Tensor> inputs;
    inputs.reserve(plan.inputs[seq].size());
    for (const graph::Output& in : plan.inputs[seq]) {
        const auto& produced = values[static_cast<std::size_t>(in.node)];
        const auto index = static_cast<std::size_t>(in.index);
        if (index >= produced.size() || !produced[index].initialized()) {
            throw std::logic_error("node '" + node.name + "' input from '" +
                                   plan.graph->node(in.node).name +
                                   "' was not produced");
        }
        inputs.push_back(produced[index]);
    }

    const graph::OpDef& def = *plan.defs[seq];
    graph::OpContext ctx(node, &inputs, env.intra_pool, env.rng,
                         env.variables);

    // In-place grant: the rewrite proved input 0 statically dies at this
    // step; the refcount check (values entry + our gathered copy = 2)
    // rejects anything the static proof cannot see — feeds, folded or
    // prebound values, view-shared buffers, planner-off retention.
    if (!plan.inplace.empty() && plan.inplace[seq] && !inputs.empty() &&
        inputs[0].initialized() && inputs[0].buffer_use_count() == 2) {
        ctx.set_may_alias_input(true);
        if (telemetry::MetricsEnabled()) {
            ExecMetrics::Get().inplace_applied.Add(1);
        }
    }

    // Timestamps are only taken when tracing: the traced-off hot path
    // must stay inside the bench_telemetry overhead budget.
    const auto op_start = traced ? Clock::now() : Clock::time_point{};
    try {
        def.kernel(ctx);
    } catch (const std::exception& e) {
        throw std::runtime_error("op '" + node.name + "' (" + node.op_type +
                                 ") failed: " + e.what());
    }

    if (traced) {
        OpExecRecord record;
        record.node = id;
        record.op_type = node.op_type;
        record.op_class = def.op_class;
        record.wall_seconds =
            std::chrono::duration<double>(Clock::now() - op_start).count();
        record.start_seconds =
            std::chrono::duration<double>(op_start - env.epoch).count();
        record.worker = lane;
        record.seq = static_cast<std::int64_t>(seq);
        if (def.cost) {
            record.cost = def.cost(node, inputs, ctx.outputs());
        } else {
            // Default: bytes-only cost from the outputs.
            graph::OpCost cost;
            for (const Tensor& out : ctx.outputs()) {
                if (out.initialized()) {
                    cost.bytes += static_cast<double>(out.byte_size());
                }
            }
            record.cost = cost;
        }
        env.tracer->Record(std::move(record));
    }

    values[static_cast<std::size_t>(id)] = std::move(ctx.outputs());
}

/**
 * Memory-planner bookkeeping after step @p seq completed: credits its
 * producers and drops any value whose last consumer has now run. Null
 * @p remaining disables release. Thread-safe: the acq_rel refcount
 * guarantees exactly one thread observes a value die, strictly after
 * every consumer finished reading it.
 */
void
ReleaseDead(const ExecPlan& plan, std::size_t seq,
            std::atomic<std::int32_t>* remaining, Workspace& values)
{
    if (remaining == nullptr) {
        return;
    }
    // A step nothing reads (e.g. a run-only target) dies on completion.
    if (plan.releasable[seq] && plan.consumer_count[seq] == 0) {
        values[static_cast<std::size_t>(plan.order[seq])].clear();
    }
    for (std::int32_t p : plan.input_producers[seq]) {
        const auto ps = static_cast<std::size_t>(p);
        // Buffers shared into still-live tensors (views, Identity
        // outputs) survive the clear via their own shared_ptr refs.
        if (remaining[ps].fetch_sub(1, std::memory_order_acq_rel) == 1 &&
            plan.releasable[ps]) {
            values[static_cast<std::size_t>(plan.order[ps])].clear();
        }
    }
}

/** Drains the plan's ready queue across @p lanes. */
void
Drain(const ExecPlan& plan, const ExecEnv& env, parallel::ThreadPool& lanes,
      std::atomic<std::int32_t>* remaining, Workspace& values, bool traced)
{
    const std::size_t total = plan.order.size();

    struct ExecState {
        std::mutex mu;
        std::condition_variable cv;
        std::deque<std::int32_t> ready;
        std::vector<std::int32_t> pending;
        std::size_t completed = 0;  ///< steps finished (ok or not).
        bool stopped = false;       ///< error seen; start nothing new.
        std::size_t error_seq = SIZE_MAX;
        std::exception_ptr error;
    };
    ExecState state;
    state.pending = plan.initial_pending;
    for (std::size_t i = 0; i < total; ++i) {
        if (state.pending[i] == 0) {
            state.ready.push_back(static_cast<std::int32_t>(i));
        }
    }

    // Each lane claims ready steps until the plan completes or an error
    // stops the schedule; in-flight steps always finish, so the call
    // ends cleanly even on failure. Among concurrently failing steps,
    // the lowest plan step wins, keeping the surfaced error
    // deterministic. When metrics are on, each lane accounts its own
    // busy/idle split and samples the ready-queue depth at each claim.
    auto drain = [&plan, &env, &values, &state, remaining, total,
                  traced](int lane) {
        const bool metered = telemetry::MetricsEnabled();
        std::uint64_t busy_us = 0;
        std::uint64_t idle_us = 0;
        for (;;) {
            std::int32_t seq = -1;
            {
                const auto wait_start =
                    metered ? Clock::now() : Clock::time_point{};
                std::unique_lock<std::mutex> lock(state.mu);
                state.cv.wait(lock, [&state, total] {
                    return state.stopped || !state.ready.empty() ||
                           state.completed == total;
                });
                if (metered) {
                    idle_us += MicrosSince(wait_start);
                }
                if (state.stopped || state.ready.empty()) {
                    if (metered) {
                        ExecMetrics& m = ExecMetrics::Get();
                        m.worker_busy_us.Add(busy_us);
                        m.worker_idle_us.Add(idle_us);
                    }
                    return;
                }
                if (metered) {
                    ExecMetrics::Get().ready_queue_depth.Observe(
                        state.ready.size());
                }
                seq = state.ready.front();
                state.ready.pop_front();
            }
            const auto run_start =
                metered ? Clock::now() : Clock::time_point{};
            std::exception_ptr err;
            try {
                RunStep(plan, env, static_cast<std::size_t>(seq), values,
                        lane, traced);
            } catch (...) {
                err = std::current_exception();
            }
            if (metered) {
                busy_us += MicrosSince(run_start);
            }
            if (!err) {
                ReleaseDead(plan, static_cast<std::size_t>(seq), remaining,
                            values);
            }
            {
                std::lock_guard<std::mutex> lock(state.mu);
                ++state.completed;
                if (err) {
                    state.stopped = true;
                    if (static_cast<std::size_t>(seq) < state.error_seq) {
                        state.error_seq = static_cast<std::size_t>(seq);
                        state.error = err;
                    }
                } else if (!state.stopped) {
                    for (std::int32_t d :
                         plan.dependents[static_cast<std::size_t>(seq)]) {
                        if (--state.pending[static_cast<std::size_t>(d)] ==
                            0) {
                            state.ready.push_back(d);
                        }
                    }
                }
            }
            state.cv.notify_all();
        }
    };

    const std::size_t width =
        std::min(static_cast<std::size_t>(lanes.num_threads()), total);
    std::vector<std::function<void()>> loops;
    loops.reserve(width);
    for (std::size_t lane = 0; lane < width; ++lane) {
        loops.push_back([&drain, lane] { drain(static_cast<int>(lane)); });
    }
    lanes.RunTasks(std::move(loops));

    if (state.error) {
        std::rethrow_exception(state.error);
    }
}

}  // namespace

graph::verify::PlanFacts
ExecPlan::Facts() const
{
    graph::verify::PlanFacts facts;
    facts.order = &order;
    facts.replacements = &replacements;
    facts.folded = &folded;
    facts.inplace = inplace.empty() ? nullptr : &inplace;
    facts.consumer_count = &consumer_count;
    facts.input_producers = &input_producers;
    facts.releasable = &releasable;
    return facts;
}

ExecPlan
BuildExecPlan(const graph::Graph& graph,
              graph::rewrite::RewriteResult rewritten,
              const std::vector<graph::Output>& fetches,
              const graph::VariableStore* prebind)
{
    ExecPlan plan;
    plan.graph = &graph;

    // Steps are the kernels of the order; sources only seed the
    // workspace. Op definitions are resolved once here: registry
    // lookups are string-keyed and would otherwise run per op per call.
    const graph::OpRegistry& registry = graph::OpRegistry::Global();
    std::unordered_map<graph::NodeId, std::int32_t> step_of;
    step_of.reserve(rewritten.order.size());
    for (std::size_t oi = 0; oi < rewritten.order.size(); ++oi) {
        const graph::NodeId id = rewritten.order[oi];
        const graph::Node& node = graph.node(id);
        if (node.op_type == "Placeholder") {
            plan.placeholders.push_back(id);
            continue;
        }
        if (prebind != nullptr &&
            (node.op_type == "Variable" || node.op_type == "Const")) {
            plan.prebound.emplace_back(
                id, prebind->Get(node.attr("var_name").AsString()));
            continue;
        }
        step_of[id] = static_cast<std::int32_t>(plan.order.size());
        plan.order.push_back(id);
        plan.defs.push_back(&registry.Lookup(node.op_type));
        if (!rewritten.inplace.empty()) {
            plan.inplace.push_back(rewritten.inplace[oi]);
        }
    }

    for (const graph::Output& f : fetches) {
        plan.fetches.push_back({rewritten.Resolve(f.node), f.index});
    }
    auto fetched = [&plan](graph::NodeId id) {
        return std::any_of(
            plan.fetches.begin(), plan.fetches.end(),
            [id](const graph::Output& f) { return f.node == id; });
    };

    // Dependencies: data and control edges on other steps, plus
    // barriers — a stateful step waits for everything earlier and gates
    // everything later. Liveness: data edges only (control edges order
    // execution but never read a value).
    const std::size_t n = plan.order.size();
    plan.inputs.resize(n);
    plan.dependents.assign(n, {});
    plan.initial_pending.assign(n, 0);
    plan.input_producers.assign(n, {});
    plan.consumer_count.assign(n, 0);
    plan.releasable.assign(n, 0);
    std::int32_t prev_barrier = -1;
    std::vector<std::int32_t> deps;
    for (std::size_t i = 0; i < n; ++i) {
        const auto step = static_cast<std::int32_t>(i);
        const graph::Node& node = graph.node(plan.order[i]);
        deps.clear();
        auto& producers = plan.input_producers[i];
        for (const graph::Output& in : node.inputs) {
            plan.inputs[i].push_back({rewritten.Resolve(in.node), in.index});
            auto p = step_of.find(plan.inputs[i].back().node);
            if (p != step_of.end()) {  // absent = source, already valued.
                deps.push_back(p->second);
                producers.push_back(p->second);
            }
        }
        for (graph::NodeId c : node.control_inputs) {
            auto p = step_of.find(rewritten.Resolve(c));
            if (p != step_of.end()) {
                deps.push_back(p->second);
            }
        }
        const bool stateful = plan.defs[i]->stateful;
        if (stateful) {
            // Steps in (prev_barrier, i) already wait on prev_barrier, so
            // edges from that range (plus prev_barrier itself, for
            // back-to-back barriers) order this step after everything.
            for (std::int32_t j = prev_barrier + 1; j < step; ++j) {
                deps.push_back(j);
            }
            if (prev_barrier >= 0) {
                deps.push_back(prev_barrier);
            }
            prev_barrier = step;
        } else if (prev_barrier >= 0) {
            deps.push_back(prev_barrier);
        }
        std::sort(deps.begin(), deps.end());
        deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
        plan.initial_pending[i] = static_cast<std::int32_t>(deps.size());
        for (std::int32_t d : deps) {
            plan.dependents[static_cast<std::size_t>(d)].push_back(step);
        }

        std::sort(producers.begin(), producers.end());
        producers.erase(std::unique(producers.begin(), producers.end()),
                        producers.end());
        for (std::int32_t p : producers) {
            ++plan.consumer_count[static_cast<std::size_t>(p)];
        }
        plan.releasable[i] = !stateful && node.op_type != "Variable" &&
                             node.op_type != "Const" &&
                             !fetched(plan.order[i]);
    }
    plan.replacements = std::move(rewritten.replacements);
    plan.folded = std::move(rewritten.folded);
    return plan;
}

std::vector<Tensor>
Execute(const ExecPlan& plan, const FeedMap& feeds, const ExecEnv& env)
{
    const graph::Graph& graph = *plan.graph;
    Workspace values(static_cast<std::size_t>(graph.num_nodes()));
    for (graph::NodeId id : plan.placeholders) {
        auto fed = feeds.find(id);
        if (fed == feeds.end()) {
            throw std::invalid_argument("placeholder '" +
                                        graph.node(id).name + "' not fed");
        }
        values[static_cast<std::size_t>(id)] = {fed->second};
    }
    for (const auto& [id, value] : plan.prebound) {
        values[static_cast<std::size_t>(id)] = {value};
    }
    for (const auto& [id, outputs] : plan.folded) {
        values[static_cast<std::size_t>(id)] = outputs;
    }

    // Per-call outstanding-consumer counts, seeded from the plan's
    // liveness analysis. Null when release is off.
    const std::size_t n = plan.order.size();
    std::unique_ptr<std::atomic<std::int32_t>[]> remaining;
    if (env.release_dead && n > 0) {
        remaining = std::make_unique<std::atomic<std::int32_t>[]>(n);
        for (std::size_t i = 0; i < n; ++i) {
            remaining[i].store(plan.consumer_count[i],
                               std::memory_order_relaxed);
        }
    }

    const bool traced = env.tracer != nullptr && env.tracer->enabled();
    if (env.lanes != nullptr && telemetry::MetricsEnabled()) {
        ExecMetrics::Get().parallel_steps.Add(1);
    }
    if (env.lanes != nullptr && n > 1) {
        Drain(plan, env, *env.lanes, remaining.get(), values, traced);
    } else {
        for (std::size_t seq = 0; seq < n; ++seq) {
            RunStep(plan, env, seq, values, /*lane=*/0, traced);
            ReleaseDead(plan, seq, remaining.get(), values);
        }
    }

    std::vector<Tensor> results;
    results.reserve(plan.fetches.size());
    for (const graph::Output& f : plan.fetches) {
        const auto& produced = values[static_cast<std::size_t>(f.node)];
        const auto index = static_cast<std::size_t>(f.index);
        if (index >= produced.size() || !produced[index].initialized()) {
            throw std::logic_error("fetch of '" + graph.node(f.node).name +
                                   "' produced no value");
        }
        results.push_back(produced[index]);
    }
    return results;
}

}  // namespace fathom::runtime
