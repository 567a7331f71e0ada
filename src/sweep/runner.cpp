#include "sweep/runner.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <thread>

#include "arcade/measures.hpp"
#include "engine/explore.hpp"
#include "logic/csl_compiled.hpp"
#include "support/errors.hpp"

namespace arcade::sweep {

namespace {

double now_seconds() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Per-thread deques with stealing: a worker pops its own newest task
/// (back, cache-warm) and steals the oldest (front) from a victim, the
/// classic Chase–Lev discipline in its simple mutexed form — sweep tasks
/// are milliseconds long, so contention on the per-deque mutex is noise.
class WorkQueues {
public:
    explicit WorkQueues(std::size_t workers) : queues_(workers) {}

    void push(std::size_t owner, std::size_t task) {
        std::lock_guard<std::mutex> lock(queues_[owner].mutex);
        queues_[owner].tasks.push_back(task);
    }

    /// Own-queue pop, then steal scan starting after the caller.  Returns
    /// false only when every deque is empty.
    bool pop(std::size_t self, std::size_t& task) {
        {
            auto& own = queues_[self];
            std::lock_guard<std::mutex> lock(own.mutex);
            if (!own.tasks.empty()) {
                task = own.tasks.back();
                own.tasks.pop_back();
                return true;
            }
        }
        for (std::size_t i = 1; i < queues_.size(); ++i) {
            auto& victim = queues_[(self + i) % queues_.size()];
            std::lock_guard<std::mutex> lock(victim.mutex);
            if (!victim.tasks.empty()) {
                task = victim.tasks.front();
                victim.tasks.pop_front();
                return true;
            }
        }
        return false;
    }

private:
    struct Deque {
        std::mutex mutex;
        std::deque<std::size_t> tasks;
    };
    std::vector<Deque> queues_;
};

/// Runs `task(index)` over [0, count) on `workers` threads with stealing.
/// Tasks are dealt round-robin so related neighbours spread out; the first
/// exception wins and is rethrown on the caller's thread.
void run_stealing(std::size_t workers, std::size_t count,
                  const std::function<void(std::size_t)>& task) {
    if (count == 0) return;
    workers = std::clamp<std::size_t>(workers, 1, count);
    if (workers == 1) {
        for (std::size_t i = 0; i < count; ++i) task(i);
        return;
    }
    WorkQueues queues(workers);
    for (std::size_t i = 0; i < count; ++i) queues.push(i % workers, i);

    std::exception_ptr first_error;
    std::mutex error_mutex;
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
        pool.emplace_back([&, w] {
            std::size_t index = 0;
            while (queues.pop(w, index)) {
                try {
                    task(index);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(error_mutex);
                    if (!first_error) first_error = std::current_exception();
                }
            }
        });
    }
    for (auto& t : pool) t.join();
    if (first_error) std::rethrow_exception(first_error);
}

bool is_cost(MeasureKind kind) {
    return kind == MeasureKind::InstantaneousCost || kind == MeasureKind::AccumulatedCost;
}

core::Disaster make_disaster(DisasterKind kind, const core::CompiledModel& model) {
    switch (kind) {
        case DisasterKind::None: {
            // The all-zeros disaster: nothing failed, the measure starts
            // from the all-up state.
            core::Disaster d;
            d.name = "none";
            d.failed_per_phase.assign(model.model().phases.size(), 0);
            return d;
        }
        case DisasterKind::AllPumps: return watertree::disaster1(model.model());
        case DisasterKind::Mixed: return watertree::disaster2();
    }
    throw InvalidArgument("unknown DisasterKind");
}

engine::AnalysisSession::CompiledPtr compile_item(engine::AnalysisSession& session,
                                                  const ScenarioGrid& grid,
                                                  const WorkItem& item,
                                                  const RunnerOptions& options) {
    const auto& strat = watertree::strategy(item.strategy);
    const auto& params = grid.parameters[item.parameter_index].params;
    // Reliability is defined on the repair-free model regardless of variant;
    // a property can request the same semantics via strip_repair.
    const bool with_repair =
        item.variant.repair && item.measure.kind != MeasureKind::Reliability &&
        !(item.measure.kind == MeasureKind::Property && item.measure.strip_repair);
    return watertree::compile_line(session, item.line, strat, item.variant.encoding,
                                   params, with_repair, options.reduction, /*symmetry=*/{},
                                   item.scale.extra_pumps);
}

/// The compiled model of `item`, its quotient lookup routed through the
/// session so the lump cache counters see one request per cell (the
/// measures reuse the same shared quotient), and the cell's result with
/// the model's sizes filled in.
engine::AnalysisSession::CompiledPtr prepare(engine::AnalysisSession& session,
                                             const ScenarioGrid& grid, const WorkItem& item,
                                             const RunnerOptions& options,
                                             ScenarioResult& result) {
    auto model = compile_item(session, grid, item, options);
    if (options.reduction == core::ReductionPolicy::Auto &&
        item.measure.kind != MeasureKind::StateSpace) {
        (void)session.quotient(model);
    }
    result.item = item;
    result.model_states = model->state_count();
    result.model_transitions = model->transition_count();
    result.model_explored_states = model->chain().state_count();
    return model;
}

ScenarioResult evaluate(engine::AnalysisSession& session, const ScenarioGrid& grid,
                        const WorkItem& item, const RunnerOptions& options) {
    const double t0 = now_seconds();
    ScenarioResult result;
    const auto model = prepare(session, grid, item, options, result);
    switch (item.measure.kind) {
        case MeasureKind::Availability:
            result.values = {core::availability(session, model)};
            break;
        case MeasureKind::SteadyStateCost:
            result.values = {core::steady_state_cost(session, model)};
            break;
        case MeasureKind::StateSpace:
            result.values = {static_cast<double>(model->state_count())};
            break;
        case MeasureKind::Reliability:
            result.values = core::reliability_series(*model, item.measure.times);
            break;
        case MeasureKind::Survivability:
            result.values = core::survivability_series(
                *model, make_disaster(item.measure.disaster, *model),
                item.measure.service_level, item.measure.times);
            break;
        case MeasureKind::InstantaneousCost:
        case MeasureKind::AccumulatedCost:
            // Cost cells are power-sequence tasks (evaluate_costs).
            throw InvalidArgument("sweep: cost cell '" + item.key() +
                                  "' must run through evaluate_costs");
        case MeasureKind::Property: {
            const auto formula = logic::parse_csl(item.measure.property);
            if (item.measure.is_series()) {
                // Time-parametric query from the cell's disaster state,
                // swept over the grid by the measure-series kernels.
                const auto initial = model->disaster_distribution(
                    make_disaster(item.measure.disaster, *model));
                result.values = logic::check_series(session, model, *formula,
                                                    item.measure.times, initial);
            } else {
                // As-written evaluation through the session's property
                // cache; boolean verdicts export as 1.0 / 0.0.
                const auto checked = session.check_property(model, *formula);
                result.values = {checked->value.has_value()
                                     ? *checked->value
                                     : (checked->holds.value_or(false) ? 1.0 : 0.0)};
            }
            break;
        }
    }
    result.seconds = now_seconds() - t0;
    return result;
}

/// Phase-2 tasks: one per power sequence.  Cost cells with equal model key,
/// variant, scale and disaster step the same chain from the same
/// distribution with the same reward, so they form one task (of one cell
/// when the partner lies outside `items`); every other item is its own
/// task.  Tasks are listed by their first item.
std::vector<std::vector<std::size_t>> power_sequences(const std::vector<WorkItem>& items) {
    std::vector<std::vector<std::size_t>> tasks;
    std::map<std::string, std::size_t> cost_task;  // group key -> task
    for (std::size_t i = 0; i < items.size(); ++i) {
        const WorkItem& item = items[i];
        if (is_cost(item.measure.kind)) {
            const std::string key = item.model_key() + "/v=" + item.variant.name +
                                    "/sc=" + item.scale.name + "/" +
                                    to_string(item.measure.disaster);
            const auto [it, inserted] = cost_task.emplace(key, tasks.size());
            if (!inserted) {
                tasks[it->second].push_back(i);
                continue;
            }
        }
        tasks.push_back({i});
    }
    return tasks;
}

/// Evaluates a group of one or more cost cells with one core::cost_series
/// pass, the only path a cost cell takes.  Every cell is prepared as
/// evaluate() prepares it; the task's wall time is split evenly across its
/// cells, so the cells' seconds still sum to busy time.
void evaluate_costs(engine::AnalysisSession& session, const ScenarioGrid& grid,
                    const std::vector<WorkItem>& items, const std::vector<std::size_t>& cells,
                    const RunnerOptions& options, std::vector<ScenarioResult>& results) {
    const double t0 = now_seconds();
    engine::AnalysisSession::CompiledPtr model;
    std::vector<ctmc::SeriesRequest> requests;
    requests.reserve(cells.size());
    for (const std::size_t i : cells) {
        const MeasureSpec& measure = items[i].measure;
        model = prepare(session, grid, items[i], options, results[i]);
        requests.push_back({measure.times, measure.kind == MeasureKind::InstantaneousCost
                                               ? ctmc::SeriesForm::Instantaneous
                                               : ctmc::SeriesForm::Accumulated});
    }
    auto values = core::cost_series(
        *model, make_disaster(items[cells.front()].measure.disaster, *model), requests);
    const double seconds = (now_seconds() - t0) / static_cast<double>(cells.size());
    for (std::size_t k = 0; k < cells.size(); ++k) {
        results[cells[k]].values = std::move(values[k]);
        results[cells[k]].seconds = seconds;
    }
}

}  // namespace

SweepReport SweepRunner::run(const ScenarioGrid& grid) {
    return run(grid, shard_slice(expand(grid), options_.shard));
}

SweepReport SweepRunner::run(const ScenarioGrid& grid, const std::vector<WorkItem>& items) {
    for (const auto& item : items) {
        if (item.parameter_index >= grid.parameters.size()) {
            throw InvalidArgument("SweepRunner: work item '" + item.key() +
                                  "' indexes parameter set " +
                                  std::to_string(item.parameter_index) +
                                  " but the grid has " +
                                  std::to_string(grid.parameters.size()));
        }
    }
    const double t0 = now_seconds();
    const auto stats_before = session_.stats();
    const std::size_t workers = engine::resolve_threads(options_.threads);

    // Phase 1: compile each unique model prefix exactly once.  Without this
    // barrier two work items sharing a prefix could race into the session
    // cache and compile the same model twice.
    struct ModelWork {
        std::size_t first_item;
        bool needs_quotient = false;  ///< any sharing item runs a solver
    };
    std::map<std::string, ModelWork> unique_models;  // model key -> plan
    for (std::size_t i = 0; i < items.size(); ++i) {
        auto& work = unique_models.emplace(items[i].model_key(), ModelWork{i}).first->second;
        if (items[i].measure.kind != MeasureKind::StateSpace) work.needs_quotient = true;
    }
    std::vector<const ModelWork*> to_compile;
    to_compile.reserve(unique_models.size());
    for (const auto& [key, work] : unique_models) to_compile.push_back(&work);
    run_stealing(workers, to_compile.size(), [&](std::size_t i) {
        const auto model =
            compile_item(session_, grid, items[to_compile[i]->first_item], options_);
        // Build the quotient inside the barrier too, so phase 2 never
        // serialises behind a partition refinement (and the lump counters
        // attribute the miss to this run).
        if (options_.reduction == core::ReductionPolicy::Auto &&
            to_compile[i]->needs_quotient) {
            (void)session_.quotient(model);
        }
    });

    // Phase 2: one task per power sequence; results land in grid order by
    // item index.
    SweepReport report;
    report.results.resize(items.size());
    const auto tasks = power_sequences(items);
    run_stealing(workers, tasks.size(), [&](std::size_t t) {
        const auto& cells = tasks[t];
        if (is_cost(items[cells.front()].measure.kind)) {
            evaluate_costs(session_, grid, items, cells, options_, report.results);
        } else {
            report.results[cells.front()] = evaluate(session_, grid, items[cells.front()],
                                                     options_);
        }
    });

    report.unique_models = unique_models.size();
    for (const auto& r : report.results) {
        report.state_points +=
            r.model_explored_states * std::max<std::size_t>(r.values.size(), 1);
    }
    report.stats = session_.stats() - stats_before;
    report.wall_seconds = now_seconds() - t0;
    return report;
}

}  // namespace arcade::sweep
