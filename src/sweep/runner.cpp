#include "sweep/runner.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>
#include <queue>
#include <thread>
#include <tuple>

#include "arcade/measures.hpp"
#include "logic/csl_compiled.hpp"
#include "support/errors.hpp"

namespace arcade::sweep {

namespace {

double now_seconds() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// A task in the ready queue.  Compiles (rank 0) run first, in grid order;
/// then the power sequences that solve a steady state (rank 1), then the
/// series (rank 2), each class by descending cost estimate.  `order`, the
/// task's first item, breaks ties, so the order is total.
struct Ready {
    int rank = 0;
    double cost = 0.0;
    std::size_t order = 0;
    std::size_t task = 0;
    /// std::priority_queue pops its greatest element, the next to run:
    /// lowest rank, then highest cost, then first in grid order.
    bool operator<(const Ready& other) const {
        return std::tie(other.rank, cost, other.order) < std::tie(rank, other.cost, order);
    }
};

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

/// The compiled model of `item`, and the cell's result with the model's
/// sizes filled in.
engine::AnalysisSession::CompiledPtr prepare(engine::AnalysisSession& session,
                                             const ScenarioGrid& grid, const WorkItem& item,
                                             const RunnerOptions& options,
                                             ScenarioResult& result) {
    auto model = compile_item(session, grid, item, options);
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
                result.values =
                    logic::check_series(model, *formula, item.measure.times, initial);
            } else {
                // As-written evaluation over the session (top-level S /
                // R[S] read its cached steady state); boolean verdicts
                // export as 1.0 / 0.0.
                const auto checked = logic::check(session, model, *formula);
                result.values = {checked.value.has_value()
                                     ? *checked.value
                                     : (checked.holds.value_or(false) ? 1.0 : 0.0)};
            }
            break;
        }
    }
    result.seconds = now_seconds() - t0;
    return result;
}

/// The cell tasks: one per power sequence.  Cost cells with equal model key,
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

    // The task graph: tasks [0, models) compile each unique model once, in
    // grid order; task models + s evaluates power sequence s, and becomes
    // ready when its model's compile finishes, so no two cells can race
    // into the session cache to compile the same model.
    std::vector<std::size_t> models;                  // first item of each model
    std::map<std::string, std::size_t> model_of_key;  // model key -> model
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (model_of_key.emplace(items[i].model_key(), models.size()).second) {
            models.push_back(i);
        }
    }
    const auto sequences = power_sequences(items);
    std::vector<std::vector<std::size_t>> released(models.size());  // model -> sequences
    for (std::size_t s = 0; s < sequences.size(); ++s) {
        released[model_of_key.at(items[sequences[s].front()].model_key())].push_back(s);
    }

    SweepReport report;
    report.results.resize(items.size());
    // Runs one task and returns the tasks it makes ready.  A sequence's
    // cost estimates its work from the compiled chain: its nonzeros for a
    // steady state, and nonzeros × (1 + λ·t_last), about one sparse
    // product per uniformised step, for a series.
    const auto run_task = [&](std::size_t task) {
        std::vector<Ready> made_ready;
        if (task < models.size()) {
            const auto model = compile_item(session_, grid, items[models[task]], options_);
            const double nonzeros = static_cast<double>(model->chain().rates().nonzeros());
            const double rate = linalg::uniformisation_rate(model->chain().max_exit_rate());
            for (const std::size_t s : released[task]) {
                const auto& cells = sequences[s];
                const bool series = items[cells.front()].measure.is_series();
                double t_last = 0.0;
                for (const std::size_t i : cells) {
                    const auto& times = items[i].measure.times;
                    if (series && !times.empty()) t_last = std::max(t_last, times.back());
                }
                made_ready.push_back({series ? 2 : 1, nonzeros * (1.0 + rate * t_last),
                                 cells.front(), models.size() + s});
            }
            return made_ready;
        }
        const auto& cells = sequences[task - models.size()];
        if (is_cost(items[cells.front()].measure.kind)) {
            evaluate_costs(session_, grid, items, cells, options_, report.results);
        } else {
            report.results[cells.front()] =
                evaluate(session_, grid, items[cells.front()], options_);
        }
        return made_ready;
    };

    // One pool over one ready queue.  The first exception stops new tasks
    // from starting and is rethrown once every worker has joined; a failed
    // compile releases none of its cells.
    std::priority_queue<Ready> ready;
    for (std::size_t m = 0; m < models.size(); ++m) ready.push({0, 0.0, models[m], m});
    std::mutex mutex;
    std::condition_variable changed;
    std::size_t running = 0;
    std::exception_ptr first_error;
    const auto work = [&] {
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
            changed.wait(lock, [&] { return first_error || !ready.empty() || running == 0; });
            if (first_error || ready.empty()) return;
            const std::size_t task = ready.top().task;
            ready.pop();
            ++running;
            lock.unlock();
            try {
                const auto next = run_task(task);
                lock.lock();
                for (const Ready& r : next) ready.push(r);
            } catch (...) {
                if (!lock.owns_lock()) lock.lock();
                if (!first_error) first_error = std::current_exception();
            }
            --running;
            changed.notify_all();
        }
    };
    // One worker is the caller's thread.  More get threads of their own while
    // it waits; when it worked too, perfbench's `paper` set-up ran 18% slower.
    const unsigned threads = options_.threads != 0
                                 ? options_.threads
                                 : std::max(1u, std::thread::hardware_concurrency());
    const std::size_t workers =
        std::min<std::size_t>(threads, models.size() + sequences.size());
    std::vector<std::thread> pool;
    try {
        while (workers > 1 && pool.size() < workers) pool.emplace_back(work);
    } catch (...) {  // a worker that cannot start fails the run like a task
        const std::lock_guard<std::mutex> lock(mutex);
        if (!first_error) first_error = std::current_exception();
    }
    if (workers == 1) work();
    for (auto& t : pool) t.join();
    if (first_error) std::rethrow_exception(first_error);

    report.unique_models = models.size();
    for (const auto& r : report.results) {
        report.state_points +=
            r.model_explored_states * std::max<std::size_t>(r.values.size(), 1);
    }
    report.stats = session_.stats() - stats_before;
    report.wall_seconds = now_seconds() - t0;
    return report;
}

}  // namespace arcade::sweep
