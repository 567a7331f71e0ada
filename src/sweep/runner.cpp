#include "sweep/runner.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <numeric>
#include <thread>

#include "arcade/measures.hpp"
#include "ctmc/transient_batch.hpp"
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
                                   params, with_repair, options.reduction,
                                   options.symmetry, item.scale.extra_pumps);
}

ScenarioResult evaluate(engine::AnalysisSession& session, const ScenarioGrid& grid,
                        const WorkItem& item, const RunnerOptions& options) {
    const double t0 = now_seconds();
    const auto model = compile_item(session, grid, item, options);
    const core::ReductionPolicy reduction = options.reduction;
    // Route the quotient lookup through the session so the lump cache
    // counters see one request per cell (the measures below reuse the same
    // shared quotient).
    if (reduction == core::ReductionPolicy::Auto &&
        item.measure.kind != MeasureKind::StateSpace) {
        (void)session.quotient(model);
    }
    const auto transient = core::session_transient(session);

    ScenarioResult result;
    result.item = item;
    result.model_states = model->state_count();
    result.model_transitions = model->transition_count();
    result.model_full_states = model->symmetry_full_states();
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
            result.values = core::reliability_series(*model, item.measure.times, transient);
            break;
        case MeasureKind::Survivability:
            result.values = core::survivability_series(
                *model, make_disaster(item.measure.disaster, *model),
                item.measure.service_level, item.measure.times, transient);
            break;
        case MeasureKind::InstantaneousCost:
            result.values = core::instantaneous_cost_series(
                *model, make_disaster(item.measure.disaster, *model), item.measure.times,
                transient);
            break;
        case MeasureKind::AccumulatedCost:
            result.values = core::accumulated_cost_series(
                *model, make_disaster(item.measure.disaster, *model), item.measure.times,
                transient);
            break;
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

// ---------------------------------------------------------------------------
// Fusion pass (RunnerOptions::batch == Auto).  Cells fuse when they would
// evolve the SAME matrix over the SAME time grid: same model key, same
// measure class (survivability at one exact service level, or instantaneous
// cost), same grid bits.  Their initial distributions — one per distinct
// disaster — become the columns of one ctmc::functional_series_batch pass,
// whose per-column series are bitwise the per-cell series, so fused cells
// export the same bytes the per-cell path would.  Reliability keeps its own
// path (its initial vector is the chain initial, never a second column),
// AccumulatedCost is not fused (no fusion plan covers it), and Property
// routes through the CSL checker.
// ---------------------------------------------------------------------------

bool fusible(const WorkItem& item) {
    return (item.measure.kind == MeasureKind::Survivability ||
            item.measure.kind == MeasureKind::InstantaneousCost) &&
           !item.measure.times.empty();
}

/// Exact-bits text of a double (fusion keys must distinguish every value
/// %.17g round-trips to, and -0.0 from +0.0).
std::string double_bits(double v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
    return buf;
}

std::string fuse_key(const WorkItem& item) {
    std::string key = item.model_key();
    key += '\n';
    if (item.measure.kind == MeasureKind::Survivability) {
        key += "surv@" + double_bits(item.measure.service_level);
    } else {
        key += "cost";
    }
    key += '\n';
    for (double t : item.measure.times) key += double_bits(t) + ",";
    return key;
}

/// One column of a fused batch: the cells (usually one — expand()
/// deduplicates) that read this disaster's trajectory.
struct BatchColumn {
    std::size_t first_cell = 0;        ///< representative item index
    std::vector<std::size_t> cells;    ///< item indices served by this column
};

struct BatchPlan {
    std::vector<std::size_t> cells;    ///< every item index in this batch
    std::vector<BatchColumn> columns;  ///< one per distinct disaster
};

void evaluate_batch(engine::AnalysisSession& session, const ScenarioGrid& grid,
                    const std::vector<WorkItem>& items, const BatchPlan& plan,
                    const RunnerOptions& options, std::vector<ScenarioResult>& results) {
    const double t0 = now_seconds();
    // Mirror the per-cell path's session traffic — one compile lookup and
    // one quotient lookup per cell — so the footer counters are independent
    // of the batch policy.
    engine::AnalysisSession::CompiledPtr model;
    for (const std::size_t idx : plan.cells) {
        model = compile_item(session, grid, items[idx], options);
        if (options.reduction == core::ReductionPolicy::Auto) {
            (void)session.quotient(model);
        }
    }
    const WorkItem& first = items[plan.cells.front()];
    const core::FusedSeriesPlan fused =
        first.measure.kind == MeasureKind::Survivability
            ? core::survivability_fused_plan(*model, first.measure.service_level)
            : core::instantaneous_cost_fused_plan(*model);

    std::vector<std::vector<double>> columns;
    columns.reserve(plan.columns.size());
    for (const auto& col : plan.columns) {
        columns.push_back(core::fused_initial(
            *model, make_disaster(items[col.first_cell].measure.disaster, *model)));
    }

    for (const std::size_t idx : plan.cells) {
        ScenarioResult& r = results[idx];
        r.item = items[idx];
        r.model_states = model->state_count();
        r.model_transitions = model->transition_count();
        r.model_full_states = model->symmetry_full_states();
    }

    const auto series = ctmc::functional_series_batch(
        *fused.chain, columns, first.measure.times, ctmc::SeriesForm::Instantaneous,
        [&fused](std::span<const double> dist) { return fused.reduce(dist); },
        core::session_transient(session));
    for (std::size_t c = 0; c < plan.columns.size(); ++c) {
        for (const std::size_t idx : plan.columns[c].cells) results[idx].values = series[c];
    }

    const double elapsed = now_seconds() - t0;
    for (const std::size_t idx : plan.cells) {
        results[idx].seconds = elapsed / static_cast<double>(plan.cells.size());
    }
    session.record_batch(plan.cells.size(), plan.columns.size(), elapsed);
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

    // Fusion pass: under BatchPolicy::Auto, cells sharing an evolution
    // matrix and time grid are grouped into batches; everything else — and
    // singleton groups, where batching buys nothing — keeps the per-cell
    // path.  Group iteration is over a std::map, so the batch list (and
    // with it every result byte and counter) is deterministic.
    std::vector<std::size_t> solo;
    std::vector<BatchPlan> batches;
    if (options_.batch == core::BatchPolicy::Auto) {
        std::map<std::string, BatchPlan> groups;
        std::map<std::string, std::map<std::string, std::size_t>> column_of;
        for (std::size_t i = 0; i < items.size(); ++i) {
            if (!fusible(items[i])) {
                solo.push_back(i);
                continue;
            }
            const std::string key = fuse_key(items[i]);
            BatchPlan& plan = groups[key];
            plan.cells.push_back(i);
            const std::string column_key = to_string(items[i].measure.disaster);
            const auto [slot, inserted] =
                column_of[key].emplace(column_key, plan.columns.size());
            if (inserted) {
                plan.columns.push_back(BatchColumn{i, {i}});
            } else {
                plan.columns[slot->second].cells.push_back(i);
            }
        }
        for (auto& [key, plan] : groups) {
            if (plan.cells.size() < 2) {
                solo.insert(solo.end(), plan.cells.begin(), plan.cells.end());
            } else {
                batches.push_back(std::move(plan));
            }
        }
        std::sort(solo.begin(), solo.end());
    } else {
        solo.resize(items.size());
        std::iota(solo.begin(), solo.end(), std::size_t{0});
    }

    // Phase 2: evaluate every cell; results land in grid order by index.
    SweepReport report;
    report.results.resize(items.size());
    run_stealing(workers, solo.size() + batches.size(), [&](std::size_t task) {
        if (task < solo.size()) {
            const std::size_t i = solo[task];
            report.results[i] = evaluate(session_, grid, items[i], options_);
        } else {
            evaluate_batch(session_, grid, items, batches[task - solo.size()], options_,
                           report.results);
        }
    });

    report.unique_models = unique_models.size();
    for (const auto& r : report.results) {
        report.state_points += r.model_states * std::max<std::size_t>(r.values.size(), 1);
    }
    report.stats = session_.stats() - stats_before;
    report.wall_seconds = now_seconds() - t0;
    return report;
}

}  // namespace arcade::sweep
