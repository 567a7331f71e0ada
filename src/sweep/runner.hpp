// Parallel execution of expanded scenario grids over one AnalysisSession.
//
// One task graph, run by one pool of workers over one ready queue:
//
//   * every *unique* model prefix of the grid is one compile task, run
//     exactly once through the session (so a repeated sweep — or a prefix
//     another harness already compiled on the same session — is a pure
//     cache hit);
//   * a compile that finishes hands its model to its cell tasks and
//     releases them, one per power sequence: each series reads its whole
//     time grid off one uniformisation pass (ctmc::functional_series), and
//     the cost cells of one model and disaster (Figs 6 and 7) share one
//     pass (core::cost_series).  A cell never looks its model up again.
//
// Compiles run first, in grid order, so they unlock cells early; ready
// cells run longest first: steady-state cells before series, each class by
// an estimate of its work from the compiled chain.  Results land in
// deterministic grid order regardless of thread count or run order:
// workers write into a pre-sized slot per work item, with the result's
// export text rendered beside it (sweep/export.hpp).  The report carries
// the session-counter delta (cache effectiveness) and a states/sec
// throughput figure.
#ifndef ARCADE_SWEEP_RUNNER_HPP
#define ARCADE_SWEEP_RUNNER_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/session.hpp"
#include "sweep/scenario.hpp"

namespace arcade::sweep {

/// The export text of one result: its CSV rows and its JSON object, as
/// render_text (sweep/export.hpp) writes them.  The worker that computes a
/// result renders it, in parallel with the other cells, and write_csv and
/// write_json copy it.  `fingerprint` covers every bit the text was
/// rendered from; a writer copies the text only while the result still
/// matches it, and otherwise renders the result itself.
struct ResultText {
    std::string csv;   ///< the result's CSV rows, each ending in '\n'
    std::string json;  ///< its object of the JSON "results" list, no separator
    std::uint64_t fingerprint = 0;
};

/// One evaluated grid cell.  `values` has one entry per time-grid point for
/// series measures and exactly one entry for scalar measures (for
/// MeasureKind::StateSpace, the state count).
struct ScenarioResult {
    WorkItem item;
    std::vector<double> values;
    std::size_t model_states = 0;       ///< state count of the compiled model
    std::size_t model_transitions = 0;  ///< transition count of the compiled model
    /// States of the chain actually explored (CompiledModel::chain()): the
    /// lumped chain of an individual model under ReductionPolicy::Auto,
    /// model_states otherwise.
    std::size_t model_explored_states = 0;
    double model_full_states = 0.0;  ///< kept for perfbench; nothing reads it
    /// Wall time of this cell's evaluation; cells that shared one power
    /// pass split its wall time evenly.
    double seconds = 0.0;
    ResultText text;  ///< empty in a report built by hand
};

struct SweepReport {
    std::vector<ScenarioResult> results;  ///< deterministic grid order
    engine::SessionStats stats;           ///< session-counter delta for this run
    double wall_seconds = 0.0;
    std::size_t unique_models = 0;  ///< distinct compiled-model prefixes
    std::size_t state_points = 0;   ///< sum of explored states × grid points solved

    /// Solved state-points per second of wall time (0 when degenerate).
    [[nodiscard]] double states_per_second() const noexcept {
        return wall_seconds > 0.0 ? static_cast<double>(state_points) / wall_seconds : 0.0;
    }
    /// Fraction of the run's compile + steady-state requests to the session
    /// served from its cache (one compile request per unique model).
    [[nodiscard]] double cache_hit_rate() const noexcept {
        const std::size_t hits = stats.compile_hits + stats.steady_state_hits;
        const std::size_t total = hits + stats.compile_misses + stats.steady_state_misses;
        return total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
    }
};

struct RunnerOptions {
    /// Workers, never more than there are tasks; 0 = hardware concurrency.
    /// One worker runs on the caller's thread; more get threads of their own.
    unsigned threads = 0;
    /// Flows into CompileOptions::reduction for every compile of the run:
    /// under Auto an individual model is explored (and every cell on it
    /// analysed) on the lumped encoding; each result's model_states against
    /// model_explored_states shows the reduction.
    core::ReductionPolicy reduction = core::ReductionPolicy::Off;
    core::SymmetryPolicy symmetry = core::SymmetryPolicy::Off;  ///< kept for perfbench
};

class SweepRunner {
public:
    explicit SweepRunner(engine::AnalysisSession& session, RunnerOptions options = {})
        : session_(session), options_(options) {}

    /// expand()s the grid and evaluates every item.  After the first
    /// exception (e.g. a model that fails to compile) no new task starts; it
    /// is rethrown once every worker has joined.
    [[nodiscard]] SweepReport run(const ScenarioGrid& grid);

private:
    engine::AnalysisSession& session_;
    RunnerOptions options_;
};

}  // namespace arcade::sweep

#endif  // ARCADE_SWEEP_RUNNER_HPP
