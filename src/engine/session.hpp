// AnalysisSession — the memoising facade over the compile/solve pipeline.
//
// Every measure, bench and sweep funnels through the same pipeline:
// Arcade model -> explicit-state exploration -> CTMC solvers.  A session
// caches the expensive artefacts across calls, keyed on a structural
// fingerprint of the model plus the compile options:
//
//   * CompiledModel instances (identical watertree line+strategy+encoding
//     requests return the same shared_ptr),
//   * steady-state distributions per compiled model (one Gauss–Seidel
//     solve serves availability AND long-run cost),
//   * CSL property results per compiled model.
//
// Every cached analysis runs on the compiled model's chain(); the
// reduction policy only shapes the compile (and so its cache key).
//
// Reactive-modules systems (PRISM input) are not cached here: callers run
// modules::explore directly.
//
// Sessions are thread-safe; the process-wide `global()` session backs the
// convenience paths in bench_common and the examples.
#ifndef ARCADE_ENGINE_SESSION_HPP
#define ARCADE_ENGINE_SESSION_HPP

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "arcade/compiler.hpp"
#include "arcade/types.hpp"

namespace arcade::logic {
class StateFormula;
struct CheckResult;
}  // namespace arcade::logic

namespace arcade::engine {

/// Cache effectiveness counters (reported by the perf benchmarks).
struct SessionStats {
    std::size_t compile_hits = 0;
    std::size_t compile_misses = 0;
    std::size_t steady_state_hits = 0;
    std::size_t steady_state_misses = 0;
    /// CSL property cache: hits return the memoised CheckResult for an
    /// identical (model fingerprint, formula fingerprint, epsilon) request,
    /// misses run the checker.
    std::size_t property_hits = 0;
    std::size_t property_misses = 0;
};

/// Counter delta between two stats() snapshots — how run-level consumers (the
/// sweep runner) attribute cache effectiveness to one run of work against
/// a long-lived session.
[[nodiscard]] inline SessionStats operator-(const SessionStats& after,
                                            const SessionStats& before) {
    // Designated initialisers: a field listed out of declaration order is a
    // compile error rather than a silent misattribution.
    return SessionStats{
        .compile_hits = after.compile_hits - before.compile_hits,
        .compile_misses = after.compile_misses - before.compile_misses,
        .steady_state_hits = after.steady_state_hits - before.steady_state_hits,
        .steady_state_misses = after.steady_state_misses - before.steady_state_misses,
        .property_hits = after.property_hits - before.property_hits,
        .property_misses = after.property_misses - before.property_misses};
}

/// Structural fingerprint of a model (stable across identical rebuilds of
/// the same configuration, e.g. two watertree::line2(FRF-1) calls).
/// `seed` selects an independent hash stream: cache entries store a second
/// fingerprint and verify it on every hit, so a collision in one stream
/// cannot silently return the wrong model.
[[nodiscard]] std::uint64_t fingerprint(const core::ArcadeModel& model,
                                        std::uint64_t seed = 0);

class AnalysisSession {
public:
    using CompiledPtr = std::shared_ptr<const core::CompiledModel>;

    /// Compiles `model`, or returns the cached instance for an identical
    /// (model fingerprint, encoding, max_states, reduction) request.
    [[nodiscard]] CompiledPtr compile(const core::ArcadeModel& model,
                                      const core::CompileOptions& options = {});

    /// Steady-state distribution of `model`'s chain, solved once per model
    /// and cached for the session.  Returned by shared_ptr so the result
    /// stays valid across concurrent clear() calls.
    [[nodiscard]] std::shared_ptr<const std::vector<double>> steady_state(
        const CompiledPtr& model);

    /// Kept for perfbench: model->quotient().first.
    [[nodiscard]] std::shared_ptr<const ctmc::QuotientCtmc> quotient(
        const CompiledPtr& model);

    /// Model-checks a CSL/CSRL formula on `model`, memoised for the session
    /// keyed by (model fingerprint, formula fingerprint, epsilon) — the
    /// repeated-scenario path for properties, mirroring steady_state().
    /// Evaluation (logic::check over the session) runs on the model's
    /// chain() and reuses the cached steady-state solve for top-level
    /// S / R[S] queries; see logic/csl_compiled.hpp.
    [[nodiscard]] std::shared_ptr<const logic::CheckResult> check_property(
        const CompiledPtr& model, const logic::StateFormula& formula,
        double epsilon = 1e-12);
    [[nodiscard]] std::shared_ptr<const logic::CheckResult> check_property(
        const CompiledPtr& model, const std::string& formula, double epsilon = 1e-12);

    /// Long-run probability of full service, from the cached distribution.
    [[nodiscard]] double availability(const CompiledPtr& model);

    /// Long-run expected cost rate, from the same cached distribution.
    [[nodiscard]] double steady_state_cost(const CompiledPtr& model);

    [[nodiscard]] SessionStats stats() const;

    /// Drops every cached artefact (models, distributions, properties).
    void clear();

    /// Process-wide session used by the convenience helpers in bench/examples.
    [[nodiscard]] static AnalysisSession& global();

private:
    /// Steady-state cache entry: holds the model shared_ptr so the raw
    /// pointer key can never be reused by a different model while cached.
    struct SteadyEntry {
        CompiledPtr model;
        std::shared_ptr<const std::vector<double>> pi;
    };

    /// Property cache entry: pins the model whose chain the result indexes
    /// and carries the second-stream fingerprint, verified on every hit.
    struct PropertyEntry {
        std::uint64_t check = 0;
        CompiledPtr model;
        std::shared_ptr<const logic::CheckResult> result;
    };

    template <typename Ptr>
    struct CacheEntry {
        std::uint64_t check;  // second-stream fingerprint, verified on hit
        Ptr value;
    };

    mutable std::mutex mutex_;
    std::unordered_map<std::uint64_t, CacheEntry<CompiledPtr>> compiled_;
    std::unordered_map<const core::CompiledModel*, SteadyEntry> steady_;
    std::unordered_map<std::uint64_t, PropertyEntry> properties_;
    SessionStats stats_;
};

}  // namespace arcade::engine

#endif  // ARCADE_ENGINE_SESSION_HPP
