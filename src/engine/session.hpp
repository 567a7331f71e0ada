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
//     solve serves availability AND long-run cost, and the CSL checker's
//     top-level S / R[S] queries).
//
// Every cached analysis runs on the compiled model's chain(); the
// reduction policy only shapes the compile (and so its cache key).
// CSL properties are not cached: callers run logic::check over the
// session (logic/csl_compiled.hpp).
//
// Reactive-modules systems (PRISM input) are not cached here: callers run
// modules::explore directly.
//
// Sessions are thread-safe.  There is no process-wide session: each caller
// (a sweep, an example, a test) declares its own, so its caches and
// counters cover exactly its own work.
#ifndef ARCADE_ENGINE_SESSION_HPP
#define ARCADE_ENGINE_SESSION_HPP

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "arcade/compiler.hpp"
#include "arcade/types.hpp"

namespace arcade::logic {
struct CheckResult;
}  // namespace arcade::logic

namespace arcade::engine {

/// Cache effectiveness counters (reported by the perf benchmarks).
struct SessionStats {
    std::size_t compile_hits = 0;
    std::size_t compile_misses = 0;
    std::size_t steady_state_hits = 0;
    std::size_t steady_state_misses = 0;
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
        .steady_state_misses = after.steady_state_misses - before.steady_state_misses};
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

    /// Kept for perfbench: logic::check(*this, model, parse_csl(formula))
    /// with the given epsilon, uncached.
    [[nodiscard]] std::shared_ptr<const logic::CheckResult> check_property(
        const CompiledPtr& model, const std::string& formula, double epsilon = 1e-12);

    /// Long-run probability of full service, from the cached distribution.
    [[nodiscard]] double availability(const CompiledPtr& model);

    /// Long-run expected cost rate, from the same cached distribution.
    [[nodiscard]] double steady_state_cost(const CompiledPtr& model);

    [[nodiscard]] SessionStats stats() const;

    /// Drops every cached artefact (models, distributions).
    void clear();

private:
    /// Steady-state cache entry: holds the model shared_ptr so the raw
    /// pointer key can never be reused by a different model while cached.
    struct SteadyEntry {
        CompiledPtr model;
        std::shared_ptr<const std::vector<double>> pi;
    };

    template <typename Ptr>
    struct CacheEntry {
        std::uint64_t check;  // second-stream fingerprint, verified on hit
        Ptr value;
    };

    mutable std::mutex mutex_;
    std::unordered_map<std::uint64_t, CacheEntry<CompiledPtr>> compiled_;
    std::unordered_map<const core::CompiledModel*, SteadyEntry> steady_;
    SessionStats stats_;
};

}  // namespace arcade::engine

#endif  // ARCADE_ENGINE_SESSION_HPP
