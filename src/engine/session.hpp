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
//   * lumped quotients and CSL property results per compiled model.
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
    /// Quotient (lumping) cache: hits return the model's shared quotient,
    /// misses run the partition refinement.
    std::size_t lump_hits = 0;
    std::size_t lump_misses = 0;
    /// Cumulative sizes over lump misses: the models' reported states
    /// (CompiledModel::state_count(), the full chain's count for an
    /// orbit-explored individual model) vs blocks out —
    /// lump_states_in / lump_states_out is the session's aggregate
    /// reduction ratio.
    std::size_t lump_states_in = 0;
    std::size_t lump_states_out = 0;
    /// CSL property cache: hits return the memoised CheckResult for an
    /// identical (model fingerprint, formula fingerprint, epsilon) request,
    /// misses run the checker (on the quotient under ReductionPolicy::Auto).
    std::size_t property_hits = 0;
    std::size_t property_misses = 0;

    /// Aggregate state-space reduction achieved by lumping (>= 1; 1.0 when
    /// nothing was lumped).
    [[nodiscard]] double reduction_ratio() const noexcept {
        return lump_states_out > 0 ? static_cast<double>(lump_states_in) /
                                         static_cast<double>(lump_states_out)
                                   : 1.0;
    }
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
        .lump_hits = after.lump_hits - before.lump_hits,
        .lump_misses = after.lump_misses - before.lump_misses,
        .lump_states_in = after.lump_states_in - before.lump_states_in,
        .lump_states_out = after.lump_states_out - before.lump_states_out,
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
    /// stays valid across concurrent clear() calls.  For models compiled
    /// with ReductionPolicy::Auto the solve runs on the lumped quotient and
    /// the block masses are lifted back over the model's chain() states
    /// (uniformly within blocks — exact for every functional in the
    /// model's lump signature).
    [[nodiscard]] std::shared_ptr<const std::vector<double>> steady_state(
        const CompiledPtr& model);

    /// The model's strong-bisimulation quotient (see CompiledModel::
    /// quotient), with the session accounting the lump cache counters and
    /// reduction sizes: every call counts one request (hit or miss).  The
    /// cache itself is the model's lazily-built quotient over its canonical
    /// signature; since the compile cache deduplicates models by
    /// fingerprint, identical (model, signature) requests share one
    /// refinement.
    [[nodiscard]] std::shared_ptr<const ctmc::QuotientCtmc> quotient(
        const CompiledPtr& model);

    /// Model-checks a CSL/CSRL formula on `model`, memoised for the session
    /// keyed by (model fingerprint, formula fingerprint, epsilon) — the
    /// repeated-scenario path for properties, mirroring steady_state().
    /// Evaluation (logic::check over the session) runs on the model's lumped
    /// quotient under ReductionPolicy::Auto and reuses the cached
    /// steady-state solve for top-level S / R[S] queries; see
    /// logic/csl_compiled.hpp.
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

    /// Property cache entry: pins the model (its quotient backs the result)
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

    /// quotient() with the hit accounting optional: internal consumers
    /// (the steady-state solve) reuse a quotient the caller already
    /// requested, which must not inflate the traffic counters.
    [[nodiscard]] std::shared_ptr<const ctmc::QuotientCtmc> quotient_impl(
        const CompiledPtr& model, bool count_hit);

    mutable std::mutex mutex_;
    std::unordered_map<std::uint64_t, CacheEntry<CompiledPtr>> compiled_;
    std::unordered_map<const core::CompiledModel*, SteadyEntry> steady_;
    std::unordered_map<std::uint64_t, PropertyEntry> properties_;
    SessionStats stats_;
};

}  // namespace arcade::engine

#endif  // ARCADE_ENGINE_SESSION_HPP
