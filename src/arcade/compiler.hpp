// Compilation of Arcade models to explicit-state CTMCs.
//
// Two encodings are provided:
//
// * Individual — every component is tracked by identity.  Repair-unit state
//   is one tracked in-repair slot (non-preemptive crew 1) plus per-rate-class
//   FIFO ranks for waiting components.  This is the encoding that reproduces
//   the paper's Table 1 state counts exactly (111809 / 8129 for FRF/FFF,
//   2^n for dedicated repair).
//
// * Lumped — exchangeable components (same rates, same phase, same repair
//   class) are aggregated into counters.  Orders of magnitude smaller state
//   spaces with identical measures (asserted by tests); the ablation
//   benchmark quantifies the reduction.
//
// Additional crews beyond the first serve the policy-best waiting components
// and are derived from the state rather than tracked — this reproduces the
// paper's "-2" strategies (same state count as "-1", one extra repair
// transition wherever the waiting queue is non-empty).  `preemptive` repair
// units derive all crews from the state.
#ifndef ARCADE_ARCADE_COMPILER_HPP
#define ARCADE_ARCADE_COMPILER_HPP

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "analysis/lint.hpp"
#include "arcade/types.hpp"
#include "ctmc/ctmc.hpp"
#include "ctmc/quotient.hpp"
#include "engine/state_store.hpp"
#include "engine/symmetry.hpp"
#include "rewards/rewards.hpp"

namespace arcade::core {

enum class Encoding { Individual, Lumped };

/// Whether analyses of a compiled model run on the automatic
/// strong-bisimulation quotient (ctmc::QuotientCtmc) of its chain.
///   Off  — every solver runs on the explored chain as-is.
///   Auto — measures run on the coarsest quotient respecting the model's
///          full measure signature (all chain labels + service levels +
///          cost rates) and lift/aggregate results back.  Exact for every
///          measure in this library; see src/ctmc/quotient.hpp.
enum class ReductionPolicy { Off, Auto };

/// Process-wide default, read once from the ARCADE_REDUCTION environment
/// variable ("auto"/"on"/"1" select Auto; anything else, or unset, is Off).
/// Lets CI force the whole test suite through the reduction layer.
[[nodiscard]] ReductionPolicy default_reduction_policy();

/// Whether compilation explores the symmetry quotient directly (engine
/// on-the-fly reduction) instead of the full chain.  Under Auto the
/// compiler detects interchangeable component groups (same rates, same
/// phase, same repair class — the replicated pump/filter copies) and
/// canonicalises every explored state to its orbit representative, so the
/// full chain is never materialised.  The quotient is an exact ordinary
/// lumping; it composes with ReductionPolicy (symmetry first, splitter-
/// queue refinement on the residual).  See engine/symmetry.hpp.
using engine::SymmetryPolicy;
using engine::default_symmetry_policy;

/// Remains only for the benchmark's provenance code.
enum class BatchPolicy { Off, Auto };

/// Remains only for the benchmark's provenance code; always Off.
[[nodiscard]] constexpr BatchPolicy default_batch_policy() { return BatchPolicy::Off; }

/// Name of the chain label marking states with service level >= `level`
/// (within the library-wide 1e-9 tolerance): "service>=<level>", the level
/// printed round-trip exact (%.17g).  The compiler registers one such label
/// per distinct positive service level of the model, so CSL formulas can
/// name the paper's service intervals (see watertree::properties).
[[nodiscard]] std::string service_label(double level);

struct CompileOptions {
    Encoding encoding = Encoding::Individual;
    std::size_t max_states = 50'000'000;
    /// Worker threads for the sharded exploration; 0 = hardware concurrency.
    /// Any thread count produces the identical CTMC.
    unsigned threads = 0;
    /// Run analyses on the lumped quotient of the compiled chain?
    ReductionPolicy reduction = default_reduction_policy();
    /// Explore the symmetry quotient directly (ARCADE_SYMMETRY=off|auto)?
    SymmetryPolicy symmetry = default_symmetry_policy();
    /// Kept for perfbench; `compile` ignores it.
    analysis::LintLevel lint = analysis::default_lint_level();
};

/// A disaster for survivability analysis: how many components of each phase
/// have failed at time zero (GOOD model — Given Occurrence Of Disaster).
struct Disaster {
    std::string name;
    /// failed_per_phase[p] = number of failed components in phase p.
    std::vector<std::size_t> failed_per_phase;
};

/// The compiled model: CTMC + per-state service levels + cost rewards.
/// The explored states live bit-packed in an engine::StateStore rather than
/// the seed's unordered_map over heap-allocated encoded vectors.
class CompiledModel {
public:
    CompiledModel(ctmc::Ctmc chain, std::vector<double> service,
                  rewards::RewardStructure cost, ArcadeModel model,
                  engine::StateStore store, Encoding encoding,
                  ReductionPolicy reduction = ReductionPolicy::Off,
                  SymmetryPolicy symmetry = SymmetryPolicy::Off,
                  std::shared_ptr<const engine::StateSymmetry> state_symmetry = nullptr,
                  double symmetry_full_states = 0.0, double symmetry_seconds = 0.0);

    [[nodiscard]] const ctmc::Ctmc& chain() const noexcept { return chain_; }
    [[nodiscard]] ctmc::Ctmc& chain() noexcept { return chain_; }
    [[nodiscard]] std::size_t state_count() const noexcept { return chain_.state_count(); }
    [[nodiscard]] std::size_t transition_count() const noexcept {
        return chain_.transition_count();
    }

    /// Quantitative service level of every state (paper Section 3).
    [[nodiscard]] const std::vector<double>& service_levels() const noexcept {
        return service_;
    }

    /// States with service level >= x (within 1e-9 tolerance).
    [[nodiscard]] std::vector<bool> service_at_least(double x) const;
    /// States delivering full service (the paper's operational criterion).
    [[nodiscard]] std::vector<bool> operational_states() const;
    /// States delivering no service at all.
    [[nodiscard]] std::vector<bool> total_failure_states() const;

    /// Repair-cost reward structure: 3/h per failed component + 1/h per
    /// idle crew (paper Section 5), honouring per-model overrides.
    [[nodiscard]] const rewards::RewardStructure& cost_reward() const noexcept { return cost_; }

    [[nodiscard]] const ArcadeModel& model() const noexcept { return model_; }
    [[nodiscard]] Encoding encoding() const noexcept { return encoding_; }
    [[nodiscard]] ReductionPolicy reduction() const noexcept { return reduction_; }
    [[nodiscard]] SymmetryPolicy symmetry() const noexcept { return symmetry_; }

    /// True when the chain is a symmetry quotient over nontrivial orbits
    /// (policy Auto and at least one interchangeable group of size >= 2).
    [[nodiscard]] bool symmetry_reduced() const noexcept {
        return state_symmetry_ != nullptr && !state_symmetry_->trivial();
    }

    /// Exact state count of the full (unreduced) chain: the sum of orbit
    /// sizes over the explored representatives — recovered without ever
    /// materialising the full chain (engine/symmetry.hpp explains why this
    /// is exact).  Equals state_count() when no symmetry was applied.
    [[nodiscard]] double symmetry_full_states() const noexcept {
        return symmetry_reduced() ? symmetry_full_states_
                                  : static_cast<double>(state_count());
    }

    /// full states / quotient states (1.0 when symmetry is off/trivial).
    [[nodiscard]] double symmetry_ratio() const noexcept {
        return state_count() == 0
                   ? 1.0
                   : symmetry_full_states() / static_cast<double>(state_count());
    }

    /// Wall seconds of the post-exploration orbit accounting pass (the
    /// canonicalisation machinery outside the BFS hot path); 0 when off.
    [[nodiscard]] double symmetry_seconds() const noexcept { return symmetry_seconds_; }

    /// The detected orbit structure (null when symmetry is off or trivial).
    [[nodiscard]] const engine::StateSymmetry* state_symmetry() const noexcept {
        return state_symmetry_.get();
    }

    /// The model's full measure signature: every chain label plus the
    /// service-level and cost-rate vectors — the union of everything any
    /// measure in this library reads, so ONE quotient serves them all.
    [[nodiscard]] ctmc::LumpSignature lump_signature() const;

    /// The strong-bisimulation quotient of the chain w.r.t.
    /// lump_signature(), computed lazily once per model (thread-safe) and
    /// shared by every consumer.  `.second` reports whether this call built
    /// it (false = cache hit); the AnalysisSession turns that into its
    /// lump_hits/lump_misses counters.  Because the session deduplicates
    /// models by fingerprint and each model holds one quotient over its
    /// canonical signature, identical (model, signature) requests anywhere
    /// in the process share one refinement.
    [[nodiscard]] std::pair<std::shared_ptr<const ctmc::QuotientCtmc>, bool> quotient()
        const;

    /// Index of the all-up initial state (always 0).
    [[nodiscard]] std::size_t initial_state() const noexcept { return 0; }

    /// Index of the canonical state right after `disaster` struck: the
    /// policy-best failed component is in repair, the rest queue in
    /// component-index order (the paper: "we use the priority of components
    /// to define the repair ordering").  Throws ModelError when the disaster
    /// is inconsistent with the model.
    [[nodiscard]] std::size_t disaster_state(const Disaster& disaster) const;

    /// Point distribution on the disaster state (GOOD-model initial
    /// distribution).
    [[nodiscard]] std::vector<double> disaster_distribution(const Disaster& disaster) const;

    /// Raw encoded state, decoded from the packed store (tests/debugging).
    [[nodiscard]] std::vector<std::int16_t> encoded_state(std::size_t index) const;

    /// The packed state store (engine layer; exposed for perf counters).
    [[nodiscard]] const engine::StateStore& state_store() const noexcept { return store_; }

private:
    ctmc::Ctmc chain_;
    std::vector<double> service_;
    rewards::RewardStructure cost_;
    ArcadeModel model_;
    engine::StateStore store_;
    Encoding encoding_;
    ReductionPolicy reduction_ = ReductionPolicy::Off;
    SymmetryPolicy symmetry_ = SymmetryPolicy::Off;
    std::shared_ptr<const engine::StateSymmetry> state_symmetry_;
    double symmetry_full_states_ = 0.0;
    double symmetry_seconds_ = 0.0;
    /// Lazy quotient cache.  The mutex lives behind a shared_ptr so the
    /// model stays movable (run_compile returns by value).
    mutable std::shared_ptr<std::mutex> quotient_mutex_ = std::make_shared<std::mutex>();
    mutable std::shared_ptr<const ctmc::QuotientCtmc> quotient_;

    [[nodiscard]] std::size_t lookup(const std::vector<std::int16_t>& encoded) const;
};

/// Compiles `model` (validated) into an explicit CTMC.
[[nodiscard]] CompiledModel compile(const ArcadeModel& model,
                                    const CompileOptions& options = {});

/// Returns a copy of `model` with every repair unit replaced by
/// RepairPolicy::None — the chain used for reliability, where repairs are
/// not considered (paper Section 5: "this measure does not consider
/// repairs").
[[nodiscard]] ArcadeModel without_repair(const ArcadeModel& model);

}  // namespace arcade::core

#endif  // ARCADE_ARCADE_COMPILER_HPP
