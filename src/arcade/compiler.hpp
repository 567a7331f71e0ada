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
///   Off  — the full chain is explored and every solver runs on it as-is.
///   Auto — measures run on the coarsest quotient respecting the model's
///          full measure signature (all chain labels + service levels +
///          cost rates) and lift/aggregate results back.  Exact for every
///          measure in this library; see src/ctmc/quotient.hpp.  An
///          individual model with interchangeable components is explored
///          on its symmetry orbits (engine/symmetry.hpp), so the full chain
///          is never built and the quotient is lumped from the orbit chain;
///          state_count() and transition_count() still report the full
///          chain's exact sizes.
/// Chosen per call (CompileOptions::reduction, RunnerOptions::reduction,
/// arcade_sweep --reduction); every default is Off.
enum class ReductionPolicy { Off, Auto };

enum class SymmetryPolicy { Off, Auto };  ///< kept for perfbench; nothing reads it

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
    /// Bound on the explored states: orbit representatives when the model
    /// is explored on its orbits (ReductionPolicy::Auto), every state of the
    /// chain otherwise.
    std::size_t max_states = 50'000'000;
    /// Worker threads for the sharded exploration; 0 = hardware concurrency.
    /// Any thread count produces the identical CTMC.
    unsigned threads = 0;
    /// Run analyses on the lumped quotient of the compiled chain?
    ReductionPolicy reduction = ReductionPolicy::Off;
    SymmetryPolicy symmetry = SymmetryPolicy::Off;  ///< kept for perfbench; `compile` ignores it
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
    /// `full_states`/`full_transitions` are the full chain's exact sizes
    /// when `state_symmetry` is the proof the chain was explored on (0 and
    /// ignored otherwise).
    CompiledModel(ctmc::Ctmc chain, std::vector<double> service,
                  rewards::RewardStructure cost, ArcadeModel model,
                  engine::StateStore store, Encoding encoding,
                  ReductionPolicy reduction = ReductionPolicy::Off,
                  std::shared_ptr<const engine::StateSymmetry> state_symmetry = nullptr,
                  std::size_t full_states = 0, std::size_t full_transitions = 0);

    /// The explored chain: the orbit chain when orbit_explored(), the full
    /// chain otherwise.  Every per-state vector of this model (service
    /// levels, cost rates, labels, disaster distributions, lifted results)
    /// is indexed by its states — size them by chain().state_count().
    [[nodiscard]] const ctmc::Ctmc& chain() const noexcept { return chain_; }
    [[nodiscard]] ctmc::Ctmc& chain() noexcept { return chain_; }
    /// Reported size of the model (Table 1): always the full chain's exact
    /// state and transition counts, also when the model was explored on its
    /// orbits (chain().state_count() is then the orbit chain's).
    [[nodiscard]] std::size_t state_count() const noexcept { return state_count_; }
    [[nodiscard]] std::size_t transition_count() const noexcept { return transition_count_; }

    /// Quantitative service level of every state (paper Section 3).
    [[nodiscard]] const std::vector<double>& service_levels() const noexcept {
        return service_;
    }

    /// States with service level >= x (within 1e-9 tolerance).
    [[nodiscard]] std::vector<bool> service_at_least(double x) const;
    /// States delivering full service (the paper's operational criterion).
    [[nodiscard]] std::vector<bool> operational_states() const;

    /// Repair-cost reward structure: 3/h per failed component + 1/h per
    /// idle crew (paper Section 5), honouring per-model overrides.
    [[nodiscard]] const rewards::RewardStructure& cost_reward() const noexcept { return cost_; }

    [[nodiscard]] const ArcadeModel& model() const noexcept { return model_; }
    [[nodiscard]] Encoding encoding() const noexcept { return encoding_; }
    [[nodiscard]] ReductionPolicy reduction() const noexcept { return reduction_; }

    /// True when the chain was explored on symmetry orbits: an individual
    /// model with two or more interchangeable components, compiled under
    /// ReductionPolicy::Auto.
    [[nodiscard]] bool orbit_explored() const noexcept { return state_symmetry_ != nullptr; }

    /// Kept for perfbench: state_count() as a double.
    [[nodiscard]] double symmetry_full_states() const noexcept { return state_count_; }

    /// The interchangeability proof the chain was explored on: the orbits
    /// of interchangeable components.  Null when the chain was explored in
    /// full (ReductionPolicy::Off), for the lumped encoding and for models
    /// without two interchangeable components.
    [[nodiscard]] const engine::StateSymmetry* state_symmetry() const noexcept {
        return state_symmetry_.get();
    }

    /// The model's full measure signature: every chain label plus the
    /// service-level and cost-rate vectors — the union of everything any
    /// measure in this library reads, so ONE quotient serves them all.
    [[nodiscard]] ctmc::LumpSignature lump_signature() const;

    // Measure inputs on the blocks of `quotient`, a quotient of this
    // model's chain over lump_signature() (quotient().first), built in
    // O(blocks) from the rows the quotient stored per block.  Each is
    // bitwise the projection of its full-chain counterpart (test_lumping
    // checks that on every shipped individual model).

    /// Bitwise quotient.project_values(service_levels()).
    [[nodiscard]] const std::vector<double>& block_service_levels(
        const ctmc::QuotientCtmc& quotient) const;
    /// Bitwise quotient.project_values(cost_reward().state_rates()).
    [[nodiscard]] const std::vector<double>& block_cost_rates(
        const ctmc::QuotientCtmc& quotient) const;
    /// Bitwise quotient.project_mask(service_at_least(x)).
    [[nodiscard]] std::vector<bool> block_service_at_least(const ctmc::QuotientCtmc& quotient,
                                                           double x) const;
    /// Bitwise quotient.project(disaster_distribution(disaster)): the point
    /// distribution on the disaster state's block.
    [[nodiscard]] std::vector<double> block_disaster_distribution(
        const ctmc::QuotientCtmc& quotient, const Disaster& disaster) const;

    /// The strong-bisimulation quotient of the chain w.r.t.
    /// lump_signature(), computed lazily once per model (thread-safe) and
    /// shared by every consumer.  It lumps the explored chain directly: an
    /// orbit-explored chain is already an exact lumping of the full chain,
    /// so refinement finishes the job on its orbits.
    /// `.second` reports whether this call built it (false = cache hit);
    /// the AnalysisSession turns that into its lump_hits/lump_misses
    /// counters.  Because the session deduplicates
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
    /// distribution), over chain()'s states.
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
    std::shared_ptr<const engine::StateSymmetry> state_symmetry_;
    std::size_t state_count_ = 0;
    std::size_t transition_count_ = 0;
    /// Lazy quotient cache.  The mutex lives behind a shared_ptr so the
    /// model stays movable (run_compile returns by value).
    mutable std::shared_ptr<std::mutex> quotient_mutex_ = std::make_shared<std::mutex>();
    mutable std::shared_ptr<const ctmc::QuotientCtmc> quotient_;

    /// Value rows of lump_signature(), by position.
    enum SignatureRow : std::size_t { kServiceRow, kCostRow, kSignatureRows };
    [[nodiscard]] const std::vector<double>& block_row(const ctmc::QuotientCtmc& quotient,
                                                       SignatureRow row) const;

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
