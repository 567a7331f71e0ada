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
//   benchmark quantifies the reduction.  It exists when every queue repair
//   class holds one such group, and is then an exact lumping of the
//   individual chain: one lumped state per orbit of individual states under
//   permutations of interchangeable components.  ReductionPolicy::Auto
//   explores an individual model on it.
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
#include "rewards/rewards.hpp"

namespace arcade::core {

enum class Encoding { Individual, Lumped };

/// How core::compile explores an individual model; a compile-time choice
/// only — every analysis reads chain(), whatever the policy.
///   Off  — the full chain of encoding() is explored.
///   Auto — an individual model is explored on the lumped encoding when that
///          encoding exists for it (every queue repair class holds one group
///          of interchangeable components).  The lumped chain is an exact
///          lumping of the full chain and, on every shipped model, its own
///          coarsest quotient over lump_signature(), so chain() is the
///          reduced chain the analyses run on; state_count() and
///          transition_count() still report the full chain's exact sizes.
///          Any other model is compiled exactly as under Off (explored and
///          analysed in full).
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
    /// Bound on the explored states, chain()'s: the lumped chain when an
    /// individual model is explored on the lumped encoding
    /// (ReductionPolicy::Auto), the full chain otherwise.
    std::size_t max_states = 50'000'000;
    unsigned threads = 0;  ///< kept for perfbench; explore ignores it
    /// Explore an individual model on the lumped encoding when it has one?
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
    /// `explored_with` is the encoder that built `chain` and `store`;
    /// `state_count`/`transition_count` are the sizes the model reports.
    CompiledModel(ctmc::Ctmc chain, std::vector<double> service,
                  rewards::RewardStructure cost, ArcadeModel model,
                  engine::StateStore store, Encoding encoding, ReductionPolicy reduction,
                  Encoding explored_with, std::size_t state_count,
                  std::size_t transition_count);

    /// The explored chain: the lumped chain when an individual model was
    /// explored on the lumped encoding (ReductionPolicy::Auto), the chain of
    /// encoding() otherwise.  Every per-state vector of this model (service
    /// levels, cost rates, labels, disaster distributions, CSL results)
    /// is indexed by its states — size them by chain().state_count().
    [[nodiscard]] const ctmc::Ctmc& chain() const noexcept { return chain_; }
    [[nodiscard]] ctmc::Ctmc& chain() noexcept { return chain_; }
    /// Reported size of the model (Table 1): always the exact state and
    /// transition counts of encoding()'s chain, also when an individual
    /// model was explored on the lumped encoding (chain().state_count() is
    /// then the lumped chain's).
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

    /// Kept for perfbench: state_count() as a double.
    [[nodiscard]] double symmetry_full_states() const noexcept { return state_count_; }

    /// The model's full measure signature: every chain label plus the
    /// service-level and cost-rate vectors — the union of everything any
    /// measure in this library reads.
    [[nodiscard]] ctmc::LumpSignature lump_signature() const;

    /// The strong-bisimulation quotient of the chain w.r.t.
    /// lump_signature(), computed lazily once per model (thread-safe): the
    /// on-demand lumping API.  No analysis reads it; tests and perfbench
    /// do.  `.second` reports whether this call built it (false = cache
    /// hit).
    [[nodiscard]] std::pair<std::shared_ptr<const ctmc::QuotientCtmc>, bool> quotient()
        const;

    /// Index of the all-up initial state (always 0).
    [[nodiscard]] std::size_t initial_state() const noexcept { return 0; }

    /// Index of the canonical state right after `disaster` struck: the
    /// first failed_per_phase[p] components listed in each phase p are down,
    /// the policy-best of them is in repair, the rest queue in
    /// component-index order (the paper: "we use the priority of components
    /// to define the repair ordering").  Throws ModelError when the disaster
    /// is inconsistent with the model.
    [[nodiscard]] std::size_t disaster_state(const Disaster& disaster) const;

    /// Point distribution on the disaster state (GOOD-model initial
    /// distribution), over chain()'s states.
    [[nodiscard]] std::vector<double> disaster_distribution(const Disaster& disaster) const;

    /// Raw encoded state, decoded from the packed store (tests/debugging):
    /// in the encoding that explored chain(), the lumped one for an
    /// individual model explored on it.
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
    Encoding explored_with_;
    std::size_t state_count_ = 0;
    std::size_t transition_count_ = 0;
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
