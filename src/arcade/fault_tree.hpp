// General AND/OR/K-of-N fault trees and the paper's quantitative service
// tree transformation.
//
// A fault tree evaluates to true when the (sub)system is DOWN; literals are
// component failure modes.  The quantitative service tree is the dual
// (AND <-> OR swap) evaluated over *operational* literals with
//   ANDq(x...) = min(x...),    ORq(x...) = mean(x...)
// (eqs. (1) and (2) of the paper); a K-of-N fault gate ("fails when at least
// K of N have failed") dualises to the spare gate min(1, up/(N-K+1)).
#ifndef ARCADE_ARCADE_FAULT_TREE_HPP
#define ARCADE_ARCADE_FAULT_TREE_HPP

#include <memory>
#include <string>
#include <vector>

#include "arcade/types.hpp"

namespace arcade::core {

class FaultTree {
public:
    enum class Gate { Literal, And, Or, KOfN, Spare };

    /// Leaf: fails iff `component` is down.
    static FaultTree literal(std::size_t component);
    /// Fails iff all children fail.
    static FaultTree all_of(std::vector<FaultTree> children);
    /// Fails iff any child fails.
    static FaultTree any_of(std::vector<FaultTree> children);
    /// Fails iff at least `k` children fail.
    static FaultTree k_of_n(std::size_t k, std::vector<FaultTree> children);

    /// Spare-managed group: `required` of the children must work for full
    /// service.  Qualitatively fails only when ALL children fail (no
    /// service); quantitatively delivers min(1, working/required) — the
    /// paper's rule that spares do not create extra service intervals.
    static FaultTree spare_group(std::size_t required, std::vector<FaultTree> children);

    /// True iff the subtree is failed given per-component up/down status.
    [[nodiscard]] bool failed(const std::vector<bool>& component_up) const;

    /// Quantitative service level in [0,1] of the *dual* service tree
    /// (paper Section 3): AND->mean over child service, OR->min,
    /// KofN -> min(1, up/(n-k+1)) over literal children.
    [[nodiscard]] double service_level(const std::vector<bool>& component_up) const;

    [[nodiscard]] Gate gate() const noexcept { return gate_; }
    [[nodiscard]] std::size_t component() const;
    [[nodiscard]] const std::vector<FaultTree>& children() const noexcept { return children_; }
    [[nodiscard]] std::size_t threshold() const noexcept { return k_; }

    /// The standard fault tree of a phase-structured Arcade model:
    /// the system is down when some phase has fewer than `required`
    /// working components ("fully operational" criterion when evaluated
    /// qualitatively; the service dual gives the quantitative levels).
    static FaultTree down_tree(const ArcadeModel& model);

    /// The total-failure tree: down when some phase delivers no service at
    /// all (all members failed).
    static FaultTree total_failure_tree(const ArcadeModel& model);

private:
    Gate gate_ = Gate::Literal;
    std::size_t component_ = 0;
    std::size_t k_ = 0;
    std::vector<FaultTree> children_;
};

/// Phase-based service evaluation (the fast path the compiler uses):
/// service = min over phases; plain phase = up/n, spare phase =
/// min(1, up/required).  Equals the FaultTree dual on phase-structured
/// models (asserted by tests).
[[nodiscard]] double phase_service_level(const ArcadeModel& model,
                                         const std::vector<std::size_t>& up_per_phase);

/// Distinct attainable service levels of a phase-structured model,
/// ascending, including 0 and 1.
[[nodiscard]] std::vector<double> phase_service_levels(const ArcadeModel& model);

}  // namespace arcade::core

#endif  // ARCADE_ARCADE_FAULT_TREE_HPP
