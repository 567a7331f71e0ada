// CSL / CSRL formulas and their model checker over labelled CTMCs.
//
// Supported grammar (PRISM-flavoured):
//   state formula  ::= true | false | "label" | !f | f & f | f | f
//                    | P bound [ path ] | S bound [ f ] | R{"name"} bound [ rprop ]
//   bound          ::= =? | <p | <=p | >p | >=p
//   path           ::= X f | f U f | f U<=t f | F f | F<=t f | G<=t f
//   rprop          ::= I=t | C<=t | S
//
// Quantitative queries (=?) are evaluated against the chain's initial
// distribution; boolean bounds compare that value.  Nested P/S/R operators
// are supported by evaluating the inner query per state (satisfaction sets).
#ifndef ARCADE_LOGIC_CSL_HPP
#define ARCADE_LOGIC_CSL_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "rewards/rewards.hpp"

namespace arcade::logic {

enum class Comparison { Query, Lt, Le, Gt, Ge };

struct Bound {
    Comparison comparison = Comparison::Query;
    double threshold = 0.0;
};

class StateFormula;
using StateFormulaPtr = std::shared_ptr<const StateFormula>;

/// Path formulas for the P operator.
struct NextPath {
    StateFormulaPtr operand;
};
struct UntilPath {
    StateFormulaPtr lhs;
    StateFormulaPtr rhs;
    std::optional<double> time_bound;  ///< nullopt = unbounded
};
using PathFormula = std::variant<NextPath, UntilPath>;

/// Reward properties for the R operator.
struct InstantaneousReward {
    double time = 0.0;
};
struct CumulativeReward {
    double time = 0.0;
};
struct SteadyStateReward {};
using RewardProperty =
    std::variant<InstantaneousReward, CumulativeReward, SteadyStateReward>;

/// State formula node.
struct BoolLiteral {
    bool value = true;
};
struct Label {
    std::string name;
};
struct Negation {
    StateFormulaPtr operand;
};
struct Conjunction {
    StateFormulaPtr lhs;
    StateFormulaPtr rhs;
};
struct Disjunction {
    StateFormulaPtr lhs;
    StateFormulaPtr rhs;
};
struct Probabilistic {
    Bound bound;
    PathFormula path;
};
struct SteadyState {
    Bound bound;
    StateFormulaPtr operand;
};
struct Reward {
    std::string structure;  ///< reward structure name; empty = the only one
    Bound bound;
    RewardProperty property;
};

class StateFormula {
public:
    using Node = std::variant<BoolLiteral, Label, Negation, Conjunction, Disjunction,
                              Probabilistic, SteadyState, Reward>;

    explicit StateFormula(Node node) : node_(std::move(node)) {}
    [[nodiscard]] const Node& node() const noexcept { return node_; }

private:
    Node node_;
};

/// Result of checking a formula: quantitative queries yield `value`,
/// boolean formulas yield `holds` (w.r.t. the initial distribution:
/// a boolean state formula holds iff it holds with probability 1 under the
/// initial distribution).
struct CheckResult {
    std::optional<double> value;
    std::optional<bool> holds;
    std::vector<bool> satisfaction;  ///< per-state satisfaction (boolean formulas)
    std::vector<double> values;      ///< per-state values (quantitative formulas)
};

struct CheckerOptions {
    double epsilon = 1e-12;
    std::map<std::string, rewards::RewardStructure> reward_structures;
};

/// Registry type the checker resolves R{"name"} structures from.  The
/// evaluation context carries one of these by reference — structures are
/// never copied or re-looked-up per recursion level.
using RewardRegistry = std::map<std::string, rewards::RewardStructure>;

/// Validates checker options and the formula's numeric literals before any
/// solver runs: epsilon must lie in (0, 1); P/S thresholds must be finite
/// probabilities in [0, 1]; R thresholds, U/F/G time bounds and reward times
/// must be finite and non-negative.  Malformed values throw InvalidArgument
/// (the library-wide taxonomy for caller mistakes) — never ModelError, which
/// is reserved for chains structurally unsuited to a query.
void validate(const CheckerOptions& options);
void validate(const StateFormula& formula);

/// Canonical textual form of a formula, re-parsable by parse_csl: binary
/// operators fully parenthesised, numbers printed round-trip exact (%.17g).
/// parse → print → parse is the identity on the AST (G re-parses via its
/// Until desugaring), which the round-trip tests pin for every formula in
/// watertree::properties.
[[nodiscard]] std::string to_string(const StateFormula& formula);

/// Structural fingerprint of a formula (FNV-1a over the canonical printed
/// form).  `seed` selects an independent hash stream, mirroring
/// engine::fingerprint: property caches store a second-stream check value
/// and verify it on every hit.
[[nodiscard]] std::uint64_t fingerprint(const StateFormula& formula,
                                        std::uint64_t seed = 0);

/// Parses the textual CSL/CSRL syntax, e.g.
///   P=? [ true U<=100 "down" ]
///   S=? [ "operational" ]
///   R{"cost"}=? [ C<=10 ]
///   P>=0.99 [ F<=24 "recovered" ]
[[nodiscard]] StateFormulaPtr parse_csl(const std::string& text);

/// Model-checks `formula` on `chain`.
[[nodiscard]] CheckResult check(const ctmc::Ctmc& chain, const StateFormula& formula,
                                const CheckerOptions& options = {});

/// Convenience: parse then check.
[[nodiscard]] CheckResult check(const ctmc::Ctmc& chain, const std::string& formula,
                                const CheckerOptions& options = {});

}  // namespace arcade::logic

#endif  // ARCADE_LOGIC_CSL_HPP
