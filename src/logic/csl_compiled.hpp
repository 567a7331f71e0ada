// CSL/CSRL checking on compiled Arcade models, through the analysis engine.
//
// This is the reduction-aware entry into the checker (the raw
// check(Ctmc, ...) overloads in csl.hpp stay available for bare chains):
//
//  * under ReductionPolicy::Auto the whole recursive evaluation runs on the
//    model's shared strong-bisimulation quotient — labels are already
//    projected on the quotient chain, reward structures project through
//    QuotientCtmc::project_values, nested quantitative sub-queries solve on
//    the quotient — and the final satisfaction/value vectors lift back to
//    the states of the model's chain() (per-state CSL functionals are
//    block-constant, so the lift copies block values; see
//    ctmc/quotient.hpp).  For an individual model that chain is the lumped
//    chain, one state per orbit of interchangeable components (see
//    core::ReductionPolicy).  Formulas containing the Next operator fall
//    back to chain(): X reads jump probabilities, which intra-block rates —
//    unconstrained by ordinary lumpability — can change between bisimilar
//    states.  Lumped chains keep them exact, because no transition of the
//    individual encoding maps a state into its own orbit (each one fails or
//    repairs exactly one component).
//  * top-level steady-state queries (S bound [f], R bound [S]) reuse the
//    session's cached steady-state solve, so a property asks for exactly
//    the distribution the availability/long-run-cost measures already
//    solved — byte-identical values, one Gauss–Seidel solve per model.
//  * reward structures resolve from the model (its "cost" reward) plus any
//    caller-supplied CheckerOptions structures (given over chain()'s states;
//    projected automatically under Auto).
//
// check_series is the sweep runner's path: it evaluates one time-parametric
// quantitative query over a whole time grid with a single evolver, calling
// the *same* forward-series kernels as the measure pipeline
// (ctmc::bounded_until_series, rewards::*_reward_series) so a paper measure
// re-expressed as a formula reproduces the measure's values bit for bit.
//
// Memoisation lives in engine::AnalysisSession::check_property, keyed by
// (model fingerprint, formula fingerprint); these free functions are the
// evaluators it calls on a miss.
#ifndef ARCADE_LOGIC_CSL_COMPILED_HPP
#define ARCADE_LOGIC_CSL_COMPILED_HPP

#include <span>

#include "engine/session.hpp"
#include "logic/csl.hpp"

namespace arcade::logic {

/// Model-checks `formula` on a compiled model through `session`
/// (quotient-aware under ReductionPolicy::Auto; see the header comment).
/// Satisfaction/value vectors in the result are full-state-space sized.
[[nodiscard]] CheckResult check(engine::AnalysisSession& session,
                                const engine::AnalysisSession::CompiledPtr& model,
                                const StateFormula& formula,
                                const CheckerOptions& options = {});

/// Convenience: parse then check.
[[nodiscard]] CheckResult check(engine::AnalysisSession& session,
                                const engine::AnalysisSession::CompiledPtr& model,
                                const std::string& formula,
                                const CheckerOptions& options = {});

/// Evaluates a time-parametric quantitative query over an ascending time
/// grid: the formula's own (nominal) time bound is replaced by each grid
/// point, all points advanced by one shared evolver.  The top level must be
/// P=? [ phi U<=t psi ], R=? [ I=t ], R=? [ C<=t ], or a Negation of one of
/// these (the parser's G<=t desugaring; values complement to 1 - p) —
/// anything else throws InvalidArgument.  `initial` is the full-chain
/// initial distribution the query starts from (a disaster distribution for
/// the paper's GOOD-model measures); it is projected onto the quotient
/// under ReductionPolicy::Auto.
[[nodiscard]] std::vector<double> check_series(
    engine::AnalysisSession& session, const engine::AnalysisSession::CompiledPtr& model,
    const StateFormula& formula, std::span<const double> times,
    std::span<const double> initial, const CheckerOptions& options = {});

}  // namespace arcade::logic

#endif  // ARCADE_LOGIC_CSL_COMPILED_HPP
