// CSL/CSRL checking on compiled Arcade models, through the analysis engine.
//
// This is the entry into the checker for compiled models (the raw
// check(Ctmc, ...) overloads in csl.hpp stay available for bare chains).
// Every evaluation runs on the model's chain(), whatever its
// ReductionPolicy: under Auto an individual model's chain() is already the
// lumped chain, one state per orbit of interchangeable components (see
// core::ReductionPolicy), so per-state results index those states.  Every
// operator, Next included, gives there what it gives on the full chain: the
// lumping is exact, and no transition of the individual encoding maps a
// state into its own orbit (each one fails or repairs exactly one
// component), so jump probabilities between orbits are kept too.
//
//  * top-level steady-state queries (S bound [f], R bound [S]) reuse the
//    session's cached steady-state solve, so a property asks for exactly
//    the distribution the availability/long-run-cost measures already
//    solved — byte-identical values, one Gauss–Seidel solve per model.
//  * reward structures resolve from the model (its "cost" reward) plus any
//    caller-supplied CheckerOptions structures, given over chain()'s states.
//
// check_series is the sweep runner's path: it evaluates one time-parametric
// quantitative query over a whole time grid in one uniformised power pass,
// calling the *same* forward-series kernels as the measure pipeline
// (ctmc::bounded_until_series, rewards::*_reward_series) so a paper measure
// re-expressed as a formula reproduces the measure's values bit for bit.
//
// Results are not memoised: the sweep runner calls check() once per
// property cell, and the session caches only what those checks share
// (the compiled model and its steady state).
#ifndef ARCADE_LOGIC_CSL_COMPILED_HPP
#define ARCADE_LOGIC_CSL_COMPILED_HPP

#include <span>

#include "engine/session.hpp"
#include "logic/csl.hpp"

namespace arcade::logic {

/// Model-checks `formula` on a compiled model's chain() through `session`
/// (see the header comment).  Satisfaction/value vectors in the result are
/// sized chain().state_count().
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
/// point, all points read off one power pass.  The top level must be
/// P=? [ phi U<=t psi ], R=? [ I=t ], R=? [ C<=t ], or a Negation of one of
/// these (the parser's G<=t desugaring; values complement to 1 - p) —
/// anything else throws InvalidArgument.  `initial` is the distribution
/// over chain()'s states the query starts from (a disaster distribution for
/// the paper's GOOD-model measures).
[[nodiscard]] std::vector<double> check_series(
    const engine::AnalysisSession::CompiledPtr& model, const StateFormula& formula,
    std::span<const double> times, std::span<const double> initial,
    const CheckerOptions& options = {});

}  // namespace arcade::logic

#endif  // ARCADE_LOGIC_CSL_COMPILED_HPP
