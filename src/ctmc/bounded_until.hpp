// Time-bounded until for CTMCs — the workhorse behind the paper's
// reliability (P[true U<=t down]) and survivability (P[true U<=t service])
// measures.
//
// P[Phi U<=t Psi] is computed on a transformed chain where Psi-states and
// (!Phi && !Psi)-states are made absorbing; the answer is the transient
// probability mass in Psi at time t (Baier et al., "Model-Checking
// Algorithms for Continuous-Time Markov Chains", IEEE TSE 2003).
#ifndef ARCADE_CTMC_BOUNDED_UNTIL_HPP
#define ARCADE_CTMC_BOUNDED_UNTIL_HPP

#include <span>
#include <vector>

#include "ctmc/ctmc.hpp"
#include "ctmc/transient.hpp"

namespace arcade::ctmc {

/// The transformed chain the until measures evolve: states in Psi or in
/// neither Phi nor Psi are made absorbing.  The measures below never build
/// it — they uniformise the original chain with those states masked
/// absorbing, which gives the same P bit for bit.  Exposed as the reference
/// the masked uniformisation is tested against.
[[nodiscard]] Ctmc until_transform(const Ctmc& chain, const std::vector<bool>& phi,
                                   const std::vector<bool>& psi);

/// Probability mass of `dist` inside `set`, summed in ascending state
/// order.  bounded_until_series sums over a list of Psi's members instead,
/// which performs the same additions in the same order; this is the
/// reference it is tested against.
[[nodiscard]] double mass_in(std::span<const double> dist, const std::vector<bool>& set);

/// P[Phi U<=t Psi] for every state as initial state... is expensive;
/// this API computes it for one initial distribution, which is what the
/// paper's measures need (GOOD models fix the disaster state).  It is the
/// one-point bounded_until_series, so it equals that series' value at `t`
/// bit for bit.
[[nodiscard]] double bounded_until_probability(const Ctmc& chain,
                                               std::span<const double> initial,
                                               const std::vector<bool>& phi,
                                               const std::vector<bool>& psi, double t,
                                               const TransientOptions& options = {});

/// The same probability on a non-decreasing time grid: one
/// functional_series pass of the mass in psi over the uniformised chain with
/// the until-absorbing states masked.
[[nodiscard]] std::vector<double> bounded_until_series(const Ctmc& chain,
                                                       std::span<const double> initial,
                                                       const std::vector<bool>& phi,
                                                       const std::vector<bool>& psi,
                                                       std::span<const double> times,
                                                       const TransientOptions& options = {});

/// Per-state vector of P[Phi U<=t Psi] (computed via the backward
/// (column-vector) recurrence, one uniformisation pass for all states).
[[nodiscard]] std::vector<double> bounded_until_all_states(
    const Ctmc& chain, const std::vector<bool>& phi, const std::vector<bool>& psi, double t,
    const TransientOptions& options = {});

}  // namespace arcade::ctmc

#endif  // ARCADE_CTMC_BOUNDED_UNTIL_HPP
