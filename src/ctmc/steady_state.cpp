#include "ctmc/steady_state.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "graph/scc.hpp"
#include "linalg/vector_ops.hpp"
#include "support/errors.hpp"

namespace arcade::ctmc {

namespace {

/// Steady state within one BSCC, solved on the submatrix.
std::vector<double> bscc_steady_state(const Ctmc& chain, const std::vector<std::size_t>& members,
                                      const numeric::SolverOptions& options) {
    const std::size_t m = members.size();
    if (m == 1) return {1.0};

    std::vector<std::size_t> global_to_local(chain.state_count(),
                                             std::numeric_limits<std::size_t>::max());
    for (std::size_t i = 0; i < m; ++i) global_to_local[members[i]] = i;

    linalg::CsrBuilder b(m, m);
    for (std::size_t i = 0; i < m; ++i) {
        const std::size_t g = members[i];
        const auto cols = chain.rates().row_columns(g);
        const auto vals = chain.rates().row_values(g);
        for (std::size_t k = 0; k < cols.size(); ++k) {
            const std::size_t lj = global_to_local[cols[k]];
            ARCADE_ASSERT(lj != std::numeric_limits<std::size_t>::max(),
                          "BSCC has an escaping transition");
            b.add(i, lj, vals[k]);
        }
    }
    const linalg::CsrMatrix sub = b.build();
    std::vector<double> pi(m, 0.0);
    numeric::steady_state_gauss_seidel(sub, pi, options);
    return pi;
}

/// Per-state scratch reused by every reachability solve of one
/// steady_state call (one solve per BSCC).
struct ReachScratch {
    std::vector<bool> maybe;
    std::vector<std::size_t> index;
};

/// reachability_probability over a precomputed incoming-edge structure
/// (linalg::incoming_off_diagonal of the chain's rates).
std::vector<double> reachability_over(const Ctmc& chain, const linalg::CsrMatrix& incoming,
                                      const std::vector<bool>& allowed,
                                      const std::vector<bool>& targets,
                                      const numeric::SolverOptions& options,
                                      ReachScratch& scratch) {
    const std::size_t n = chain.state_count();
    ARCADE_ASSERT(allowed.size() == n && targets.size() == n, "mask size mismatch");

    const linalg::CsrMatrix& rates = chain.rates();

    // Qualitative precomputation keeps the linear system non-singular:
    // solve only on states that can reach targets via allowed states.
    std::vector<bool>& maybe = scratch.maybe;
    maybe.assign(n, false);
    {
        std::vector<std::size_t> frontier;
        for (std::size_t v = 0; v < n; ++v) {
            if (targets[v]) {
                maybe[v] = true;
                frontier.push_back(v);
            }
        }
        while (!frontier.empty()) {
            const std::size_t v = frontier.back();
            frontier.pop_back();
            for (std::size_t w : incoming.row_columns(v)) {
                if (!maybe[w] && allowed[w] && !targets[w]) {
                    maybe[w] = true;
                    frontier.push_back(w);
                }
            }
        }
    }

    // Embedded DTMC restricted to unknown states: x = A x + b where
    // A[i][j] = p_ij for unknown j, b[i] = sum over target j of p_ij.
    std::vector<std::size_t> unknown;  // maybe && !target
    std::vector<std::size_t>& index = scratch.index;
    index.assign(n, std::numeric_limits<std::size_t>::max());
    for (std::size_t v = 0; v < n; ++v) {
        if (maybe[v] && !targets[v]) {
            index[v] = unknown.size();
            unknown.push_back(v);
        }
    }

    std::vector<double> result(n, 0.0);
    for (std::size_t v = 0; v < n; ++v) {
        if (targets[v]) result[v] = 1.0;
    }
    if (unknown.empty()) return result;

    linalg::CsrBuilder ab(unknown.size(), unknown.size());
    std::vector<double> b(unknown.size(), 0.0);
    for (std::size_t li = 0; li < unknown.size(); ++li) {
        const std::size_t i = unknown[li];
        const double exit = chain.exit_rate(i);
        ARCADE_ASSERT(exit > 0.0, "unknown state with no exit cannot reach target");
        const auto cols = rates.row_columns(i);
        const auto vals = rates.row_values(i);
        for (std::size_t k = 0; k < cols.size(); ++k) {
            const std::size_t j = cols[k];
            if (j == i) continue;
            const double p = vals[k] / exit;
            if (targets[j]) {
                b[li] += p;
            } else if (index[j] != std::numeric_limits<std::size_t>::max()) {
                ab.add(li, index[j], p);
            }
            // transitions to !maybe states contribute probability 0
        }
    }
    std::vector<double> x(unknown.size(), 0.0);
    numeric::fixpoint_gauss_seidel(ab.build(), b, x, options);
    for (std::size_t li = 0; li < unknown.size(); ++li) {
        result[unknown[li]] = std::clamp(x[li], 0.0, 1.0);
    }
    return result;
}

}  // namespace

std::vector<double> reachability_probability(const Ctmc& chain, const std::vector<bool>& allowed,
                                             const std::vector<bool>& targets,
                                             const numeric::SolverOptions& options) {
    ReachScratch scratch;
    return reachability_over(chain, linalg::incoming_off_diagonal(chain.rates()), allowed,
                             targets, options, scratch);
}

std::vector<double> steady_state(const Ctmc& chain, const SteadyStateOptions& options) {
    const std::size_t n = chain.state_count();
    const auto scc = graph::strongly_connected_components(chain.rates());

    // Collect BSCC membership.
    std::vector<std::vector<std::size_t>> bsccs;
    std::vector<std::size_t> scc_to_bscc(scc.count, std::numeric_limits<std::size_t>::max());
    for (std::size_t c = 0; c < scc.count; ++c) {
        if (scc.bottom[c]) {
            scc_to_bscc[c] = bsccs.size();
            bsccs.emplace_back();
        }
    }
    for (std::size_t v = 0; v < n; ++v) {
        const std::size_t c = scc.component[v];
        if (scc.bottom[c]) bsccs[scc_to_bscc[c]].push_back(v);
    }
    ARCADE_ASSERT(!bsccs.empty(), "chain without BSCC");

    std::vector<double> pi(n, 0.0);

    if (bsccs.size() == 1 && bsccs[0].size() == n) {
        // Irreducible: single global solve.
        numeric::steady_state_gauss_seidel(chain.rates(), pi, options.solver);
        return pi;
    }

    // Reachability probability of each BSCC from the initial distribution.
    // The incoming-edge structure and the masks are built once and shared
    // by every BSCC's solve.
    const auto& init = chain.initial_distribution();
    const linalg::CsrMatrix incoming = linalg::incoming_off_diagonal(chain.rates());
    ReachScratch scratch;
    const std::vector<bool> all_allowed(n, true);
    std::vector<bool> target(n, false);
    for (std::size_t bi = 0; bi < bsccs.size(); ++bi) {
        for (std::size_t v : bsccs[bi]) target[v] = true;
        const auto reach =
            reachability_over(chain, incoming, all_allowed, target, options.solver, scratch);
        for (std::size_t v : bsccs[bi]) target[v] = false;
        double mass = 0.0;
        for (std::size_t v = 0; v < n; ++v) mass += init[v] * reach[v];
        if (mass <= 0.0) continue;
        const auto local = bscc_steady_state(chain, bsccs[bi], options.solver);
        for (std::size_t i = 0; i < bsccs[bi].size(); ++i) {
            pi[bsccs[bi][i]] += mass * local[i];
        }
    }
    // Numerical guard: probabilities should already sum to ~1.
    const double total = linalg::sum(pi);
    ARCADE_ASSERT(std::abs(total - 1.0) < 1e-6,
                  "steady-state mass " + std::to_string(total) + " != 1");
    for (double& p : pi) p /= total;
    return pi;
}

double steady_state_probability(const Ctmc& chain, const std::vector<bool>& states,
                                const SteadyStateOptions& options) {
    ARCADE_ASSERT(states.size() == chain.state_count(), "mask size mismatch");
    const auto pi = steady_state(chain, options);
    double p = 0.0;
    for (std::size_t s = 0; s < pi.size(); ++s) {
        if (states[s]) p += pi[s];
    }
    return p;
}

}  // namespace arcade::ctmc
