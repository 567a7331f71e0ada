// Strongly-connected-component analysis of the CTMC transition graph.
// Needed for the steady state of reducible chains (BSCC detection).  The
// reachability closures of steady state and unbounded until are computed
// where they are used (reachability_over in ctmc/steady_state.cpp).
#ifndef ARCADE_GRAPH_SCC_HPP
#define ARCADE_GRAPH_SCC_HPP

#include <cstddef>
#include <vector>

#include "linalg/csr_matrix.hpp"

namespace arcade::graph {

/// Result of an SCC decomposition.
struct SccDecomposition {
    /// component[v] = SCC index of vertex v.  SCC indices are in reverse
    /// topological order of the condensation (successors have lower index).
    std::vector<std::size_t> component;
    std::size_t count = 0;
    /// bottom[c] = true iff SCC c has no edge leaving it.
    std::vector<bool> bottom;
};

/// Tarjan's algorithm (iterative) on the sparsity pattern of `adjacency`.
/// Zero-valued stored entries are treated as edges; callers should not store
/// structural zeros if that is not wanted.  Self-loops are permitted.
[[nodiscard]] SccDecomposition strongly_connected_components(
    const linalg::CsrMatrix& adjacency);

}  // namespace arcade::graph

#endif  // ARCADE_GRAPH_SCC_HPP
