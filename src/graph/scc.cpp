#include "graph/scc.hpp"

#include <algorithm>
#include <limits>

#include "support/errors.hpp"

namespace arcade::graph {

namespace {
constexpr std::size_t kUnvisited = std::numeric_limits<std::size_t>::max();
}  // namespace

SccDecomposition strongly_connected_components(const linalg::CsrMatrix& adjacency) {
    const std::size_t n = adjacency.rows();
    ARCADE_ASSERT(adjacency.cols() == n, "SCC needs a square adjacency");

    SccDecomposition out;
    out.component.assign(n, kUnvisited);

    std::vector<std::size_t> index(n, kUnvisited);
    std::vector<std::size_t> lowlink(n, 0);
    std::vector<bool> on_stack(n, false);
    std::vector<std::size_t> stack;          // Tarjan stack
    std::vector<std::size_t> call_vertex;    // manual recursion
    std::vector<std::size_t> call_edge;
    std::size_t next_index = 0;

    for (std::size_t root = 0; root < n; ++root) {
        if (index[root] != kUnvisited) continue;
        call_vertex.push_back(root);
        call_edge.push_back(0);
        while (!call_vertex.empty()) {
            const std::size_t v = call_vertex.back();
            std::size_t& ei = call_edge.back();
            if (ei == 0) {
                index[v] = lowlink[v] = next_index++;
                stack.push_back(v);
                on_stack[v] = true;
            }
            const auto cols = adjacency.row_columns(v);
            bool descended = false;
            while (ei < cols.size()) {
                const std::size_t w = cols[ei];
                ++ei;
                if (index[w] == kUnvisited) {
                    call_vertex.push_back(w);
                    call_edge.push_back(0);
                    descended = true;
                    break;
                }
                if (on_stack[w]) lowlink[v] = std::min(lowlink[v], index[w]);
            }
            if (descended) continue;
            // v finished
            if (lowlink[v] == index[v]) {
                const std::size_t comp = out.count++;
                while (true) {
                    const std::size_t w = stack.back();
                    stack.pop_back();
                    on_stack[w] = false;
                    out.component[w] = comp;
                    if (w == v) break;
                }
            }
            call_vertex.pop_back();
            call_edge.pop_back();
            if (!call_vertex.empty()) {
                const std::size_t parent = call_vertex.back();
                lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
            }
        }
    }

    out.bottom.assign(out.count, true);
    for (std::size_t v = 0; v < n; ++v) {
        for (std::size_t w : adjacency.row_columns(v)) {
            if (out.component[w] != out.component[v]) out.bottom[out.component[v]] = false;
        }
    }
    return out;
}

}  // namespace arcade::graph
