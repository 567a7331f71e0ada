// Unit tests: SCC decomposition and BSCC detection.
#include <gtest/gtest.h>

#include "graph/scc.hpp"

namespace la = arcade::linalg;
namespace graph = arcade::graph;

namespace {

la::CsrMatrix make_graph(std::size_t n, const std::vector<std::pair<int, int>>& edges) {
    la::CsrBuilder b(n, n);
    for (const auto& [u, v] : edges) b.add(u, v, 1.0);
    return b.build();
}

}  // namespace

TEST(Scc, TwoCyclesAndABridge) {
    // 0 <-> 1 -> 2 <-> 3 ; SCCs {0,1}, {2,3}; only {2,3} is bottom.
    const auto g = make_graph(4, {{0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 2}});
    const auto scc = graph::strongly_connected_components(g);
    EXPECT_EQ(scc.count, 2u);
    EXPECT_EQ(scc.component[0], scc.component[1]);
    EXPECT_EQ(scc.component[2], scc.component[3]);
    EXPECT_NE(scc.component[0], scc.component[2]);
    EXPECT_FALSE(scc.bottom[scc.component[0]]);
    EXPECT_TRUE(scc.bottom[scc.component[2]]);
}

TEST(Scc, SingletonsAndSelfLoops) {
    // 0 -> 1 -> 2 (chain), 2 has a self-loop; each is its own SCC; 2 bottom.
    const auto g = make_graph(3, {{0, 1}, {1, 2}, {2, 2}});
    const auto scc = graph::strongly_connected_components(g);
    EXPECT_EQ(scc.count, 3u);
    EXPECT_TRUE(scc.bottom[scc.component[2]]);
    EXPECT_FALSE(scc.bottom[scc.component[0]]);
    EXPECT_FALSE(scc.bottom[scc.component[1]]);
}

TEST(Scc, BigCycleIsOneComponent) {
    std::vector<std::pair<int, int>> edges;
    const int n = 100;
    for (int i = 0; i < n; ++i) edges.push_back({i, (i + 1) % n});
    const auto scc = graph::strongly_connected_components(make_graph(n, edges));
    EXPECT_EQ(scc.count, 1u);
    EXPECT_TRUE(scc.bottom[0]);
}

TEST(Scc, DeepChainDoesNotOverflowTheStack) {
    // 30k-vertex path exercises the iterative Tarjan implementation.
    std::vector<std::pair<int, int>> edges;
    const int n = 30000;
    for (int i = 0; i + 1 < n; ++i) edges.push_back({i, i + 1});
    const auto scc = graph::strongly_connected_components(make_graph(n, edges));
    EXPECT_EQ(scc.count, static_cast<std::size_t>(n));
}
