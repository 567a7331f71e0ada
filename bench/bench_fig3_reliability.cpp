// Reproduces Figure 3: reliability over time for both lines (no repairs;
// S_down = line not fully operational, one pump failure tolerated).
// Paper shape: both curves decay to ~0 by 1000 h; Line 2 is MORE reliable
// than Line 1 despite less redundancy (fewer pumps exposed to failure).
//
// Migrated onto the sweep layer: the figure is the declarative
// sweep::paper::fig3() grid evaluated by the sweep runner — the
// result rows are identical to the hand-rolled per-line loop this harness
// used to carry (asserted by test_sweep_golden).
#include <iostream>

#include "bench_common.hpp"
#include "sweep/sweep.hpp"

namespace sweep = arcade::sweep;

int main() {
    bench::Stopwatch watch;
    sweep::SweepRunner runner(bench::session());
    const auto report = runner.run(sweep::paper::fig3());

    sweep::paper::render_fig3(report, std::cout);
    std::cout << "# paper check: line 2 must dominate line 1 for all t > 0\n";
    bench::print_session_stats(std::cout);
    std::cout << "# sweep: " << report.results.size() << " scenarios, cache hit rate "
              << report.cache_hit_rate() << ", " << report.states_per_second()
              << " states/sec\n";
    std::cout << "# elapsed: " << watch.seconds() << " s\n";
    return 0;
}
