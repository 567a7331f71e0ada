// Reproduces Figure 8: survivability of Line 2 after Disaster 2 (two pumps,
// one softener, one sand filter and the reservoir fail), recovery to X1
// (service >= 1/3), for all five strategies.  Paper shape: FFF-1 clearly
// slowest (the reservoir is repaired last under FFF); DED fastest.
//
// Migrated onto the sweep layer: the figure is the declarative
// sweep::paper::fig8() grid evaluated by the sweep runner — the
// result rows are identical to the hand-rolled strategy loop this harness
// used to carry (asserted by test_sweep_golden).
#include <iostream>

#include "bench_common.hpp"
#include "sweep/sweep.hpp"

namespace sweep = arcade::sweep;

int main() {
    bench::Stopwatch watch;
    sweep::SweepRunner runner(bench::session());
    const auto report = runner.run(sweep::paper::fig8());

    sweep::paper::render_fig8(report, std::cout);
    std::cout << "# paper check: FFF-1 slowest recovery to X1; DED fastest\n";
    bench::print_session_stats(std::cout);
    std::cout << "# sweep: " << report.results.size() << " scenarios, cache hit rate "
              << report.cache_hit_rate() << ", " << report.states_per_second()
              << " states/sec\n";
    std::cout << "# elapsed: " << watch.seconds() << " s\n";
    return 0;
}
