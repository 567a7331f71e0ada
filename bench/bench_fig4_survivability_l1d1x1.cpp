// Reproduces Figure 4: survivability of Line 1 after Disaster 1 (all four
// pumps fail), recovery to service interval X1 (service >= 1/3), for
// DED / FRF-1 / FRF-2.  Paper shape: DED fastest, FRF-2 faster than FRF-1,
// all reach ~1 by 4.5 h.
//
// Migrated onto the sweep layer: the figure is the declarative
// sweep::paper::fig4() grid evaluated by the sweep runner — the
// result rows are identical to the hand-rolled strategy loop this harness
// used to carry (asserted by test_sweep_golden).
#include <iostream>

#include "bench_common.hpp"
#include "sweep/sweep.hpp"

namespace sweep = arcade::sweep;

int main() {
    bench::Stopwatch watch;
    sweep::SweepRunner runner(bench::session());
    const auto report = runner.run(sweep::paper::fig4());

    sweep::paper::render_fig4(report, std::cout);
    bench::print_session_stats(std::cout);
    std::cout << "# sweep: " << report.results.size() << " scenarios, cache hit rate "
              << report.cache_hit_rate() << ", " << report.states_per_second()
              << " states/sec\n";
    std::cout << "# elapsed: " << watch.seconds() << " s\n";
    return 0;
}
