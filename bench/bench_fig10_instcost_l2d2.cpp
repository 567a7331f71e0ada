// Reproduces Figure 10: instantaneous cost of Line 2 after Disaster 2 for
// FFF-1 / FFF-2 / FRF-1 / FRF-2 over [0, 50] h.  Paper shape: all start at
// 15 (five failed components x 3/h); FFF-1 converges slowest (repeated pump
// failures during the long sand-filter repair re-inflate the cost).
//
// Migrated onto the sweep layer: the figure is the declarative
// sweep::paper::fig10() grid evaluated by the sweep runner — the
// result rows are identical to the hand-rolled strategy loop this harness
// used to carry (asserted by test_sweep_golden).
#include <iostream>

#include "bench_common.hpp"
#include "sweep/sweep.hpp"

namespace sweep = arcade::sweep;

int main() {
    bench::Stopwatch watch;
    sweep::SweepRunner runner(bench::session());
    const auto report = runner.run(sweep::paper::fig10());

    sweep::paper::render_fig10(report, std::cout);
    bench::print_session_stats(std::cout);
    std::cout << "# sweep: " << report.results.size() << " scenarios, cache hit rate "
              << report.cache_hit_rate() << ", " << report.states_per_second()
              << " states/sec\n";
    std::cout << "# elapsed: " << watch.seconds() << " s\n";
    return 0;
}
