// Reproduces Figure 5: survivability of Line 1 after Disaster 1, recovery
// to service interval X2 (service >= 2/3).  Paper shape: as Figure 4 but
// slower (two pump repairs needed instead of one).
//
// Migrated onto the sweep layer: the figure is the declarative
// sweep::paper::fig5() grid evaluated by the sweep runner — the
// result rows are identical to the hand-rolled strategy loop this harness
// used to carry (asserted by test_sweep_golden).
#include <iostream>

#include "bench_common.hpp"
#include "sweep/sweep.hpp"

namespace sweep = arcade::sweep;

int main() {
    bench::Stopwatch watch;
    sweep::SweepRunner runner(bench::session());
    const auto report = runner.run(sweep::paper::fig5());

    sweep::paper::render_fig5(report, std::cout);
    bench::print_session_stats(std::cout);
    std::cout << "# sweep: " << report.results.size() << " scenarios, cache hit rate "
              << report.cache_hit_rate() << ", " << report.states_per_second()
              << " states/sec\n";
    std::cout << "# elapsed: " << watch.seconds() << " s\n";
    return 0;
}
