// Reproduces Figure 7: accumulated cost of Line 1 after Disaster 1 for
// DED / FRF-1 / FRF-2 over [0, 10] h.  Paper shape: DED highest
// (~115 at 10 h, slope -> 11/h); FRF-2 slightly below FRF-1 during recovery.
//
// Migrated onto the sweep layer: the figure is the declarative
// sweep::paper::fig7() grid evaluated by the sweep runner — the
// result rows are identical to the hand-rolled strategy loop this harness
// used to carry (asserted by test_sweep_golden).
#include <iostream>

#include "bench_common.hpp"
#include "sweep/sweep.hpp"

namespace sweep = arcade::sweep;

int main() {
    bench::Stopwatch watch;
    sweep::SweepRunner runner(bench::session());
    const auto report = runner.run(sweep::paper::fig7());

    sweep::paper::render_fig7(report, std::cout);
    bench::print_session_stats(std::cout);
    std::cout << "# sweep: " << report.results.size() << " scenarios, cache hit rate "
              << report.cache_hit_rate() << ", " << report.states_per_second()
              << " states/sec\n";
    std::cout << "# elapsed: " << watch.seconds() << " s\n";
    return 0;
}
