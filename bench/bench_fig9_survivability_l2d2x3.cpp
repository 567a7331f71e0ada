// Reproduces Figure 9: survivability of Line 2 after Disaster 2, recovery
// to X3 (service >= 2/3).  Paper shape: the ordering flips versus X1 —
// FFF beats FRF because the sand filter (repaired earlier under FFF)
// becomes the bottleneck for X3; curves saturate well below 1 within 100 h
// (the 100 h sand-filter repair dominates).
//
// Migrated onto the sweep layer: the figure is the declarative
// sweep::paper::fig9() grid evaluated by the sweep runner — the
// result rows are identical to the hand-rolled strategy loop this harness
// used to carry (asserted by test_sweep_golden).
#include <iostream>

#include "bench_common.hpp"
#include "sweep/sweep.hpp"

namespace sweep = arcade::sweep;

int main() {
    bench::Stopwatch watch;
    sweep::SweepRunner runner(bench::session());
    const auto report = runner.run(sweep::paper::fig9());

    sweep::paper::render_fig9(report, std::cout);
    std::cout << "# paper check: FFF-2 above FRF-2 here (sand filter first)\n";
    bench::print_session_stats(std::cout);
    std::cout << "# sweep: " << report.results.size() << " scenarios, cache hit rate "
              << report.cache_hit_rate() << ", " << report.states_per_second()
              << " states/sec\n";
    std::cout << "# elapsed: " << watch.seconds() << " s\n";
    return 0;
}
