// Reproduces Figure 6: instantaneous cost of Line 1 after Disaster 1 for
// DED / FRF-1 / FRF-2.  Paper shape: DED starts at ~19 (12 failed-pump cost
// + 7 idle crews) and converges to 11 (all crews idle); FRF-1 converges to
// 1 and FRF-2 to 2 (their idle-crew costs); FRF-1 converges slowest.
//
// Migrated onto the sweep layer: the figure is the declarative
// sweep::paper::fig6() grid evaluated by the sweep runner — the
// result rows are identical to the hand-rolled strategy loop this harness
// used to carry (asserted by test_sweep_golden).
#include <iostream>

#include "bench_common.hpp"
#include "sweep/sweep.hpp"

namespace sweep = arcade::sweep;

int main() {
    bench::Stopwatch watch;
    sweep::SweepRunner runner(bench::session());
    const auto report = runner.run(sweep::paper::fig6());

    sweep::paper::render_fig6(report, std::cout);
    bench::print_session_stats(std::cout);
    std::cout << "# sweep: " << report.results.size() << " scenarios, cache hit rate "
              << report.cache_hit_rate() << ", " << report.states_per_second()
              << " states/sec\n";
    std::cout << "# elapsed: " << watch.seconds() << " s\n";
    return 0;
}
