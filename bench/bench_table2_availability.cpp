// Reproduces Table 2: steady-state availability per repair strategy,
// per line and combined (A1 + A2 - A1*A2).
//
// Migrated onto the sweep layer: the table is the declarative
// sweep::paper::table2() grid evaluated by the sweep runner — the
// rendered rows are identical to the hand-rolled strategy loop this harness
// used to carry (asserted by test_sweep_golden).
#include <iostream>

#include "bench_common.hpp"
#include "sweep/sweep.hpp"

namespace sweep = arcade::sweep;

int main() {
    bench::Stopwatch watch;
    sweep::SweepRunner runner(bench::session());
    const auto report = runner.run(sweep::paper::table2());

    sweep::paper::render_table2(report, std::cout);
    bench::print_session_stats(std::cout);
    std::cout << "# sweep: " << report.results.size() << " scenarios, cache hit rate "
              << report.cache_hit_rate() << ", " << report.states_per_second()
              << " states/sec\n";
    std::cout << "\nelapsed: " << watch.seconds() << " s\n";
    return 0;
}
