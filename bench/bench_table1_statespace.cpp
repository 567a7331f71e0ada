// Reproduces Table 1: state-space sizes per repair strategy, both lines,
// using the paper's (individual) encoding, with the lumped encoding shown
// for comparison.
//
// Migrated onto the sweep layer: the table is the declarative
// sweep::paper::table1() grid — a ModelVariant axis sweeps the two
// encodings — evaluated by the sweep runner; the rendered rows are
// identical to the hand-rolled compile loop this harness used to carry
// (asserted by test_sweep_golden).
#include <iostream>

#include "bench_common.hpp"
#include "sweep/sweep.hpp"

namespace sweep = arcade::sweep;

int main() {
    bench::Stopwatch watch;
    sweep::SweepRunner runner(bench::session());
    const auto report = runner.run(sweep::paper::table1());

    sweep::paper::render_table1(report, std::cout);
    std::cout << "\n# sweep: " << report.results.size() << " scenarios over "
              << report.unique_models << " compiled models\n";
    std::cout << "elapsed: " << watch.seconds() << " s\n";
    return 0;
}
