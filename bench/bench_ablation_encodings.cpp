// Ablation A1: individual (paper) encoding vs lumped (symmetry-reduced)
// encoding — state-space sizes and measure agreement, expressed as one
// declarative sweep over the ModelVariant axis (sweep::studies).  It runs
// with reduction off, so the individual rows are full chains; under
// ReductionPolicy::Auto an individual model would be explored on the
// lumped encoding and report the full chain's sizes.  The
// rendered rows are byte-identical to the pre-migration hand-rolled loop
// (asserted by test_sweep_golden).
#include <iostream>

#include "bench_common.hpp"
#include "sweep/sweep.hpp"

namespace sweep = arcade::sweep;

int main() {
    sweep::SweepRunner runner(bench::session());
    const auto report = runner.run(sweep::studies::ablation_encodings());
    sweep::studies::render_ablation_encodings(report, std::cout);
    return 0;
}
