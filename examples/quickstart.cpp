// Quickstart: model a small redundant system with the Arcade API, compile it
// to a CTMC and compute the paper's measures.
//
//   ./example_quickstart
//
// System: two parallel servers (either suffices for some service, both for
// full service) behind a single power feed, repaired by one FRF crew.
#include <iostream>

#include "arcade/compiler.hpp"
#include "engine/session.hpp"
#include "arcade/measures.hpp"
#include "arcade/types.hpp"

namespace core = arcade::core;

int main() {
    // 1. Describe the architecture.
    core::ModelBuilder builder("quickstart");
    builder.add_redundant_phase("server", 2, /*mttf=*/1000.0, /*mttr=*/8.0);
    builder.add_redundant_phase("power", 1, /*mttf=*/5000.0, /*mttr=*/2.0);
    builder.with_repair(core::RepairPolicy::FastestRepairFirst, /*crews=*/1);
    const core::ArcadeModel model = builder.build();

    // 2. Compile to a CTMC.
    const core::CompiledModel compiled = core::compile(model);
    std::cout << "state space: " << compiled.state_count() << " states, "
              << compiled.transition_count() << " transitions\n";

    // 3. Availability (long-run probability of full service).
    std::cout << "availability: " << core::availability(compiled) << "\n";

    // 4. Reliability at 100 h (no repairs).
    const auto unrepaired = core::compile(core::without_repair(model));
    const std::vector<double> times{0.0, 100.0};
    std::cout << "reliability(100h): "
              << core::reliability_series(unrepaired, times).back() << "\n";

    // 5. Survivability: both servers down at t=0, recover half service
    //    (one server) within 12 hours?
    core::Disaster disaster;
    disaster.name = "both-servers-down";
    disaster.failed_per_phase = {2, 0};
    std::cout << "P(recover >=1/2 service within 12h | disaster): "
              << core::survivability(compiled, disaster, 0.5, 12.0) << "\n";

    // 6. Expected repair cost accumulated over the first 24 h after the
    //    disaster (3/h per failed component + 1/h per idle crew).
    const std::vector<double> day{0.0, 24.0};
    std::cout << "E[cost over 24h | disaster]: "
              << core::accumulated_cost_series(compiled, disaster, day).back() << "\n";

    // 7. The same model through an AnalysisSession: the second compile is a
    //    cache hit returning the identical instance.
    arcade::engine::AnalysisSession session;
    const auto first = session.compile(model);
    const auto second = session.compile(model);
    std::cout << "session cache hit: " << (first.get() == second.get() ? "yes" : "no")
              << " (availability " << core::availability(session, second) << ")\n";
    return 0;
}
