// Compare repair strategies on a user-defined system — the paper's workflow
// applied to a different architecture (a small data centre), showing that
// the library is not hard-wired to the water-treatment model.
//
// Architecture: 2 web servers (both needed for full capacity), 3 disks
// (2+1 hot spare), 1 network switch.
#include <cstdio>
#include <iostream>

#include "arcade/compiler.hpp"
#include "arcade/measures.hpp"
#include "engine/session.hpp"
#include "support/series.hpp"

namespace core = arcade::core;

namespace {

core::ArcadeModel data_centre(core::RepairPolicy policy, std::size_t crews) {
    core::ModelBuilder builder("datacentre");
    builder.add_redundant_phase("web", 2, /*mttf=*/800.0, /*mttr=*/4.0);
    builder.add_spare_phase("disk", /*total=*/3, /*required=*/2, /*mttf=*/1200.0,
                            /*mttr=*/24.0);
    builder.add_redundant_phase("switch", 1, /*mttf=*/4000.0, /*mttr=*/2.0);
    builder.with_repair(policy, crews);
    return builder.build();
}

}  // namespace

int main() {
    std::cout << "Repair-strategy comparison on a small data centre\n\n";
    auto& session = arcade::engine::AnalysisSession::global();

    struct Candidate {
        const char* name;
        core::RepairPolicy policy;
        std::size_t crews;
    };
    const Candidate candidates[] = {
        {"DED", core::RepairPolicy::Dedicated, 1},
        {"FCFS-1", core::RepairPolicy::FirstComeFirstServe, 1},
        {"FRF-1", core::RepairPolicy::FastestRepairFirst, 1},
        {"FRF-2", core::RepairPolicy::FastestRepairFirst, 2},
        {"FFF-1", core::RepairPolicy::FastestFailureFirst, 1},
        {"FFF-2", core::RepairPolicy::FastestFailureFirst, 2},
    };

    // Disaster: both web servers and one disk down.
    core::Disaster disaster;
    disaster.name = "web-outage";
    disaster.failed_per_phase = {2, 1, 0};

    arcade::Table table({"Strategy", "States", "Availability", "P(full svc in 12h)",
                         "E[cost 24h]", "SS cost/h"});
    char buf[64];
    for (const auto& c : candidates) {
        const auto compiled = session.compile(data_centre(c.policy, c.crews));
        std::vector<std::string> cells{c.name, std::to_string(compiled->state_count())};
        std::snprintf(buf, sizeof buf, "%.6f", core::availability(session, compiled));
        cells.emplace_back(buf);
        std::snprintf(buf, sizeof buf, "%.4f",
                      core::survivability(*compiled, disaster, 1.0, 12.0));
        cells.emplace_back(buf);
        const std::vector<double> day{0.0, 24.0};
        std::snprintf(buf, sizeof buf, "%.2f",
                      core::accumulated_cost_series(*compiled, disaster, day).back());
        cells.emplace_back(buf);
        std::snprintf(buf, sizeof buf, "%.3f", core::steady_state_cost(session, compiled));
        cells.emplace_back(buf);
        table.add_row(std::move(cells));
    }
    table.print(std::cout);

    std::cout << "\nReading the table: DED buys the fastest recovery at the highest\n"
                 "steady-state cost (idle crews); FRF-2 is the sweet spot, exactly\n"
                 "as the paper concludes for the water-treatment facility.\n";
    return 0;
}
