// The paper's full case study in one run: builds both process lines, prints
// the state spaces, availabilities (Table 1/2), the service intervals, and
// a compact survivability/cost summary for both disasters.
#include <cstdio>
#include <iostream>

#include "arcade/compiler.hpp"
#include "engine/session.hpp"
#include "arcade/measures.hpp"
#include "support/series.hpp"
#include "watertree/watertree.hpp"

namespace core = arcade::core;
namespace wt = arcade::watertree;

int main() {
    auto& session = arcade::engine::AnalysisSession::global();
    std::cout << "Water-treatment facility (DSN 2010 case study)\n";
    std::cout << "==============================================\n\n";

    core::CompileOptions lumped;
    lumped.encoding = core::Encoding::Lumped;

    arcade::Table summary(
        {"Strategy", "L1 states", "L2 states", "Avail L1", "Avail L2", "Combined"});
    char buf[64];
    for (const auto& strat : wt::paper_strategies()) {
        const auto l1 = session.compile(wt::line1(strat));
        const auto l2 = session.compile(wt::line2(strat));
        const double a1 = core::availability(session, session.compile(wt::line1(strat), lumped));
        const double a2 = core::availability(session, session.compile(wt::line2(strat), lumped));
        std::vector<std::string> cells{strat.name, std::to_string(l1->state_count()),
                                       std::to_string(l2->state_count())};
        std::snprintf(buf, sizeof buf, "%.7f", a1);
        cells.emplace_back(buf);
        std::snprintf(buf, sizeof buf, "%.7f", a2);
        cells.emplace_back(buf);
        std::snprintf(buf, sizeof buf, "%.7f", core::combined_availability(a1, a2));
        cells.emplace_back(buf);
        summary.add_row(std::move(cells));
    }
    summary.print(std::cout);

    std::cout << "\nService intervals (lower bounds):\n";
    for (const auto* line : {"line1", "line2"}) {
        const auto model = std::string(line) == "line1"
                               ? wt::line1(wt::paper_strategies()[0])
                               : wt::line2(wt::paper_strategies()[0]);
        std::cout << "  " << line << ": ";
        for (double x : wt::service_interval_bounds(model)) std::cout << x << " ";
        std::cout << "\n";
    }

    std::cout << "\nDisaster recovery (P within t, and accumulated cost):\n";
    const auto frf2_l1 = session.compile(wt::line1(wt::paper_strategies()[2]), lumped);
    const auto d1 = wt::disaster1(frf2_l1->model());
    std::cout << "  line 1, disaster 1 (all pumps), FRF-2:\n";
    std::cout << "    P(service>=1/3 within 1h)  = "
              << core::survivability(*frf2_l1, d1, 1.0 / 3.0, 1.0) << "\n";
    std::cout << "    P(full service within 4.5h) = "
              << core::survivability(*frf2_l1, d1, 1.0, 4.5) << "\n";
    const std::vector<double> ten_hours{0.0, 10.0};
    std::cout << "    E[cost over 10h]            = "
              << core::accumulated_cost_series(*frf2_l1, d1, ten_hours).back() << "\n";

    const auto frf2_l2 = session.compile(wt::line2(wt::paper_strategies()[2]), lumped);
    const auto d2 = wt::disaster2();
    std::cout << "  line 2, disaster 2 (2 pumps + softener + filter + reservoir), FRF-2:\n";
    std::cout << "    P(service>=1/3 within 20h)  = "
              << core::survivability(*frf2_l2, d2, 1.0 / 3.0, 20.0) << "\n";
    std::cout << "    P(service>=2/3 within 100h) = "
              << core::survivability(*frf2_l2, d2, 2.0 / 3.0, 100.0) << "\n";
    const std::vector<double> fifty_hours{0.0, 50.0};
    std::cout << "    E[cost over 50h]            = "
              << core::accumulated_cost_series(*frf2_l2, d2, fifty_hours).back() << "\n";

    const auto stats = session.stats();
    std::cout << "\nsession cache: " << stats.compile_misses << " compiles, "
              << stats.compile_hits << " hits\n";
    std::cout << "\nPaper conclusion check: FRF-2 combines near-dedicated availability\n"
                 "with two crews instead of one crew per component.\n";
    return 0;
}
