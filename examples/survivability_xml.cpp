// End-to-end Arcade-XML workflow: write a model to XML, load it back
// (simulating a design-tool hand-off, the paper's Fig. 1 entry point),
// then run a survivability study and print a gnuplot-ready curve.
#include <iostream>

#include "arcade/compiler.hpp"
#include "arcade/measures.hpp"
#include "arcade/xml_io.hpp"
#include "engine/session.hpp"
#include "support/series.hpp"
#include "watertree/watertree.hpp"

namespace core = arcade::core;
namespace wt = arcade::watertree;

int main() {
    // A design tool would emit this file; we generate it from the case study.
    const auto original = wt::line2(wt::paper_strategies()[2]);  // FRF-2
    const std::string xml = core::model_to_xml(original);
    std::cout << "--- Arcade-XML (generated, truncated to 25 lines) ---\n";
    std::size_t lines = 0;
    for (char ch : xml) {
        if (lines < 25) std::cout << ch;
        if (ch == '\n' && ++lines == 25) std::cout << "...\n";
    }

    // Round-trip and analyse.
    const core::ArcadeModel model = core::model_from_xml(xml);
    auto& session = arcade::engine::AnalysisSession::global();
    const auto compiled = session.compile(model);
    std::cout << "\nmodel '" << model.name << "': " << compiled->state_count()
              << " states after XML round-trip\n\n";

    const auto disaster = wt::disaster2();
    const auto times = arcade::time_grid(100.0, 21);
    arcade::Figure fig("Survivability from XML-loaded model (Line 2, Disaster 2)",
                       "t in hours", "Probability");
    fig.set_times(times);
    for (double x : wt::service_interval_bounds(model)) {
        fig.add_series("service>=" + std::to_string(x).substr(0, 4),
                       core::survivability_series(*compiled, disaster, x, times));
    }
    fig.print(std::cout);
    return 0;
}
