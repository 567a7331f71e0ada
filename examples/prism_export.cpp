// The paper's tool chain made explicit: Arcade model -> stochastic reactive
// modules -> (a) our explorer and (b) PRISM source text for cross-checking
// with the real PRISM model checker, plus a CSL/CSRL query session.
#include <iostream>

#include "arcade/compiler.hpp"
#include "arcade/modules_compiler.hpp"
#include "logic/csl.hpp"
#include "modules/explorer.hpp"
#include "prism/prism_writer.hpp"
#include "watertree/watertree.hpp"

namespace core = arcade::core;
namespace wt = arcade::watertree;

int main() {
    // Small instance so the PRISM text stays readable: line 2 with FRF-1.
    const auto model = wt::line2(wt::paper_strategies()[1]);

    // (1) Translate to reactive modules.
    const auto system = core::to_reactive_modules(model);
    std::cout << "reactive modules: " << system.modules.size() << " module(s), "
              << system.modules.front().commands.size() << " commands\n\n";

    // (2) Export PRISM source (feed this to the real PRISM to cross-check).
    const std::string prism_text = arcade::prism::write_prism(system);
    std::cout << "--- PRISM export (first 30 lines) ---\n";
    std::size_t lines = 0;
    for (char ch : prism_text) {
        if (lines < 30) std::cout << ch;
        if (ch == '\n' && ++lines == 30) std::cout << "...\n";
    }

    // (3) Explore with our engine and model-check CSL/CSRL formulas
    //     (exactly the queries of the paper's Section 3).
    const auto explored = arcade::modules::explore(system);
    std::cout << "\nexplored: " << explored.chain.state_count() << " states (paper: 8129)\n\n";

    arcade::logic::CheckerOptions options;
    options.reward_structures = explored.reward_structures;

    const char* queries[] = {
        "S=? [ \"operational\" ]",              // availability
        "P=? [ true U<=24 \"down\" ]",          // 24h unreliability-with-repair
        "P=? [ true U<=100 \"total_failure\" ]",
        "R{\"cost\"}=? [ S ]",                  // long-run cost rate
    };
    for (const char* q : queries) {
        const auto result = arcade::logic::check(explored.chain, q, options);
        std::cout << q << "  =  " << *result.value << "\n";
    }
    return 0;
}
