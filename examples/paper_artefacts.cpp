// The paper's whole evaluation in one run: Tables 1 and 2, Figures 3–11 and
// the two beyond-the-paper ablations (encodings, scheduling), each rendered
// from its declarative grid (sweep::paper / sweep::studies) through one
// SweepRunner over one AnalysisSession, then one summary line:
//
//   ./example_paper_artefacts
//
// Sections are separated by a blank line.  Every section's rows are pinned
// byte for byte by test_sweep_golden; README's artefact table maps each
// figure and table to its grid.
#include <chrono>
#include <cstddef>
#include <iostream>

#include "engine/session.hpp"
#include "sweep/sweep.hpp"

namespace sweep = arcade::sweep;

namespace {

/// Runs one artefact's grid(s), renders it, and returns its scenario count.
using RenderFn = std::size_t (*)(sweep::SweepRunner&, std::ostream&);

template <sweep::ScenarioGrid (*Grid)(),
          void (*Render)(const sweep::SweepReport&, std::ostream&)>
std::size_t one_grid(sweep::SweepRunner& runner, std::ostream& os) {
    const auto report = runner.run(Grid());
    Render(report, os);
    return report.results.size();
}

/// The scheduling ablation's footnote reads a second, one-cell grid.
std::size_t ablation_preemption(sweep::SweepRunner& runner, std::ostream& os) {
    const auto report = runner.run(sweep::studies::ablation_preemption());
    const auto sizes = runner.run(sweep::studies::ablation_preemption_sizes());
    sweep::studies::render_ablation_preemption(report, sizes, os);
    return report.results.size() + sizes.results.size();
}

struct Artefact {
    RenderFn render;
    const char* paper_check;  ///< shape the paper shows, printed after the artefact
};

namespace paper = sweep::paper;
namespace studies = sweep::studies;

constexpr Artefact kArtefacts[] = {
    {one_grid<paper::table1, paper::render_table1>, nullptr},
    {one_grid<paper::table2, paper::render_table2>, nullptr},
    {one_grid<paper::fig3, paper::render_fig3>,
     "line 2 must dominate line 1 for all t > 0"},
    {one_grid<paper::fig4, paper::render_fig4>, nullptr},
    {one_grid<paper::fig5, paper::render_fig5>, nullptr},
    {one_grid<paper::fig6, paper::render_fig6>, nullptr},
    {one_grid<paper::fig7, paper::render_fig7>, nullptr},
    {one_grid<paper::fig8, paper::render_fig8>, "FFF-1 slowest recovery to X1; DED fastest"},
    {one_grid<paper::fig9, paper::render_fig9>,
     "FFF-2 above FRF-2 here (sand filter first)"},
    {one_grid<paper::fig10, paper::render_fig10>, nullptr},
    {one_grid<paper::fig11, paper::render_fig11>, nullptr},
    {one_grid<studies::ablation_encodings, studies::render_ablation_encodings>, nullptr},
    {ablation_preemption, nullptr},
};

}  // namespace

int main() {
    const auto start = std::chrono::steady_clock::now();
    arcade::engine::AnalysisSession session;
    sweep::SweepRunner runner(session);

    std::size_t scenarios = 0;
    bool first = true;
    for (const auto& artefact : kArtefacts) {
        if (!first) std::cout << "\n";
        first = false;
        scenarios += artefact.render(runner, std::cout);
        if (artefact.paper_check != nullptr) {
            std::cout << "# paper check: " << artefact.paper_check << "\n";
        }
    }

    const auto stats = session.stats();
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    std::cout << "\n# paper artefacts: " << std::size(kArtefacts) << " artefacts, "
              << scenarios << " scenarios; session: " << stats.compile_misses
              << " compiles, " << stats.compile_hits << " cache hits; elapsed: "
              << elapsed.count() << " s\n";
    return 0;
}
