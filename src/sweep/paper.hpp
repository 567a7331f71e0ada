// The DSN 2010 paper's figures and tables as named ScenarioGrids.
//
// Every artefact of the paper's evaluation is one declarative spec here
// plus a render function; examples/paper_artefacts.cpp runs each spec
// through one SweepRunner and renders them all.  The golden tests assert
// that each rendered artefact is byte-identical to the hand-rolled measure
// loops the per-figure mains carried before the migration, so the sweep
// layer provably subsumes them.
//
//   fig3     reliability over time, both lines (repairs stripped)
//   fig4/5   survivability, Line 1, Disaster 1, recovery to X1 / X2
//   fig6/7   instantaneous / accumulated cost, Line 1, Disaster 1
//   fig8/9   survivability, Line 2, Disaster 2, recovery to X1 / X3
//   fig10/11 instantaneous / accumulated cost, Line 2, Disaster 2
//   table1   state-space sizes (individual + lumped encodings)
//   table2   steady-state availability per strategy
//   everything  the whole evaluation in a single grid (examples/arcade_sweep)
#ifndef ARCADE_SWEEP_PAPER_HPP
#define ARCADE_SWEEP_PAPER_HPP

#include <iosfwd>

#include "sweep/runner.hpp"

namespace arcade::sweep::paper {

[[nodiscard]] ScenarioGrid fig3();
[[nodiscard]] ScenarioGrid fig4();
[[nodiscard]] ScenarioGrid fig5();
[[nodiscard]] ScenarioGrid fig6();
[[nodiscard]] ScenarioGrid fig7();
[[nodiscard]] ScenarioGrid fig8();
[[nodiscard]] ScenarioGrid fig9();
[[nodiscard]] ScenarioGrid fig10();
[[nodiscard]] ScenarioGrid fig11();
[[nodiscard]] ScenarioGrid table1();
[[nodiscard]] ScenarioGrid table2();

/// The whole paper evaluation in one grid: both lines × all five strategies
/// × (availability + the six figure measures with their time grids).
/// Disaster-2 measures prune themselves off Line 1.
[[nodiscard]] ScenarioGrid everything();

/// everything()'s measures re-expressed as CSL/CSRL properties
/// (watertree::properties) — the same lines, strategies, disasters and time
/// grids, every cell a MeasureKind::Property checked through the engine
/// path.  Cell for cell, the report's values are bit-identical to
/// everything()'s under the same ReductionPolicy (pinned by
/// test_property_sweep).
[[nodiscard]] ScenarioGrid properties();

/// First result of `report` matching the given cell coordinates, or nullptr.
/// An empty `variant` matches any variant name; `parameter_index` selects
/// the grid's parameter set (0 = the baseline, which is the only set in
/// every paper grid — multi-set reports like the MTTR study pass the rest).
[[nodiscard]] const ScenarioResult* find(const SweepReport& report, int line,
                                         const std::string& strategy, MeasureKind kind,
                                         DisasterKind disaster = DisasterKind::None,
                                         double service_level = 1.0,
                                         const std::string& variant = {},
                                         std::size_t parameter_index = 0);

/// First property-measure result of `report` matching the cell coordinates
/// and the exact formula text, or nullptr (two property cells of one grid
/// differ only by their formula).
[[nodiscard]] const ScenarioResult* find_property(const SweepReport& report, int line,
                                                  const std::string& strategy,
                                                  const std::string& formula);

/// find(), but a missing cell throws InvalidArgument naming the coordinates
/// (the renderers' contract: a report of the wrong grid fails loudly).
[[nodiscard]] const ScenarioResult& find_or_throw(
    const SweepReport& report, int line, const std::string& strategy, MeasureKind kind,
    DisasterKind disaster = DisasterKind::None, double service_level = 1.0,
    const std::string& variant = {}, std::size_t parameter_index = 0);

/// The paper's five strategy names in Table 1 order (the watertree layer's
/// paper_strategies(), as the strings a ScenarioGrid takes).
[[nodiscard]] std::vector<std::string> strategy_names();

// Renderers: turn the report of the matching grid into the exact artefact
// (figure block or table, including its preamble) the pre-migration harness
// printed.  They expect a report of the same-named grid and throw
// InvalidArgument when a cell is missing.
void render_fig3(const SweepReport& report, std::ostream& os);
void render_fig4(const SweepReport& report, std::ostream& os);
void render_fig5(const SweepReport& report, std::ostream& os);
void render_fig6(const SweepReport& report, std::ostream& os);
void render_fig7(const SweepReport& report, std::ostream& os);
void render_fig8(const SweepReport& report, std::ostream& os);
void render_fig9(const SweepReport& report, std::ostream& os);
void render_fig10(const SweepReport& report, std::ostream& os);
void render_fig11(const SweepReport& report, std::ostream& os);
void render_table1(const SweepReport& report, std::ostream& os);
void render_table2(const SweepReport& report, std::ostream& os);

/// Renders the properties() report: the Table 2 availability column from the
/// S=? property and the Figure 8 survivability grid from its U<=t property,
/// each curve/cell labelled by its formula.
void render_properties(const SweepReport& report, const ScenarioGrid& grid,
                       std::ostream& os);

}  // namespace arcade::sweep::paper

#endif  // ARCADE_SWEEP_PAPER_HPP
