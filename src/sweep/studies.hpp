// Beyond-the-paper studies as declarative scenario grids: the encoding and
// scheduling ablations (formerly hand-rolled loops in bench/) and the MTTR
// sensitivity grid built on ScenarioGrid::parameters.
//
// Like sweep::paper, each study is a named grid plus a renderer that emits
// the exact artefact its pre-migration harness printed — test_sweep_golden
// pins the ablation outputs byte-identically against the old loop shapes.
#ifndef ARCADE_SWEEP_STUDIES_HPP
#define ARCADE_SWEEP_STUDIES_HPP

#include <iosfwd>
#include <vector>

#include "sweep/runner.hpp"

namespace arcade::sweep::studies {

/// Ablation A1: individual (paper) vs lumped encoding — both lines, all
/// five strategies, availability per encoding (state counts ride along on
/// every result).
[[nodiscard]] ScenarioGrid ablation_encodings();
void render_ablation_encodings(const SweepReport& report, std::ostream& os);

/// Ablation A2: non-preemptive (paper) vs preemptive scheduling on Line 2 —
/// the paper strategies next to their "-pre" variants, availability plus
/// survivability to full service at 10 h after Disaster 2.
[[nodiscard]] ScenarioGrid ablation_preemption();
/// Companion cell for the A2 footnote: the individual-encoding state space
/// of preemptive FRF-1 (no tracked in-repair slot).
[[nodiscard]] ScenarioGrid ablation_preemption_sizes();
void render_ablation_preemption(const SweepReport& report, const SweepReport& sizes,
                                std::ostream& os);

/// MTTR sensitivity: the paper evaluation's long-run measures with every
/// repair rate scaled by each factor (1.0 = the paper's values; the default
/// spans ±50%).  Parameter sets are named "repair-rate-<scale>x", so CSV and
/// JSON rows stay self-describing.
[[nodiscard]] ScenarioGrid mttr_sensitivity(
    const std::vector<double>& scales = {0.50, 0.75, 1.00, 1.25, 1.50});
void render_mttr_sensitivity(const SweepReport& report, const ScenarioGrid& grid,
                             std::ostream& os);

/// Component-count scaling: both lines with 0..max_extra_pumps spare pumps
/// beyond the paper's configuration on the individual encoding, state-space
/// cells only.  Run it with RunnerOptions::reduction = Auto: each model is
/// then explored on the lumped encoding, so each cell's
/// model_explored_states is the lumped chain actually explored while
/// model_states is the exact full-chain count, summed in closed form over
/// the lumped states — the growing gap is the point of the study.  (Under Off the grid explores the full chains, which beyond a few
/// extra pumps will hit the exploration guard.)
[[nodiscard]] ScenarioGrid pump_scaling(std::size_t max_extra_pumps = 3);
/// Table-1-style state-space report at each scale: pumps, explored states,
/// full-chain states, the reduction ratio and full-chain transitions per row.
void render_pump_scaling(const SweepReport& report, const ScenarioGrid& grid,
                         std::ostream& os);

}  // namespace arcade::sweep::studies

#endif  // ARCADE_SWEEP_STUDIES_HPP
