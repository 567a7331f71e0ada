// Declarative scenario grids over the water-treatment case study.
//
// The paper's evaluation is a cross-product: every figure and table walks
// (line × strategy × measure × time grid), and Section 5 adds parameter
// perturbations on top.  Instead of each harness hand-rolling those loops,
// a ScenarioGrid states the cross-product once and expand() flattens it
// into deduplicated WorkItems the parallel runner executes through one
// engine::AnalysisSession — so every work item sharing a
// (line, strategy, encoding, parameters) prefix reuses one CompiledModel
// and one steady-state solve.
#ifndef ARCADE_SWEEP_SCENARIO_HPP
#define ARCADE_SWEEP_SCENARIO_HPP

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "arcade/compiler.hpp"
#include "watertree/watertree.hpp"

namespace arcade::sweep {

/// The measures a scenario can evaluate (the paper's Sections 4–5), plus
/// first-class CSL/CSRL properties as a grid axis.
enum class MeasureKind {
    Availability,       ///< scalar: S=?["operational"]
    SteadyStateCost,    ///< scalar: long-run expected cost rate
    StateSpace,         ///< scalar: state count of the compiled model (Table 1)
    Reliability,        ///< series: repairs stripped, P[never left full service]
    Survivability,      ///< series: P[service >= level within t | disaster]
    InstantaneousCost,  ///< series: E[cost rate at t | disaster]
    AccumulatedCost,    ///< series: E[cost over [0,t] | disaster]
    /// A CSL/CSRL formula (MeasureSpec::property), checked over the
    /// session.  With an empty time grid the formula is evaluated as
    /// written (steady-state queries reuse the cached solve); with a grid
    /// it must be a time-bounded quantitative query whose bound sweeps the
    /// grid in one uniformised power pass — the same kernels as the
    /// dedicated measures, so a re-expressed paper measure reproduces its
    /// rows bit for bit (see logic/csl_compiled.hpp).
    Property,
};

[[nodiscard]] std::string to_string(MeasureKind kind);

/// Which disaster seeds a GOOD-model measure.
enum class DisasterKind {
    None,      ///< measure starts from the all-up state
    AllPumps,  ///< paper Disaster 1 (derived per line)
    Mixed,     ///< paper Disaster 2 (Line 2 only)
};

[[nodiscard]] std::string to_string(DisasterKind kind);

/// One measure requested of every (line, strategy, parameters) cell.
/// Scalar measures ignore `times`; series measures read the whole grid off
/// one uniformisation pass (ctmc::functional_series).
struct MeasureSpec {
    MeasureKind kind = MeasureKind::Availability;
    DisasterKind disaster = DisasterKind::None;
    double service_level = 1.0;  ///< survivability recovery target
    std::vector<double> times;   ///< ascending; empty for scalar measures
    /// CSL/CSRL source text (MeasureKind::Property only); parsed — and its
    /// thresholds validated — eagerly at expand() time.
    std::string property;

    [[nodiscard]] bool is_series() const noexcept {
        if (kind == MeasureKind::Property) return !times.empty();
        return kind != MeasureKind::Availability &&
               kind != MeasureKind::SteadyStateCost && kind != MeasureKind::StateSpace;
    }
};

/// A measure that is not a property (no formula text, repair kept).
[[nodiscard]] MeasureSpec measure_spec(MeasureKind kind,
                                       DisasterKind disaster = DisasterKind::None,
                                       double service_level = 1.0,
                                       std::vector<double> times = {});

/// One way of building the model of a cell: the state-space encoding plus
/// whether the repair units are kept.  Table 1 sweeps the encodings; the
/// ablation studies sweep repair on/off.  Named so result rows stay
/// self-describing (like ParameterSet).
struct ModelVariant {
    std::string name = "lumped";
    core::Encoding encoding = core::Encoding::Lumped;
    bool repair = true;  ///< false strips the repair units (without_repair)
};

/// The paper's two encodings as ready-made variants.
[[nodiscard]] ModelVariant lumped_variant();
[[nodiscard]] ModelVariant individual_variant();

/// A named parameter perturbation (the identity perturbation is the paper's
/// baseline).  Named so result rows stay self-describing.
struct ParameterSet {
    std::string name = "paper";
    watertree::Parameters params;
};

/// A named component-count scale: `extra_pumps` spare pumps are added to the
/// line beyond the paper's configuration (the required count is unchanged).
/// The default is the paper model itself — grids that never mention scales
/// behave (and export) exactly as before.
struct ScaleSpec {
    std::string name = "paper";
    std::size_t extra_pumps = 0;

    [[nodiscard]] bool is_default() const noexcept {
        return extra_pumps == 0 && name == "paper";
    }
};

/// The declarative cross-product.  Lines, strategies, model variants,
/// parameter sets and component scales multiply; each resulting model cell
/// evaluates every measure.
struct ScenarioGrid {
    std::vector<int> lines;                  ///< {1}, {2} or {1, 2}
    std::vector<std::string> strategies;     ///< paper names ("DED", "FRF-1", ...)
    std::vector<ModelVariant> variants = {ModelVariant{}};
    std::vector<ParameterSet> parameters = {ParameterSet{}};
    std::vector<ScaleSpec> scales = {ScaleSpec{}};
    std::vector<MeasureSpec> measures;
};

/// One executable cell of the expanded grid.
struct WorkItem {
    int line = 0;
    std::string strategy;
    ModelVariant variant;
    std::size_t parameter_index = 0;  ///< into ScenarioGrid::parameters
    MeasureSpec measure;
    /// Position in the deterministic expand() order (the JSON export's
    /// `index`).
    std::size_t index = 0;
    /// Component-count scale of the cell (the default is the paper model, so
    /// existing aggregate construction keeps meaning "unscaled").
    ScaleSpec scale;

    /// Stable identity used for deduplication and result labelling.
    [[nodiscard]] std::string key() const;
    /// Identity of the compiled-model prefix shared with other items
    /// (encoding and effective repair included; the variant *name* is not —
    /// two variants describing the same model share one compile).
    [[nodiscard]] std::string model_key() const;
};

/// Flattens `grid` into work items in deterministic grid order
/// (line-major, then strategy, variant, parameter set, measure), dropping
/// exact duplicates (same line, strategy, variant, parameters and measure).
/// Cells whose disaster is undefined for the line (Mixed on Line 1) are
/// pruned, so one spec can span both lines.  Malformed specs — unknown
/// strategy names, unsorted time grids, a reliability measure with a
/// disaster — throw InvalidArgument here, not mid-run.
[[nodiscard]] std::vector<WorkItem> expand(const ScenarioGrid& grid);

/// Parses a count written as 1–9 decimal digits and nothing else (no sign,
/// no space, no suffix); nullopt otherwise.  The CLI's counts (--threads,
/// --pump-scaling) both go through this rule, so a typo like "3x" or "-1" is
/// an error rather than a silently different count.
[[nodiscard]] std::optional<std::size_t> parse_count(const std::string& text);

}  // namespace arcade::sweep

#endif  // ARCADE_SWEEP_SCENARIO_HPP
