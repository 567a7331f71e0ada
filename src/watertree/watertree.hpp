// The DSN 2010 water-treatment case study: the two process lines of Fig. 2,
// the repair strategies of Section 4, and the disasters of Section 5.
//
// Component parameters (MTTF, MTTR in hours) were recovered from the paper
// (the figure's labels are ambiguous in the text; this assignment reproduces
// Table 2's dedicated-repair availabilities to 7 decimal places and every
// qualitative statement of Section 5):
//   pumps (500, 1), softeners (2000, 5), sand filters (1000, 100),
//   reservoir (6000, 12).
#ifndef ARCADE_WATERTREE_WATERTREE_HPP
#define ARCADE_WATERTREE_WATERTREE_HPP

#include <string>
#include <vector>

#include "arcade/compiler.hpp"
#include "arcade/types.hpp"
#include "engine/session.hpp"

namespace arcade::watertree {

/// Paper parameters.
struct Parameters {
    double pump_mttf = 500.0;
    double pump_mttr = 1.0;
    double softener_mttf = 2000.0;
    double softener_mttr = 5.0;
    double sandfilter_mttf = 1000.0;
    double sandfilter_mttr = 100.0;
    double reservoir_mttf = 6000.0;
    double reservoir_mttr = 12.0;
    double failed_cost_rate = 3.0;  ///< per failed component per hour
    double idle_cost_rate = 1.0;    ///< per idle crew per hour
};

/// The repair strategies compared in the paper.
struct Strategy {
    std::string name;                ///< e.g. "DED", "FRF-1", "FFF-2"
    core::RepairPolicy policy = core::RepairPolicy::Dedicated;
    std::size_t crews = 1;
    bool preemptive = false;
};

/// DED, FRF-1, FRF-2, FFF-1, FFF-2 (the paper's Table 1 rows).
[[nodiscard]] std::vector<Strategy> paper_strategies();

/// Strategy lookup by paper name ("DED", "FRF-1", ...).  A "-pre" suffix on
/// any priority strategy ("FRF-1-pre", ...) selects its preemptive variant
/// (the scheduling ablation; dedicated repair has no crew contention to
/// preempt).  Throws InvalidArgument on unknown names.
[[nodiscard]] const Strategy& strategy(const std::string& name);

/// Builds line 1 or 2 by number.  `extra_pumps` adds spare pumps beyond the
/// paper's configuration (the required count is unchanged) — the component-
/// count scaling axis of the sweep's state-space study; 0 is the paper model.
[[nodiscard]] core::ArcadeModel line(int number, const Strategy& strategy,
                                     const Parameters& params = {},
                                     std::size_t extra_pumps = 0);

/// Session-cached compilation of one line (the sweep runner's entry
/// point): callers asking for the same (line, strategy, encoding,
/// parameters, repair, reduction, scale) variant share one
/// CompiledModel.  `with_repair = false` strips the repair units before
/// compiling (the reliability measure and the no-repair model variants);
/// `reduction` is the compile's ReductionPolicy: under Auto an individual
/// model is explored on the lumped encoding, and every measure of the
/// model runs on that chain.
[[nodiscard]] engine::AnalysisSession::CompiledPtr compile_line(
    engine::AnalysisSession& session, int number, const Strategy& strategy,
    core::Encoding encoding = core::Encoding::Individual, const Parameters& params = {},
    bool with_repair = true,
    core::ReductionPolicy reduction = core::ReductionPolicy::Off,
    core::SymmetryPolicy = core::SymmetryPolicy::Off,  // kept for perfbench; ignored
    std::size_t extra_pumps = 0);

/// Line 1: 3 softeners, 3 sand filters, 1 reservoir, 4 pumps (3+1 spare).
[[nodiscard]] core::ArcadeModel line1(const Strategy& strategy,
                                      const Parameters& params = {},
                                      std::size_t extra_pumps = 0);

/// Line 2: 3 softeners, 2 sand filters, 1 reservoir, 3 pumps (2+1 spare).
[[nodiscard]] core::ArcadeModel line2(const Strategy& strategy,
                                      const Parameters& params = {},
                                      std::size_t extra_pumps = 0);

/// Phase indices shared by both lines (order of construction).
enum PhaseIndex : std::size_t {
    kSofteners = 0,
    kSandFilters = 1,
    kReservoir = 2,
    kPumps = 3,
};

/// Disaster 1: all pumps of the line fail (paper Section 5).
[[nodiscard]] core::Disaster disaster1(const core::ArcadeModel& line);

/// Disaster 2 (Line 2): two pumps, one softener, one sand filter and the
/// reservoir fail.
[[nodiscard]] core::Disaster disaster2();

/// The service-interval lower bounds of the paper:
/// Line 1: X1=1/3, X2=2/3, X3=1;  Line 2: X1=1/3, X2=1/2, X3=2/3, X4=1.
[[nodiscard]] std::vector<double> service_interval_bounds(const core::ArcadeModel& line);

}  // namespace arcade::watertree

#endif  // ARCADE_WATERTREE_WATERTREE_HPP
