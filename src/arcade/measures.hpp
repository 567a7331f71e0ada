// The paper's dependability and performability measures, evaluated on a
// compiled Arcade model:
//
//   reliability      P_Reliability = 1 - P=?[true U<=t "down"]   (no repairs)
//   availability     S=?["operational"]
//   survivability    P=?[true U<=t service>=x] from a disaster state (GOOD)
//   costs            R{"cost"}=?[I=t] and R{"cost"}=?[C<=t] after a disaster
//
// Every series is one uniformised power pass (ctmc::functional_series), and
// cost_series reads several cost curves off one pass.  Every series function
// accepts a ctmc::TransientOptions (the Fox–Glynn epsilon); the
// session-flavoured overloads below reuse the session's cached steady-state
// solution for the long-run measures.
#ifndef ARCADE_ARCADE_MEASURES_HPP
#define ARCADE_ARCADE_MEASURES_HPP

#include <span>
#include <vector>

#include "arcade/compiler.hpp"
#include "ctmc/transient.hpp"
#include "engine/session.hpp"

namespace arcade::core {

/// Long-run probability of full service (the paper's availability).
[[nodiscard]] double availability(const CompiledModel& model);

/// Session-cached availability: one steady-state solve per model per session.
[[nodiscard]] double availability(engine::AnalysisSession& session,
                                  const engine::AnalysisSession::CompiledPtr& model);

/// Availability of two independent lines combined:
/// A1 + A2 - A1*A2 (the system is up when either line is up).
[[nodiscard]] double combined_availability(double line1, double line2);

/// Reliability curve: probability that the system has *never* left full
/// service up to each time.  `model` must be compiled without repairs
/// (see without_repair); this is checked.
[[nodiscard]] std::vector<double> reliability_series(
    const CompiledModel& model, std::span<const double> times,
    const ctmc::TransientOptions& transient = {});

/// Survivability curve: P[reach service >= x within t | disaster].
[[nodiscard]] std::vector<double> survivability_series(
    const CompiledModel& model, const Disaster& disaster, double service_level,
    std::span<const double> times, const ctmc::TransientOptions& transient = {});

/// Single-point survivability.
[[nodiscard]] double survivability(const CompiledModel& model, const Disaster& disaster,
                                   double service_level, double time);

/// Cost curves after the disaster — instantaneous (Fig 6) and accumulated
/// (Fig 7), each request on its own grid — from ONE power pass over the
/// model's chain().  Result i is
/// bitwise the one-request series of request i.
[[nodiscard]] std::vector<std::vector<double>> cost_series(
    const CompiledModel& model, const Disaster& disaster,
    std::span<const ctmc::SeriesRequest> requests,
    const ctmc::TransientOptions& transient = {});

/// Expected instantaneous cost rate at each time after the disaster.
[[nodiscard]] std::vector<double> instantaneous_cost_series(
    const CompiledModel& model, const Disaster& disaster, std::span<const double> times,
    const ctmc::TransientOptions& transient = {});

/// Expected accumulated cost over [0, t] after the disaster.
[[nodiscard]] std::vector<double> accumulated_cost_series(
    const CompiledModel& model, const Disaster& disaster, std::span<const double> times,
    const ctmc::TransientOptions& transient = {});

/// Steady-state expected cost rate (normal-operation cost level).
[[nodiscard]] double steady_state_cost(const CompiledModel& model);

/// Session-cached long-run cost rate (shares the availability solve).
[[nodiscard]] double steady_state_cost(engine::AnalysisSession& session,
                                       const engine::AnalysisSession::CompiledPtr& model);

/// Kept for perfbench; returns default options.
[[nodiscard]] ctmc::TransientOptions session_transient(engine::AnalysisSession& session);

/// Remains only for the benchmark's step-count code (a survivability cell's chain).
struct FusedSeriesPlan {
    /// Owns the until-transformed chain.
    std::shared_ptr<const ctmc::Ctmc> transformed;
    const ctmc::Ctmc* chain = nullptr;  ///< transformed.get()
};

/// Remains only for the benchmark's step-count code (until-transforms the chain).
[[nodiscard]] FusedSeriesPlan survivability_fused_plan(const CompiledModel& model,
                                                       double service_level);

/// The distinct service levels of the model, ascending (0 and 1 included);
/// consecutive pairs delimit the paper's service intervals X1, X2, ...
[[nodiscard]] std::vector<double> service_levels(const ArcadeModel& model);

}  // namespace arcade::core

#endif  // ARCADE_ARCADE_MEASURES_HPP
