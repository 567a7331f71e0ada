// The Arcade architectural dependability framework (Boudali et al., DSN'08):
// basic components, repair units and spare-management units, composed with a
// fault tree / quantitative service tree into an analysable model.
//
// This reproduction covers the nondeterminism-free subclass the DSN 2010
// water-treatment paper uses (components with one failure mode and one
// operational mode, exclusive failure occurrence), which is exactly the
// subclass that admits a CTMC translation.
#ifndef ARCADE_ARCADE_TYPES_HPP
#define ARCADE_ARCADE_TYPES_HPP

#include <cstddef>
#include <string>
#include <vector>

namespace arcade::core {

/// A basic component with exponential failure and repair behaviour.
struct BasicComponent {
    std::string name;
    double mttf = 1.0;  ///< mean time to failure [h]
    double mttr = 1.0;  ///< mean time to repair [h]
    /// Cost rate while failed [1/h].  The paper uses 3 for every component.
    double failed_cost_rate = 3.0;

    [[nodiscard]] double failure_rate() const { return 1.0 / mttf; }
    [[nodiscard]] double repair_rate() const { return 1.0 / mttr; }
};

/// Repair scheduling disciplines from the paper (plus explicit priorities).
enum class RepairPolicy {
    None,                ///< no repair (reliability models)
    Dedicated,           ///< one crew per component (DED)
    FirstComeFirstServe, ///< global arrival order (FCFS)
    FastestRepairFirst,  ///< highest repair rate first (FRF), FCFS ties
    FastestFailureFirst, ///< highest failure rate first (FFF), FCFS ties
    Priority,            ///< explicit user priorities, FCFS ties
};

[[nodiscard]] std::string to_string(RepairPolicy policy);
[[nodiscard]] RepairPolicy repair_policy_from_string(const std::string& text);

/// A repair unit: a scheduling policy plus one or more repair crews serving
/// a set of components.
///
/// Crew semantics (validated against the paper's state/transition counts):
/// crew 1 is non-preemptive and tracked in the state; additional crews serve
/// the policy-best waiting components and are derived from the state (which
/// is equivalent to preemptive-resume for those crews and is what reproduces
/// the paper's "-2" strategies exactly).  Setting `preemptive` makes all
/// crews derived (ablation variant).
struct RepairUnit {
    std::string name;
    RepairPolicy policy = RepairPolicy::Dedicated;
    std::size_t crews = 1;
    bool preemptive = false;
    /// Cost rate per idle crew [1/h].  The paper uses 1.
    double idle_cost_rate = 1.0;
    /// Indices into ArcadeModel::components.
    std::vector<std::size_t> components;
    /// Only for RepairPolicy::Priority: smaller value = repaired first;
    /// same length as `components`.
    std::vector<int> priorities;
};

/// A spare management unit: `required` active components drawn from a pool
/// of `components` (hot spares — dormant units fail like active ones, which
/// is the semantics the paper's state spaces imply).
struct SpareManagementUnit {
    std::string name;
    std::vector<std::size_t> components;
    std::size_t required = 1;
};

/// One phase of the service model: a redundant group of components in
/// series with the other phases.
///
/// * plain redundant group (no SMU): all members contribute service 1/n;
///   full service needs all of them (paper: softeners, sand filters).
/// * spare-managed group (with SMU): service is min(1, up/required);
///   spares do not create service intervals (paper: pumps).
struct ServicePhase {
    std::string name;
    std::vector<std::size_t> components;
    /// Number of working components for full service.  Equal to
    /// components.size() for plain groups; less when spares exist.
    std::size_t required = 1;
    /// True when a spare management unit controls this phase.
    bool spare_managed = false;
};

/// A complete Arcade model: components + repair structure + service model.
struct ArcadeModel {
    std::string name;
    std::vector<BasicComponent> components;
    std::vector<RepairUnit> repair_units;
    std::vector<SpareManagementUnit> spare_units;
    std::vector<ServicePhase> phases;

    /// Throws arcade::ModelError when indices are out of range, a component
    /// is covered by two repair units, priorities are malformed, etc.
    void validate() const;

    [[nodiscard]] std::size_t component_index(const std::string& component_name) const;
};

/// Fluent builder for assembling models programmatically (the API the
/// examples use).
class ModelBuilder {
public:
    explicit ModelBuilder(std::string name);

    /// Adds `count` identical components named name1..nameN; returns their
    /// indices.  A plain redundant phase is created for them.
    std::vector<std::size_t> add_redundant_phase(const std::string& name, std::size_t count,
                                                 double mttf, double mttr);

    /// Adds a phase of `total` identical components of which `required`
    /// must work for full service (spare management unit semantics).
    std::vector<std::size_t> add_spare_phase(const std::string& name, std::size_t total,
                                             std::size_t required, double mttf, double mttr);

    /// Adds a repair unit covering every component added so far that is not
    /// yet covered.
    ModelBuilder& with_repair(RepairPolicy policy, std::size_t crews = 1,
                              bool preemptive = false);

    /// Adds a repair unit covering the given components.
    ModelBuilder& with_repair_unit(RepairUnit unit);

    /// Overrides the failed-cost rate for every component (default 3/h).
    ModelBuilder& with_failed_cost_rate(double rate);

    [[nodiscard]] ArcadeModel build() const;

private:
    ArcadeModel model_;
};

}  // namespace arcade::core

#endif  // ARCADE_ARCADE_TYPES_HPP
