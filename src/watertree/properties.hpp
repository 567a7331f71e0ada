// The paper's dependability and performability measures as CSL/CSRL
// formulas — the property preset pack.
//
// Every measure of Sections 4–5 has a textual-property twin here:
//
//   availability          S=? [ "operational" ]
//   long-run cost         R{"cost"}=? [ S ]
//   reliability           P=? [ G<=t !"down" ]          (repair-free model)
//   survivability (>= x)  P=? [ true U<=t "service>=x" ]
//   instantaneous cost    R{"cost"}=? [ I=t ]
//   accumulated cost      R{"cost"}=? [ C<=t ]
//
// The service labels are the compiler's per-level labels
// (core::service_label), registered for every distinct positive service
// level of a model, so the formulas below hold verbatim on both lines and
// both encodings.  Checked through the engine path
// (logic/csl_compiled.hpp / sweep MeasureKind::Property) each formula
// reproduces its measure-pipeline twin bit for bit, with reduction Off and
// Auto — pinned by tests/test_property_sweep.cpp.
//
// Time bounds in series formulas are *nominal*: the sweep layer replaces
// them with each grid point (one power pass per curve).  Scalar
// evaluation uses the bound as written.
#ifndef ARCADE_WATERTREE_PROPERTIES_HPP
#define ARCADE_WATERTREE_PROPERTIES_HPP

#include <string>
#include <vector>

namespace arcade::watertree::properties {

/// One named paper measure as a formula.
struct Property {
    std::string name;     ///< e.g. "survivability-x1"
    std::string formula;  ///< CSL/CSRL source text (parse_csl round-trips it)
};

[[nodiscard]] std::string availability_formula();
[[nodiscard]] std::string steady_cost_formula();
/// `horizon` is the nominal time bound (see the header comment).
[[nodiscard]] std::string reliability_formula(double horizon);
/// Recovery to service level >= `bound` within `horizon` hours.
[[nodiscard]] std::string survivability_formula(double bound, double horizon);
[[nodiscard]] std::string instantaneous_cost_formula(double time);
[[nodiscard]] std::string accumulated_cost_formula(double horizon);

/// The whole pack with the paper's horizons (reliability to 1000 h,
/// survivability to X1/X2 within 100 h, costs at/over the figure horizons)
/// — the round-trip test surface.
[[nodiscard]] std::vector<Property> paper_pack();

}  // namespace arcade::watertree::properties

#endif  // ARCADE_WATERTREE_PROPERTIES_HPP
