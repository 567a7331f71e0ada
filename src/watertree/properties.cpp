#include "watertree/properties.hpp"

#include "arcade/compiler.hpp"
#include "support/strings.hpp"

namespace arcade::watertree::properties {

std::string availability_formula() { return "S=? [ \"operational\" ]"; }

std::string steady_cost_formula() { return "R{\"cost\"}=? [ S ]"; }

std::string reliability_formula(double horizon) {
    // P(never left full service up to t) = P(G<=t !"down"); the parser
    // desugars G via duality to 1 - P(true U<=t "down") — the reliability
    // measure's arithmetic verbatim.
    return "P=? [ G<=" + format_g17(horizon) + " !\"down\" ]";
}

std::string survivability_formula(double bound, double horizon) {
    return "P=? [ true U<=" + format_g17(horizon) + " \"" + core::service_label(bound) + "\" ]";
}

std::string instantaneous_cost_formula(double time) {
    return "R{\"cost\"}=? [ I=" + format_g17(time) + " ]";
}

std::string accumulated_cost_formula(double horizon) {
    return "R{\"cost\"}=? [ C<=" + format_g17(horizon) + " ]";
}

std::vector<Property> paper_pack() {
    const double x1 = 1.0 / 3.0;
    const double x2 = 2.0 / 3.0;  // line 2's X3 is the same service level
    return {
        {"availability", availability_formula()},
        {"steady-state-cost", steady_cost_formula()},
        {"reliability", reliability_formula(1000.0)},
        {"survivability-x1", survivability_formula(x1, 100.0)},
        {"survivability-x2", survivability_formula(x2, 100.0)},
        {"survivability-full", survivability_formula(1.0, 100.0)},
        {"instantaneous-cost", instantaneous_cost_formula(4.5)},
        {"accumulated-cost", accumulated_cost_formula(10.0)},
    };
}

}  // namespace arcade::watertree::properties
