// Arcade-XML: the XML input format for Arcade models (the paper's entry
// point, Fig. 1).  The schema covers the paper's concepts one-to-one:
//
//   <arcade name="line1">
//     <components>
//       <component name="pump1" mttf="500" mttr="1" failedCostRate="3"/>
//     </components>
//     <repairUnits>
//       <repairUnit name="ru1" policy="frf" crews="2" idleCostRate="1">
//         <serves component="pump1"/>
//       </repairUnit>
//     </repairUnits>
//     <spareUnits>
//       <spareUnit name="pumps" required="3">
//         <manages component="pump1"/>
//       </spareUnit>
//     </spareUnits>
//     <serviceModel>
//       <phase name="pumps" required="3" spareManaged="true">
//         <member component="pump1"/>
//       </phase>
//     </serviceModel>
//   </arcade>
//
// `policy` is one of none|dedicated|fcfs|frf|fff|priority; priority repair
// units give each <serves> a priority="n" attribute (smaller = first).
#ifndef ARCADE_ARCADE_XML_IO_HPP
#define ARCADE_ARCADE_XML_IO_HPP

#include <string>

#include "arcade/types.hpp"

namespace arcade::core {

/// Parses an Arcade-XML document.  Throws arcade::ParseError / ModelError.
[[nodiscard]] ArcadeModel model_from_xml(const std::string& xml_text);

/// Serialises a model to Arcade-XML (round-trips through model_from_xml).
[[nodiscard]] std::string model_to_xml(const ArcadeModel& model);

/// Convenience: reads a model from a file on disk.
[[nodiscard]] ArcadeModel load_model(const std::string& path);

}  // namespace arcade::core

#endif  // ARCADE_ARCADE_XML_IO_HPP
