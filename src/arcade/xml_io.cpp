#include "arcade/xml_io.hpp"

#include <fstream>
#include <sstream>

#include "support/errors.hpp"
#include "support/strings.hpp"
#include "xml/xml.hpp"

namespace arcade::core {

ArcadeModel model_from_xml(const std::string& xml_text) {
    const xml::ElementPtr root = xml::parse_document(xml_text);
    if (root->name() != "arcade") {
        throw ParseError("Arcade-XML root element must be <arcade>, found <" + root->name() +
                         ">");
    }
    ArcadeModel model;
    model.name = root->attribute_or("name", "model");

    const auto components = root->first_child("components");
    if (!components) throw ParseError("<arcade> needs a <components> section");
    for (const auto& el : components->children_named("component")) {
        BasicComponent c;
        c.name = el->attribute("name");
        c.mttf = el->attribute_as_double("mttf");
        c.mttr = el->attribute_as_double("mttr");
        if (el->has_attribute("failedCostRate")) {
            c.failed_cost_rate = el->attribute_as_double("failedCostRate");
        }
        model.components.push_back(std::move(c));
    }

    if (const auto rus = root->first_child("repairUnits")) {
        for (const auto& el : rus->children_named("repairUnit")) {
            RepairUnit ru;
            ru.name = el->attribute_or("name", "ru" + std::to_string(model.repair_units.size() + 1));
            ru.policy = repair_policy_from_string(el->attribute("policy"));
            ru.crews = static_cast<std::size_t>(
                el->has_attribute("crews") ? el->attribute_as_int("crews") : 1);
            ru.preemptive = el->attribute_or("preemptive", "false") == "true";
            if (el->has_attribute("idleCostRate")) {
                ru.idle_cost_rate = el->attribute_as_double("idleCostRate");
            }
            for (const auto& serves : el->children_named("serves")) {
                ru.components.push_back(
                    model.component_index(serves->attribute("component")));
                if (ru.policy == RepairPolicy::Priority) {
                    ru.priorities.push_back(
                        static_cast<int>(serves->attribute_as_int("priority")));
                }
            }
            model.repair_units.push_back(std::move(ru));
        }
    }

    if (const auto spares = root->first_child("spareUnits")) {
        for (const auto& el : spares->children_named("spareUnit")) {
            SpareManagementUnit smu;
            smu.name = el->attribute_or("name", "smu");
            smu.required = static_cast<std::size_t>(el->attribute_as_int("required"));
            for (const auto& manages : el->children_named("manages")) {
                smu.components.push_back(
                    model.component_index(manages->attribute("component")));
            }
            model.spare_units.push_back(std::move(smu));
        }
    }

    const auto service = root->first_child("serviceModel");
    if (!service) throw ParseError("<arcade> needs a <serviceModel> section");
    for (const auto& el : service->children_named("phase")) {
        ServicePhase phase;
        phase.name = el->attribute("name");
        phase.spare_managed = el->attribute_or("spareManaged", "false") == "true";
        for (const auto& member : el->children_named("member")) {
            phase.components.push_back(model.component_index(member->attribute("component")));
        }
        phase.required = el->has_attribute("required")
                             ? static_cast<std::size_t>(el->attribute_as_int("required"))
                             : phase.components.size();
        model.phases.push_back(std::move(phase));
    }

    model.validate();
    return model;
}

std::string model_to_xml(const ArcadeModel& model) {
    model.validate();
    xml::Element root("arcade");
    root.set_attribute("name", model.name);

    auto components = root.add_child("components");
    for (const auto& c : model.components) {
        auto el = components->add_child("component");
        el->set_attribute("name", c.name);
        el->set_attribute("mttf", format_double(c.mttf));
        el->set_attribute("mttr", format_double(c.mttr));
        el->set_attribute("failedCostRate", format_double(c.failed_cost_rate));
    }

    auto rus = root.add_child("repairUnits");
    for (const auto& ru : model.repair_units) {
        auto el = rus->add_child("repairUnit");
        el->set_attribute("name", ru.name);
        el->set_attribute("policy", to_string(ru.policy));
        el->set_attribute("crews", std::to_string(ru.crews));
        if (ru.preemptive) el->set_attribute("preemptive", "true");
        el->set_attribute("idleCostRate", format_double(ru.idle_cost_rate));
        for (std::size_t i = 0; i < ru.components.size(); ++i) {
            auto serves = el->add_child("serves");
            serves->set_attribute("component", model.components[ru.components[i]].name);
            if (ru.policy == RepairPolicy::Priority) {
                serves->set_attribute("priority", std::to_string(ru.priorities[i]));
            }
        }
    }

    if (!model.spare_units.empty()) {
        auto spares = root.add_child("spareUnits");
        for (const auto& smu : model.spare_units) {
            auto el = spares->add_child("spareUnit");
            el->set_attribute("name", smu.name);
            el->set_attribute("required", std::to_string(smu.required));
            for (std::size_t idx : smu.components) {
                auto manages = el->add_child("manages");
                manages->set_attribute("component", model.components[idx].name);
            }
        }
    }

    auto service = root.add_child("serviceModel");
    for (const auto& phase : model.phases) {
        auto el = service->add_child("phase");
        el->set_attribute("name", phase.name);
        el->set_attribute("required", std::to_string(phase.required));
        if (phase.spare_managed) el->set_attribute("spareManaged", "true");
        for (std::size_t idx : phase.components) {
            auto member = el->add_child("member");
            member->set_attribute("component", model.components[idx].name);
        }
    }

    return xml::write_document(root);
}

ArcadeModel load_model(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw InvalidArgument("cannot open '" + path + "' for reading");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return model_from_xml(buffer.str());
}

}  // namespace arcade::core
