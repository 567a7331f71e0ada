#include "sweep/export.hpp"

#include <cstdio>
#include <ostream>
#include <string>

namespace arcade::sweep {

namespace {

/// Shortest round-trip-exact decimal form of a double.
std::string fmt(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/// Does the grid carry CSL property measures?  Decides (from the grid, not
/// the result slice, so every shard of one sweep agrees) whether the CSV
/// grows its trailing `property` column.
bool has_property(const ScenarioGrid& grid) {
    for (const auto& m : grid.measures) {
        if (m.kind == MeasureKind::Property) return true;
    }
    return false;
}

/// Does the grid sweep component scales?  Like has_property, decided from
/// the grid so every shard agrees; unscaled grids keep the original schema
/// byte for byte.
bool has_scale(const ScenarioGrid& grid) {
    for (const auto& s : grid.scales) {
        if (!s.is_default()) return true;
    }
    return false;
}

}  // namespace

std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
            out += buf;
        } else {
            out.push_back(c);
        }
    }
    return out;
}

std::string csv_field(const std::string& s) {
    if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"') out += "\"\"";
        else out.push_back(c);
    }
    out.push_back('"');
    return out;
}

void write_csv(const SweepReport& report, const ScenarioGrid& grid, std::ostream& os,
               const CsvOptions& options) {
    // Grids without property measures keep the original 9-column schema;
    // property grids append a trailing `property` column carrying the
    // formula, so rows stay self-describing (two formulas in one grid are
    // otherwise indistinguishable).
    const bool property_column = has_property(grid);
    const bool scale_column = has_scale(grid);
    if (options.header) {
        os << "line,strategy,parameters,variant,measure,disaster,service_level,t,value";
        if (property_column) os << ",property";
        if (scale_column) os << ",scale";
        os << "\n";
    }
    for (const auto& r : report.results) {
        const auto& m = r.item.measure;
        const std::string prefix =
            std::to_string(r.item.line) + "," + csv_field(r.item.strategy) + "," +
            csv_field(grid.parameters[r.item.parameter_index].name) + "," +
            csv_field(r.item.variant.name) + "," +
            to_string(m.kind) + "," +
            to_string(m.disaster) + "," +
            (m.kind == MeasureKind::Survivability ? fmt(m.service_level) : "") + ",";
        std::string suffix;
        if (property_column) (suffix += ",") += csv_field(m.property);
        if (scale_column) (suffix += ",") += csv_field(r.item.scale.name);
        if (m.is_series()) {
            for (std::size_t i = 0; i < r.values.size(); ++i) {
                os << prefix << fmt(m.times[i]) << "," << fmt(r.values[i]) << suffix
                   << "\n";
            }
        } else {
            os << prefix << "," << fmt(r.values.front()) << suffix << "\n";
        }
    }
    if (options.footer) {
        os << "# scenarios=" << report.results.size() << " unique_models="
           << report.unique_models << " compile_hits=" << report.stats.compile_hits
           << " compile_misses=" << report.stats.compile_misses
           << " steady_hits=" << report.stats.steady_state_hits
           << " steady_misses=" << report.stats.steady_state_misses
           << " cache_hit_rate=" << fmt(report.cache_hit_rate())
           << " lump_hits=" << report.stats.lump_hits
           << " lump_misses=" << report.stats.lump_misses
           << " property_hits=" << report.stats.property_hits
           << " property_misses=" << report.stats.property_misses
           << " reduction_ratio=" << fmt(report.stats.reduction_ratio())
           << " symmetry_states_in=" << report.stats.symmetry_states_in
           << " symmetry_states_out=" << report.stats.symmetry_states_out
           << " symmetry_ratio=" << fmt(report.stats.symmetry_ratio())
           << " symmetry_seconds=" << fmt(report.stats.symmetry_seconds)
           << " state_points=" << report.state_points
           << " states_per_sec=" << fmt(report.states_per_second())
           << " wall_seconds=" << fmt(report.wall_seconds) << "\n";
    }
}

void write_json(const SweepReport& report, const ScenarioGrid& grid, std::ostream& os) {
    os << "{\n  \"counters\": {\n"
       << "    \"scenarios\": " << report.results.size() << ",\n"
       << "    \"unique_models\": " << report.unique_models << ",\n"
       << "    \"compile_hits\": " << report.stats.compile_hits << ",\n"
       << "    \"compile_misses\": " << report.stats.compile_misses << ",\n"
       << "    \"steady_state_hits\": " << report.stats.steady_state_hits << ",\n"
       << "    \"steady_state_misses\": " << report.stats.steady_state_misses << ",\n"
       << "    \"cache_hit_rate\": " << fmt(report.cache_hit_rate()) << ",\n"
       << "    \"lump_hits\": " << report.stats.lump_hits << ",\n"
       << "    \"lump_misses\": " << report.stats.lump_misses << ",\n"
       << "    \"lump_states_in\": " << report.stats.lump_states_in << ",\n"
       << "    \"lump_states_out\": " << report.stats.lump_states_out << ",\n"
       << "    \"property_hits\": " << report.stats.property_hits << ",\n"
       << "    \"property_misses\": " << report.stats.property_misses << ",\n"
       << "    \"reduction_ratio\": " << fmt(report.stats.reduction_ratio()) << ",\n"
       << "    \"symmetry_states_in\": " << report.stats.symmetry_states_in << ",\n"
       << "    \"symmetry_states_out\": " << report.stats.symmetry_states_out << ",\n"
       << "    \"symmetry_ratio\": " << fmt(report.stats.symmetry_ratio()) << ",\n"
       << "    \"symmetry_seconds\": " << fmt(report.stats.symmetry_seconds) << ",\n"
       << "    \"state_points\": " << report.state_points << ",\n"
       << "    \"states_per_second\": " << fmt(report.states_per_second()) << ",\n"
       << "    \"wall_seconds\": " << fmt(report.wall_seconds) << "\n  },\n"
       << "  \"results\": [\n";
    const bool scale_field = has_scale(grid);
    for (std::size_t i = 0; i < report.results.size(); ++i) {
        const auto& r = report.results[i];
        const auto& m = r.item.measure;
        os << "    {\"index\": " << r.item.index << ", \"line\": " << r.item.line
           << ", \"strategy\": \"" << json_escape(r.item.strategy)
           << "\", \"parameters\": \""
           << json_escape(grid.parameters[r.item.parameter_index].name)
           << "\", \"variant\": \"" << json_escape(r.item.variant.name)
           << "\", \"measure\": \"" << to_string(m.kind) << "\", \"disaster\": \""
           << to_string(m.disaster) << "\", \"service_level\": " << fmt(m.service_level)
           << ", \"formula\": \"" << json_escape(m.property) << "\"";
        if (scale_field) {
            os << ", \"scale\": \"" << json_escape(r.item.scale.name)
               << "\", \"model_full_states\": " << fmt(r.model_full_states);
        }
        os << ", \"model_states\": " << r.model_states
           << ", \"model_transitions\": " << r.model_transitions
           << ", \"seconds\": " << fmt(r.seconds) << ",\n     \"times\": [";
        for (std::size_t k = 0; k < m.times.size(); ++k) {
            os << (k > 0 ? ", " : "") << fmt(m.times[k]);
        }
        os << "], \"values\": [";
        for (std::size_t k = 0; k < r.values.size(); ++k) {
            os << (k > 0 ? ", " : "") << fmt(r.values[k]);
        }
        os << "]}" << (i + 1 < report.results.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

}  // namespace arcade::sweep
