#include "sweep/export.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "support/strings.hpp"

namespace arcade::sweep {

namespace {

/// Appends the decimal form of an integer.
template <typename Int>
void append_int(std::string& out, Int value) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

/// Hands the buffered text to the stream in one write and empties the
/// buffer, keeping its capacity for the next result.
void flush(std::string& buf, std::ostream& os) {
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    buf.clear();
}

/// The %.17g text of the time grid last passed to update().  Consecutive
/// results of one measure share their grid, so a writer formats each run
/// of equal grids once rather than once per result.
class TimeGridText {
public:
    /// Re-formats only when `times` differs from the last grid (bitwise).
    void update(const std::vector<double>& times) {
        const auto same_bits = [](double a, double b) {
            return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
        };
        if (std::ranges::equal(times, times_, same_bits)) return;
        times_ = times;
        text_.clear();
        ends_.clear();
        for (const double t : times) {
            append_g17(text_, t);
            ends_.push_back(text_.size());
        }
    }

    /// The text of time point k.
    [[nodiscard]] std::string_view at(std::size_t k) const {
        const std::size_t begin = k == 0 ? 0 : ends_[k - 1];
        return std::string_view(text_).substr(begin, ends_[k] - begin);
    }

private:
    std::vector<double> times_;
    std::string text_;
    std::vector<std::size_t> ends_;
};

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

void append_json_escaped(std::string& out, std::string_view s) {
    static constexpr char kHex[] = "0123456789abcdef";
    for (const char c : s) {
        const auto u = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (u < 0x20) {
            out += "\\u00";
            out.push_back(kHex[u >> 4]);
            out.push_back(kHex[u & 0xf]);
        } else {
            out.push_back(c);
        }
    }
}

std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    append_json_escaped(out, s);
    return out;
}

void append_csv_field(std::string& out, std::string_view s) {
    if (s.find_first_of(",\"\n\r") == std::string_view::npos) {
        out += s;
        return;
    }
    out.push_back('"');
    for (const char c : s) {
        if (c == '"') out += "\"\"";
        else out.push_back(c);
    }
    out.push_back('"');
}

std::string csv_field(const std::string& s) {
    std::string out;
    append_csv_field(out, s);
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
    // Rows are assembled in `out` and written once per result.
    std::string out;
    if (options.header) {
        out += "line,strategy,parameters,variant,measure,disaster,service_level,t,value";
        if (property_column) out += ",property";
        if (scale_column) out += ",scale";
        out += '\n';
    }
    std::string prefix;
    std::string suffix;
    TimeGridText times;
    for (const auto& r : report.results) {
        const auto& m = r.item.measure;
        prefix.clear();
        append_int(prefix, r.item.line);
        prefix += ',';
        append_csv_field(prefix, r.item.strategy);
        prefix += ',';
        append_csv_field(prefix, grid.parameters[r.item.parameter_index].name);
        prefix += ',';
        append_csv_field(prefix, r.item.variant.name);
        prefix += ',';
        prefix += to_string(m.kind);
        prefix += ',';
        prefix += to_string(m.disaster);
        prefix += ',';
        if (m.kind == MeasureKind::Survivability) append_g17(prefix, m.service_level);
        prefix += ',';
        suffix.clear();
        if (property_column) {
            suffix += ',';
            append_csv_field(suffix, m.property);
        }
        if (scale_column) {
            suffix += ',';
            append_csv_field(suffix, r.item.scale.name);
        }
        if (m.is_series()) {
            times.update(m.times);
            for (std::size_t i = 0; i < r.values.size(); ++i) {
                out += prefix;
                out += times.at(i);
                out += ',';
                append_g17(out, r.values[i]);
                out += suffix;
                out += '\n';
            }
        } else {
            out += prefix;
            out += ',';
            append_g17(out, r.values.front());
            out += suffix;
            out += '\n';
        }
        flush(out, os);
    }
    if (options.footer) {
        const auto& st = report.stats;
        const auto count = [&out](const char* key, std::size_t n) {
            out += key;
            append_int(out, n);
        };
        const auto real = [&out](const char* key, double v) {
            out += key;
            append_g17(out, v);
        };
        count("# scenarios=", report.results.size());
        count(" unique_models=", report.unique_models);
        count(" compile_hits=", st.compile_hits);
        count(" compile_misses=", st.compile_misses);
        count(" steady_hits=", st.steady_state_hits);
        count(" steady_misses=", st.steady_state_misses);
        real(" cache_hit_rate=", report.cache_hit_rate());
        count(" state_points=", report.state_points);
        real(" states_per_sec=", report.states_per_second());
        real(" wall_seconds=", report.wall_seconds);
        out += '\n';
    }
    flush(out, os);
}

void write_json(const SweepReport& report, const ScenarioGrid& grid, std::ostream& os) {
    // Like write_csv: the counters, then each result, are assembled in
    // `out` and written once.
    std::string out = "{\n  \"counters\": {\n";
    const auto& st = report.stats;
    const auto count = [&out](const char* key, std::size_t n) {
        out += "    \"";
        out += key;
        out += "\": ";
        append_int(out, n);
        out += ",\n";
    };
    const auto real = [&out](const char* key, double v) {
        out += "    \"";
        out += key;
        out += "\": ";
        append_g17(out, v);
        out += ",\n";
    };
    count("scenarios", report.results.size());
    count("unique_models", report.unique_models);
    count("compile_hits", st.compile_hits);
    count("compile_misses", st.compile_misses);
    count("steady_state_hits", st.steady_state_hits);
    count("steady_state_misses", st.steady_state_misses);
    real("cache_hit_rate", report.cache_hit_rate());
    count("state_points", report.state_points);
    real("states_per_second", report.states_per_second());
    out += "    \"wall_seconds\": ";
    append_g17(out, report.wall_seconds);
    out += "\n  },\n  \"results\": [\n";
    const bool scale_field = has_scale(grid);
    TimeGridText times;
    for (std::size_t i = 0; i < report.results.size(); ++i) {
        const auto& r = report.results[i];
        const auto& m = r.item.measure;
        out += "    {\"index\": ";
        append_int(out, r.item.index);
        out += ", \"line\": ";
        append_int(out, r.item.line);
        out += ", \"strategy\": \"";
        append_json_escaped(out, r.item.strategy);
        out += "\", \"parameters\": \"";
        append_json_escaped(out, grid.parameters[r.item.parameter_index].name);
        out += "\", \"variant\": \"";
        append_json_escaped(out, r.item.variant.name);
        out += "\", \"measure\": \"";
        out += to_string(m.kind);
        out += "\", \"disaster\": \"";
        out += to_string(m.disaster);
        out += "\", \"service_level\": ";
        append_g17(out, m.service_level);
        out += ", \"formula\": \"";
        append_json_escaped(out, m.property);
        out += '"';
        if (scale_field) {
            out += ", \"scale\": \"";
            append_json_escaped(out, r.item.scale.name);
            out += "\", \"model_explored_states\": ";
            append_int(out, r.model_explored_states);
        }
        out += ", \"model_states\": ";
        append_int(out, r.model_states);
        out += ", \"model_transitions\": ";
        append_int(out, r.model_transitions);
        out += ", \"seconds\": ";
        append_g17(out, r.seconds);
        out += ",\n     \"times\": [";
        times.update(m.times);
        for (std::size_t k = 0; k < m.times.size(); ++k) {
            if (k > 0) out += ", ";
            out += times.at(k);
        }
        out += "], \"values\": [";
        for (std::size_t k = 0; k < r.values.size(); ++k) {
            if (k > 0) out += ", ";
            append_g17(out, r.values[k]);
        }
        out += "]}";
        if (i + 1 < report.results.size()) out += ',';
        out += '\n';
        flush(out, os);
    }
    out += "  ]\n}\n";
    flush(out, os);
}

}  // namespace arcade::sweep
