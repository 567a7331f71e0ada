#include "sweep/export.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <span>
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
/// buffer, keeping its capacity for what follows.
void flush(std::string& buf, std::ostream& os) {
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    buf.clear();
}

/// The writers hand the stream chunks of at least this many bytes: fewer
/// writes than one per result, and a buffer that stays this small instead
/// of growing to the whole document.
constexpr std::size_t kChunkBytes = std::size_t{64} << 10;

/// flush once the buffer holds a chunk.
void flush_chunk(std::string& buf, std::ostream& os) {
    if (buf.size() >= kChunkBytes) flush(buf, os);
}

/// The `%.17g` text of a list of doubles (support's append_g17): one string
/// plus the end offset of each number in it, so a result's CSV rows and its
/// JSON lists share one formatting of each number.
class NumberText {
public:
    /// Replaces the text with that of `values`.
    void assign(std::span<const double> values) {
        text_.clear();
        ends_.clear();
        for (const double v : values) {
            append_g17(text_, v);
            ends_.push_back(text_.size());
        }
    }
    /// How many numbers the text holds.
    [[nodiscard]] std::size_t size() const noexcept { return ends_.size(); }
    /// The text of number k.
    [[nodiscard]] std::string_view at(std::size_t k) const {
        const std::size_t begin = k == 0 ? 0 : ends_[k - 1];
        return std::string_view(text_).substr(begin, ends_[k] - begin);
    }

private:
    std::string text_;
    std::vector<std::size_t> ends_;
};

/// The optional CSV columns (and JSON fields) of a grid.
struct Columns {
    bool property = false;  ///< CSV `property` column
    bool scale = false;     ///< CSV `scale` column; JSON `scale`, model_explored_states
};

/// A grid grows the `property` column when it carries CSL property
/// measures, and the `scale` column when it sweeps component scales, so
/// unscaled grids keep the original schema byte for byte.
Columns columns_of(const ScenarioGrid& grid) {
    return {std::ranges::any_of(grid.measures,
                                [](const MeasureSpec& m) { return m.kind == MeasureKind::Property; }),
            std::ranges::any_of(grid.scales, [](const ScaleSpec& s) { return !s.is_default(); })};
}

/// A 64-bit fingerprint of a sequence of words.  Each step is a bijection
/// of the state for a fixed word and injective in the word for a fixed
/// state, so two sequences of equal length that differ in one word always
/// get different fingerprints.  Strings and lists add their length first.
class Fingerprint {
public:
    void add(std::uint64_t word) { h_ = (std::rotl(h_, 23) ^ word) * 0x9e3779b97f4a7c15u; }
    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
    void add(std::string_view s) {
        add(std::uint64_t{s.size()});
        for (std::size_t i = 0; i < s.size(); i += 8) {
            std::uint64_t word = 0;
            std::memcpy(&word, s.data() + i, std::min<std::size_t>(8, s.size() - i));
            add(word);
        }
    }
    void add(std::span<const double> values) {
        add(std::uint64_t{values.size()});
        for (const double v : values) add(v);
    }
    [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

private:
    std::uint64_t h_ = 0;
};

/// The fingerprint of every bit render() reads.
std::uint64_t fingerprint(const ScenarioResult& r, std::string_view parameters, Columns columns) {
    const WorkItem& item = r.item;
    const MeasureSpec& m = item.measure;
    Fingerprint f;
    f.add(std::uint64_t{columns.property} | std::uint64_t{columns.scale} << 1);
    f.add(parameters);
    f.add(std::uint64_t{item.index});
    f.add(static_cast<std::uint64_t>(item.line));
    f.add(item.strategy);
    f.add(item.variant.name);
    f.add(item.scale.name);
    f.add(static_cast<std::uint64_t>(m.kind) << 8 | static_cast<std::uint64_t>(m.disaster));
    f.add(m.service_level);
    f.add(std::span<const double>(m.times));
    f.add(m.property);
    f.add(std::span<const double>(r.values));
    f.add(r.seconds);
    f.add(std::uint64_t{r.model_states});
    f.add(std::uint64_t{r.model_transitions});
    f.add(std::uint64_t{r.model_explored_states});
    return f.value();
}

/// Buffers that render() reuses from one result to the next.
struct RenderScratch {
    NumberText times;
    NumberText values;
    std::string prefix;
    std::string suffix;
};

/// Appends `r`'s CSV rows to `*csv` and its JSON object, without the
/// separator that follows it, to `*json`; a null pointer skips that block.
void render(const ScenarioResult& r, std::string_view parameters, Columns columns,
            RenderScratch& scratch, std::string* csv, std::string* json) {
    const auto& m = r.item.measure;
    NumberText& times = scratch.times;
    NumberText& values = scratch.values;
    times.assign(m.times);
    values.assign(r.values);
    if (csv != nullptr) {
        // The key columns, t and value, then the optional columns.
        std::string& out = *csv;
        std::string& prefix = scratch.prefix;
        prefix.clear();
        append_int(prefix, r.item.line);
        prefix += ',';
        append_csv_field(prefix, r.item.strategy);
        prefix += ',';
        append_csv_field(prefix, parameters);
        prefix += ',';
        append_csv_field(prefix, r.item.variant.name);
        prefix += ',';
        prefix += to_string(m.kind);
        prefix += ',';
        prefix += to_string(m.disaster);
        prefix += ',';
        if (m.kind == MeasureKind::Survivability) append_g17(prefix, m.service_level);
        prefix += ',';
        std::string& suffix = scratch.suffix;
        suffix.clear();
        if (columns.property) {
            suffix += ',';
            append_csv_field(suffix, m.property);
        }
        if (columns.scale) {
            suffix += ',';
            append_csv_field(suffix, r.item.scale.name);
        }
        if (m.is_series()) {
            for (std::size_t i = 0; i < values.size(); ++i) {
                out += prefix;
                out += times.at(i);
                out += ',';
                out += values.at(i);
                out += suffix;
                out += '\n';
            }
        } else {
            out += prefix;
            out += ',';
            out += values.at(0);
            out += suffix;
            out += '\n';
        }
    }
    if (json == nullptr) return;
    std::string& out = *json;
    const auto append_list = [&out](const NumberText& text) {
        for (std::size_t k = 0; k < text.size(); ++k) {
            if (k > 0) out += ", ";
            out += text.at(k);
        }
    };
    out += "    {\"index\": ";
    append_int(out, r.item.index);
    out += ", \"line\": ";
    append_int(out, r.item.line);
    out += ", \"strategy\": \"";
    append_json_escaped(out, r.item.strategy);
    out += "\", \"parameters\": \"";
    append_json_escaped(out, parameters);
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
    if (columns.scale) {
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
    append_list(times);
    out += "], \"values\": [";
    append_list(values);
    out += "]}";
}

/// Appends `r`'s CSV rows (`csv`) or its JSON object to `out`: the
/// worker's text while its fingerprint matches, rendered here otherwise.
void append_block(const ScenarioResult& r, const ScenarioGrid& grid, Columns columns, bool csv,
                  RenderScratch& scratch, std::string& out) {
    const std::string_view parameters = grid.parameters[r.item.parameter_index].name;
    if (!r.text.json.empty() && r.text.fingerprint == fingerprint(r, parameters, columns)) {
        out += csv ? r.text.csv : r.text.json;
    } else {
        render(r, parameters, columns, scratch, csv ? &out : nullptr, csv ? nullptr : &out);
    }
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

void render_text(ScenarioResult& result, const ScenarioGrid& grid) {
    // Rendered into per-thread buffers and copied out, so the result's
    // strings are allocated once at their final size.
    thread_local RenderScratch scratch;
    thread_local ResultText text;
    const Columns columns = columns_of(grid);
    const std::string_view parameters = grid.parameters[result.item.parameter_index].name;
    text.csv.clear();
    text.json.clear();
    render(result, parameters, columns, scratch, &text.csv, &text.json);
    result.text.csv = text.csv;
    result.text.json = text.json;
    result.text.fingerprint = fingerprint(result, parameters, columns);
}

void write_csv(const SweepReport& report, const ScenarioGrid& grid, std::ostream& os) {
    // Grids without property measures keep the original 9-column schema;
    // property grids append a trailing `property` column carrying the
    // formula, so rows stay self-describing (two formulas in one grid are
    // otherwise indistinguishable).
    const Columns columns = columns_of(grid);
    // Rows are assembled in `out` and written in chunks.
    std::string out = "line,strategy,parameters,variant,measure,disaster,service_level,t,value";
    if (columns.property) out += ",property";
    if (columns.scale) out += ",scale";
    out += '\n';
    RenderScratch scratch;
    for (const auto& r : report.results) {
        append_block(r, grid, columns, /*csv=*/true, scratch, out);
        flush_chunk(out, os);
    }
    flush(out, os);
}

void write_json(const SweepReport& report, const ScenarioGrid& grid, std::ostream& os) {
    // Like write_csv: the document is assembled in `out` and written in
    // chunks.
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
    const Columns columns = columns_of(grid);
    RenderScratch scratch;
    for (std::size_t i = 0; i < report.results.size(); ++i) {
        append_block(report.results[i], grid, columns, /*csv=*/false, scratch, out);
        if (i + 1 < report.results.size()) out += ',';
        out += '\n';
        flush_chunk(out, os);
    }
    out += "  ]\n}\n";
    flush(out, os);
}

}  // namespace arcade::sweep
