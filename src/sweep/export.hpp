// Result export for scenario sweeps: a flat CSV (one row per solved point,
// gnuplot/pandas-friendly, strict RFC-4180) and a structured JSON document.
// The JSON also carries the run's cache-effectiveness and throughput
// counters so downstream tooling can track engine regressions alongside the
// numbers.
#ifndef ARCADE_SWEEP_EXPORT_HPP
#define ARCADE_SWEEP_EXPORT_HPP

#include <iosfwd>
#include <string>
#include <string_view>

#include "sweep/runner.hpp"

namespace arcade::sweep {

/// RFC-4180 CSV field: quoted (with doubled quotes) when the value holds a
/// separator, quote or newline; the raw string otherwise.
[[nodiscard]] std::string csv_field(const std::string& s);
/// csv_field appended to `out`.
void append_csv_field(std::string& out, std::string_view s);

/// JSON string escaping: quotes, backslashes and control characters (a
/// caller-supplied ParameterSet or ModelVariant name must never corrupt the
/// document).
[[nodiscard]] std::string json_escape(const std::string& s);
/// json_escape appended to `out`.
void append_json_escaped(std::string& out, std::string_view s);

/// Renders `result`'s CSV rows and JSON object for `grid` into result.text
/// and fingerprints what they were rendered from: the result's item,
/// values, seconds and model sizes, the name of its parameter set and
/// whether the grid's CSV grows the `property` and `scale` columns.  The
/// sweep runner calls it on the worker that computed the result.
void render_text(ScenarioResult& result, const ScenarioGrid& grid);

/// Header `line,strategy,parameters,variant,measure,disaster,service_level,
/// t,value`; scalar measures emit one row with an empty `t` column.  Doubles
/// are round-trip exact `%.17g` digits (support/strings' append_g17, so the
/// bytes do not depend on the process locale).  Rows appear in result order,
/// which for runner output is ascending work-item index.  Each result's rows
/// are copied from its text when the fingerprint still matches (runner
/// output) and rendered here otherwise (a report built or edited by hand).
/// Rows reach `os` in writes of at least 64 KiB, whole results each, and a
/// last shorter one.
void write_csv(const SweepReport& report, const ScenarioGrid& grid, std::ostream& os);

/// One JSON object: {"counters": {...}, "results": [{..., "values": [...]}]}.
/// The counters block is always present.  Result objects and writes as in
/// write_csv.
void write_json(const SweepReport& report, const ScenarioGrid& grid, std::ostream& os);

}  // namespace arcade::sweep

#endif  // ARCADE_SWEEP_EXPORT_HPP
