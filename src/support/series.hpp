// Output helpers for the paper's artefacts and the examples: aligned ASCII
// tables and gnuplot-ready (t, value...) series, the formats the paper's
// figures use.
#ifndef ARCADE_SUPPORT_SERIES_HPP
#define ARCADE_SUPPORT_SERIES_HPP

#include <iosfwd>
#include <string>
#include <vector>

namespace arcade {

/// A named time series: one curve of a figure.
struct Series {
    std::string name;
    std::vector<double> values;
};

/// A figure: common abscissa (time points) plus one or more curves.
/// print() emits a gnuplot-compatible block with a header comment.
class Figure {
public:
    Figure(std::string title, std::string x_label, std::string y_label)
        : title_(std::move(title)), x_label_(std::move(x_label)), y_label_(std::move(y_label)) {}

    void set_times(std::vector<double> times) { times_ = std::move(times); }
    void add_series(std::string name, std::vector<double> values);

    [[nodiscard]] const std::vector<double>& times() const noexcept { return times_; }
    [[nodiscard]] const std::vector<Series>& series() const noexcept { return series_; }

    /// Writes `# title` header, `# t <name1> <name2>...` then one row per time.
    void print(std::ostream& os) const;

private:
    std::string title_;
    std::string x_label_;
    std::string y_label_;
    std::vector<double> times_;
    std::vector<Series> series_;
};

/// Simple aligned-column table printer for the paper's tables.
class Table {
public:
    explicit Table(std::vector<std::string> header);

    void add_row(std::vector<std::string> cells);
    void print(std::ostream& os) const;

    [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/// Uniformly spaced grid {0, step, ..., max} inclusive of both ends.
[[nodiscard]] std::vector<double> time_grid(double max, std::size_t points);

}  // namespace arcade

#endif  // ARCADE_SUPPORT_SERIES_HPP
