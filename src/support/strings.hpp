// Small string utilities used by the parsers and writers.
#ifndef ARCADE_SUPPORT_STRINGS_HPP
#define ARCADE_SUPPORT_STRINGS_HPP

#include <string>
#include <string_view>
#include <vector>

namespace arcade {

/// Splits `text` on `sep`, keeping empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view text);

/// True iff `text` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix);

/// Joins `parts` with `sep` between consecutive elements.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// Renders a double with the fewest `%g` digits (6 to 17) that read back as
/// the same value: the short form for model text (XML, expressions).
[[nodiscard]] std::string format_double(double value);

/// Appends `value` exactly as printf("%.17g") prints it in the C locale
/// (round-trip exact; `inf`, `-nan`, ... for the non-finite values), written
/// by std::to_chars: no allocation beyond `out`'s growth, and independent of
/// the process locale.  The one formatter behind exports and printed formulas.
void append_g17(std::string& out, double value);

/// append_g17 into a fresh string.
[[nodiscard]] std::string format_g17(double value);

/// Lower-cases ASCII letters.
[[nodiscard]] std::string to_lower(std::string_view text);

}  // namespace arcade

#endif  // ARCADE_SUPPORT_STRINGS_HPP
