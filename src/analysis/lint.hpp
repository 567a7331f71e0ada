// Model linter: static checks over the reactive-modules IR.  It runs where
// models are written — the examples/arcade_lint CLI (Arcade-XML or PRISM)
// and test_analysis, which pins every shipped model lint-clean — never
// inside arcade::compile.  Built on the abstract interpreter in
// analysis/interval.hpp.
//
// Check catalogue (stable IDs — tests and golden files reference them):
//   AR001 error    unknown identifier (in an expression, or assignment target)
//   AR002 warning  guard is statically unsatisfiable
//   AR003 warning  two same-action commands in one module have overlapping
//                  guards (their alternatives race within the action)
//   AR004 error/   rate expression can be negative (error, with witness) or
//         warning  zero / can fail to evaluate (warning)
//   AR005 error/   assignment can leave the target's declared range — cross-
//         warning  checked against the StateLayout bit-widths exploration
//                  will pack with (error with witness; warning when the
//                  domain is too large to confirm by enumeration)
//   AR006 note     dead assignment x' = x
//   AR007 warning  variable is never read
//   AR008 note     label or reward guard is constant over the state space
//   AR009 note/    constant expression the folder should have eliminated
//         error    (error when it always fails to evaluate, e.g. 1/0)
//   AR010 warning  formula parsed but never used (fed by the PRISM parser)
//
// Soundness split: "unsatisfiable"/"constant" verdicts are proofs (the
// abstract domain over-approximates), while "can overlap"/"can escape"
// verdicts are confirmed by exhaustive enumeration when the relevant
// variable domains are small enough, and downgraded to warnings otherwise.
#ifndef ARCADE_ANALYSIS_LINT_HPP
#define ARCADE_ANALYSIS_LINT_HPP

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "expr/expr.hpp"
#include "modules/modules.hpp"

namespace arcade::analysis {

enum class Severity { Note, Warning, Error };

/// examples/arcade_lint's --level.  Off only parses; Warn (the default)
/// prints every finding and exits 1 on any error-severity one.
enum class LintLevel {
    Off,
    Warn,
};

/// "off" / "warn" (accepts a few aliases, case-insensitive).
[[nodiscard]] std::optional<LintLevel> parse_lint_level(std::string_view text);
[[nodiscard]] std::string_view lint_level_name(LintLevel level) noexcept;
[[nodiscard]] std::string_view severity_name(Severity severity) noexcept;

/// Kept for perfbench (provenance); `arcade::compile` runs no lint stage.
[[nodiscard]] constexpr LintLevel default_lint_level() { return LintLevel::Off; }

/// One finding.  `offset` is the byte offset into the source text the
/// expression was parsed from (expr::Expr::npos for programmatically built
/// models, e.g. the Arcade translation).
struct Diagnostic {
    std::string id;        ///< stable check ID, e.g. "AR004"
    Severity severity = Severity::Warning;
    std::string message;   ///< what is wrong, with witness when confirmed
    std::string where;     ///< model location, e.g. "module 'pump' command 2"
    std::size_t offset = expr::Expr::npos;

    /// "error[AR004] module 'pump' command 2: ..." (+ source offset if known).
    [[nodiscard]] std::string to_string() const;
};

struct LintOptions {
    /// Largest variable-domain product the confirmation pass enumerates;
    /// larger products downgrade would-be errors to warnings.
    std::size_t enumeration_limit = 200000;
    /// Formulas the source carried but nothing referenced (name + byte
    /// offset); supplied by the PRISM parser, reported as AR010.
    std::vector<std::pair<std::string, std::size_t>> unused_formulas;
};

struct LintReport {
    std::vector<Diagnostic> diagnostics;
    int errors = 0;
    int warnings = 0;
    int notes = 0;

    [[nodiscard]] bool clean() const noexcept { return diagnostics.empty(); }
    /// One line per diagnostic, in check order.
    [[nodiscard]] std::string to_string() const;
};

/// Runs every check against `system`.
[[nodiscard]] LintReport lint(const modules::ModuleSystem& system,
                              const LintOptions& options = {});

}  // namespace arcade::analysis

#endif  // ARCADE_ANALYSIS_LINT_HPP
