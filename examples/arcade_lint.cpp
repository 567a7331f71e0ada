// arcade_lint — standalone front-end for the model linter (analysis/lint.hpp).
//
//   arcade_lint [--level off|warn] <model>...
//
// Each <model> is either an Arcade XML file (.xml — linted through its
// reactive-modules translation) or a PRISM file (.prism/.pm/.sm — linted
// directly, including the AR010 unused-formula check the parser feeds).
// Diagnostics print to stdout, one line each, prefixed with the file name.
// An Arcade model outside the translation's fragment (e.g. preemptive
// repair, which the native compiler accepts) is reported on stderr as
// "not linted" and does not fail the run.  Every file is processed.
//
// The summary line counts the files that were read and parsed, and names
// how many could not be.  Exit status: 2 on usage errors or when any file
// could not be read or parsed; otherwise 1 when any file produced an
// error-severity finding (warnings and notes are fine; --level off merely
// parses), else 0.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "arcade/modules_compiler.hpp"
#include "arcade/xml_io.hpp"
#include "prism/prism_parser.hpp"
#include "support/errors.hpp"

namespace analysis = arcade::analysis;

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw arcade::ModelError("cannot open '" + path + "'");
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/// Lints one file; returns its report, or nullopt (after saying so on
/// stderr) when the Arcade model has no reactive-modules translation.
/// Throws on read or parse failure.
std::optional<analysis::LintReport> lint_file(const std::string& path) {
    analysis::LintOptions options;
    arcade::modules::ModuleSystem system;
    if (ends_with(path, ".xml")) {
        const auto model = arcade::core::load_model(path);
        try {
            system = arcade::core::to_reactive_modules(model);
        } catch (const arcade::ModelError& e) {
            std::cerr << path << ": not linted: " << e.what() << "\n";
            return std::nullopt;
        }
    } else {
        arcade::prism::PrismParseInfo info;
        system = arcade::prism::parse_prism(read_file(path), &info);
        options.unused_formulas = std::move(info.unused_formulas);
    }
    return analysis::lint(system, options);
}

}  // namespace

int main(int argc, char** argv) {
    analysis::LintLevel level = analysis::LintLevel::Warn;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--level" && i + 1 < argc) {
            const auto parsed = analysis::parse_lint_level(argv[++i]);
            if (!parsed) {
                std::cerr << "arcade_lint: unknown level '" << argv[i]
                          << "' (expected off or warn)\n";
                return 2;
            }
            level = *parsed;
        } else if (arg == "--help" || arg == "-h") {
            std::cout << "usage: arcade_lint [--level off|warn] <model.xml|model.prism>...\n";
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "arcade_lint: unknown option '" << arg << "'\n";
            return 2;
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.empty()) {
        std::cerr << "usage: arcade_lint [--level off|warn] <model.xml|model.prism>...\n";
        return 2;
    }

    int errors = 0;
    int warnings = 0;
    std::size_t not_linted = 0;
    std::size_t unreadable = 0;
    for (const auto& path : paths) {
        std::optional<analysis::LintReport> report;
        try {
            report = lint_file(path);
        } catch (const std::exception& e) {
            std::cerr << path << ": " << e.what() << "\n";
            ++unreadable;
            continue;
        }
        if (!report) {
            ++not_linted;
            continue;
        }
        if (level == analysis::LintLevel::Off) continue;
        errors += report->errors;
        warnings += report->warnings + report->notes;
        for (const auto& d : report->diagnostics) {
            std::cout << path << ": " << d.to_string() << "\n";
        }
    }
    std::printf("%zu file(s) checked, %d error(s), %d warning(s), %zu not linted, "
                "%zu unreadable\n",
                paths.size() - unreadable, errors, warnings, not_linted, unreadable);
    if (unreadable > 0) return 2;
    return level != analysis::LintLevel::Off && errors > 0 ? 1 : 0;
}
