#include "prism/prism_parser.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>

#include "support/errors.hpp"
#include "support/strings.hpp"

namespace arcade::prism {

namespace {

/// Line-oriented scanner with comment stripping and simple token helpers.
class Scanner {
public:
    explicit Scanner(const std::string& source) : src_(source) {}

    [[nodiscard]] bool at_end() {
        skip_ws();
        return i_ >= src_.size();
    }

    [[nodiscard]] std::size_t line() const noexcept { return line_; }

    /// Where the next token begins.
    [[nodiscard]] expr::SourcePos position() {
        skip_ws();
        return {i_, line_, i_ - line_start_ + 1};
    }

    /// Peeks the next word without consuming.
    [[nodiscard]] std::string peek_word() {
        const std::size_t save_i = i_;
        const std::size_t save_line = line_;
        const std::size_t save_line_start = line_start_;
        std::string w = word();
        i_ = save_i;
        line_ = save_line;
        line_start_ = save_line_start;
        return w;
    }

    /// Consumes an identifier-like word.
    std::string word() {
        skip_ws();
        std::size_t j = i_;
        while (j < src_.size() &&
               (std::isalnum(static_cast<unsigned char>(src_[j])) != 0 || src_[j] == '_')) {
            ++j;
        }
        if (j == i_) fail("expected a word");
        std::string w = src_.substr(i_, j - i_);
        i_ = j;
        return w;
    }

    /// Consumes exactly `text` (after whitespace) or fails.
    void expect(const std::string& text) {
        skip_ws();
        if (src_.compare(i_, text.size(), text) != 0) {
            fail("expected '" + text + "'");
        }
        advance(text.size());
    }

    /// Consumes `text` if present.
    bool accept(const std::string& text) {
        skip_ws();
        if (src_.compare(i_, text.size(), text) == 0) {
            // keywords must not swallow identifier prefixes
            if (std::isalpha(static_cast<unsigned char>(text[0])) != 0) {
                const std::size_t after = i_ + text.size();
                if (after < src_.size() &&
                    (std::isalnum(static_cast<unsigned char>(src_[after])) != 0 ||
                     src_[after] == '_')) {
                    return false;
                }
            }
            advance(text.size());
            return true;
        }
        return false;
    }

    /// Where the most recent until()/until_arrow() slice began — the origin
    /// expression parsing stamps its nodes and locates its errors with.
    [[nodiscard]] const expr::SourcePos& last_origin() const noexcept { return last_origin_; }

    /// Reads raw text up to (not including) the delimiter character,
    /// balancing parentheses so that e.g. ';' inside parens is skipped.
    std::string until(char delim) {
        skip_ws();
        mark_origin();
        std::size_t depth = 0;
        std::size_t j = i_;
        while (j < src_.size()) {
            const char c = src_[j];
            if (c == '(') {
                ++depth;
            } else if (c == ')') {
                if (depth == 0) break;
                --depth;
            } else if (depth == 0 && c == delim) {
                break;
            } else if (c == '/' && j + 1 < src_.size() && src_[j + 1] == '/') {
                while (j < src_.size() && src_[j] != '\n') ++j;
                continue;
            }
            ++j;
        }
        std::string out = src_.substr(i_, j - i_);
        advance(j - i_);
        return std::string(trim(out));
    }

    /// Reads raw text up to (not including) the token "->" at paren depth 0.
    /// Needed for guards, where a bare '-' may be a subtraction.
    std::string until_arrow() {
        skip_ws();
        mark_origin();
        std::size_t depth = 0;
        std::size_t j = i_;
        while (j < src_.size()) {
            const char c = src_[j];
            if (c == '(') ++depth;
            if (c == ')' && depth > 0) --depth;
            if (depth == 0 && c == '-' && j + 1 < src_.size() && src_[j + 1] == '>') break;
            if (c == '/' && j + 1 < src_.size() && src_[j + 1] == '/') {
                while (j < src_.size() && src_[j] != '\n') ++j;
                continue;
            }
            ++j;
        }
        std::string out = src_.substr(i_, j - i_);
        advance(j - i_);
        return std::string(trim(out));
    }

    /// Reads a quoted string "...".
    std::string quoted() {
        expect("\"");
        std::size_t j = i_;
        while (j < src_.size() && src_[j] != '"') ++j;
        if (j >= src_.size()) fail("unterminated string");
        std::string out = src_.substr(i_, j - i_);
        advance(j - i_ + 1);
        return out;
    }

    [[noreturn]] void fail(const std::string& message) {
        throw ParseError(message, line_, 1);
    }

private:
    const std::string& src_;
    std::size_t i_ = 0;
    std::size_t line_ = 1;
    std::size_t line_start_ = 0;  ///< byte offset where line_ begins
    expr::SourcePos last_origin_;

    void mark_origin() { last_origin_ = position(); }

    void advance(std::size_t n) {
        for (std::size_t k = 0; k < n && i_ < src_.size(); ++k, ++i_) {
            if (src_[i_] == '\n') {
                ++line_;
                line_start_ = i_ + 1;
            }
        }
    }

    void skip_ws() {
        while (i_ < src_.size()) {
            const char c = src_[i_];
            if (c == '/' && i_ + 1 < src_.size() && src_[i_ + 1] == '/') {
                while (i_ < src_.size() && src_[i_] != '\n') ++i_;
            } else if (std::isspace(static_cast<unsigned char>(c)) != 0) {
                advance(1);
            } else {
                break;
            }
        }
    }
};

/// Largest expansion of one formula use: the nodes its formula bodies
/// contribute.  Formulas that double at every definition grow
/// exponentially with the file; no model comes near.
constexpr std::size_t kMaxExpandedNodes = std::size_t{1} << 16;

/// The formulas defined so far, substituted syntactically where an
/// expression names one, as in PRISM.  A body is kept as written and
/// expanded at each use against the formulas defined by then, so it may
/// name a formula defined after it.  A formula that reaches itself, or an
/// expansion past kMaxExpandedNodes nodes or expr::kMaxTreeDepth levels
/// from the root (the parser's bound on every tree), is a ParseError.
/// Expanded nodes keep the offsets of the text they came from.
class Formulas {
public:
    explicit Formulas(const std::string& source) : source_(source) {}

    /// Defines `name` by `body`, parsed at byte `offset`; the parser
    /// rejects a second definition of a name before it gets here.
    void define(const std::string& name, expr::Expr body, std::size_t offset) {
        definitions_.emplace(name, Definition{std::move(body), offset});
    }

    /// `e` with every formula it names expanded; those formulas count as used.
    expr::Expr expand(const expr::Expr& e) {
        expanding_.clear();
        nodes_ = 0;
        return expand(e, 0);
    }

    /// Name and body offset of every formula no expansion reached, by name.
    [[nodiscard]] std::vector<std::pair<std::string, std::size_t>> unused() const {
        std::vector<std::pair<std::string, std::size_t>> out;
        for (const auto& [name, definition] : definitions_) {
            if (!definition.used) out.emplace_back(name, definition.offset);
        }
        return out;
    }

private:
    struct Definition {
        expr::Expr body;
        std::size_t offset;
        bool used = false;
    };
    using Entry = std::pair<const std::string, Definition>;

    const std::string& source_;
    std::map<std::string, Definition> definitions_;
    std::vector<const Entry*> expanding_;  ///< formulas open in expand(), outermost first
    std::size_t nodes_ = 0;                ///< nodes formula bodies gave this expansion

    [[noreturn]] void fail(const std::string& message, std::size_t offset) const {
        const expr::SourcePos at = expr::locate(source_, offset);
        throw ParseError(message + " at byte offset " + std::to_string(offset), at.line,
                         at.column);
    }

    /// `e`, which sits `level` nodes below the root, expanded.
    expr::Expr expand(const expr::Expr& e, std::size_t level) {
        using namespace expr;
        if (e.empty()) return e;
        const auto& n = e.node();
        if (const auto* id = std::get_if<Identifier>(&n)) {
            const auto it = definitions_.find(id->name);
            if (it != definitions_.end()) return expand_formula(*it, e.offset(), level);
        }
        if (!expanding_.empty()) {
            const Entry& outermost = *expanding_.front();
            if (++nodes_ > kMaxExpandedNodes) {
                fail("formula '" + outermost.first + "' expands to more than " +
                         std::to_string(kMaxExpandedNodes) + " nodes",
                     outermost.second.offset);
            }
            if (level >= expr::kMaxTreeDepth) {
                fail("formula '" + outermost.first + "' expands deeper than " +
                         std::to_string(expr::kMaxTreeDepth) + " levels",
                     outermost.second.offset);
            }
        }
        ++level;
        if (std::get_if<Identifier>(&n) != nullptr || std::get_if<Literal>(&n) != nullptr) {
            return e;
        }
        if (const auto* u = std::get_if<Unary>(&n)) {
            return Expr::unary(u->op, expand(u->operand, level)).with_offset(e.offset());
        }
        if (const auto* b = std::get_if<Binary>(&n)) {
            return Expr::binary(b->op, expand(b->lhs, level), expand(b->rhs, level))
                .with_offset(e.offset());
        }
        const auto& ite_node = std::get<Ite>(n);
        return Expr::ite(expand(ite_node.cond, level), expand(ite_node.then_branch, level),
                         expand(ite_node.else_branch, level))
            .with_offset(e.offset());
    }

    /// Expands a use, at byte `use_offset`, of the formula `formula`.
    expr::Expr expand_formula(Entry& formula, std::size_t use_offset, std::size_t level) {
        const auto open = std::find(expanding_.begin(), expanding_.end(), &formula);
        if (open != expanding_.end()) {
            std::string cycle;
            for (auto it = open; it != expanding_.end(); ++it) cycle += (*it)->first + " -> ";
            fail("formula '" + formula.first + "' is defined in terms of itself (" + cycle +
                     formula.first + ")",
                 use_offset);
        }
        formula.second.used = true;
        expanding_.push_back(&formula);
        expr::Expr out = expand(formula.second.body, level);
        expanding_.pop_back();
        return out;
    }
};

/// Evaluates a constant expression against already-known constants.
class ConstEnv final : public expr::Environment {
public:
    explicit ConstEnv(const std::map<std::string, expr::Value>& constants)
        : constants_(constants) {}
    [[nodiscard]] expr::Value lookup(const std::string& name) const override {
        const auto it = constants_.find(name);
        if (it == constants_.end()) {
            throw ModelError("unknown constant '" + name + "'");
        }
        return it->second;
    }

private:
    const std::map<std::string, expr::Value>& constants_;
};

}  // namespace

modules::ModuleSystem parse_prism(const std::string& source, PrismParseInfo* info) {
    Scanner sc(source);
    modules::ModuleSystem system;
    Formulas formulas(source);
    ConstEnv const_env(system.constants);

    if (!sc.accept("ctmc")) {
        sc.fail("model must start with 'ctmc' (only CTMC mode is supported)");
    }

    auto parse_expr_text = [&](const std::string& text) {
        return formulas.expand(expr::parse_expression(text, sc.last_origin()));
    };
    // Reads the name a definition of `kind` introduces, quoted for labels
    // and reward structures.  A name defined twice within one kind is a
    // ParseError at the second definition: PRISM has no redefinition, and
    // a map would silently keep the first.  Variables are global across
    // modules.
    std::map<std::string, std::set<std::string>> defined;  // kind -> names
    auto define_name = [&](const std::string& kind, bool quoted = false) {
        const expr::SourcePos at = sc.position();
        std::string name = quoted ? sc.quoted() : sc.word();
        if (!defined[kind].insert(name).second) {
            throw ParseError("duplicate " + kind + " '" + name + "'", at.line, at.column);
        }
        return name;
    };

    while (!sc.at_end()) {
        const std::string kw = sc.peek_word();
        if (kw == "const") {
            sc.word();
            std::string type = sc.peek_word();
            bool is_double = false;
            bool is_bool = false;
            if (type == "double" || type == "int" || type == "bool") {
                sc.word();
                is_double = type == "double";
                is_bool = type == "bool";
            }
            const std::string name = define_name("constant");
            sc.expect("=");
            const std::string body = sc.until(';');
            sc.expect(";");
            const expr::Value v = parse_expr_text(body).evaluate(const_env);
            if (is_double) {
                system.constants.emplace(name, expr::Value(v.as_double()));
            } else if (is_bool) {
                system.constants.emplace(name, expr::Value(v.as_bool()));
            } else {
                system.constants.emplace(name, v);
            }
        } else if (kw == "formula") {
            sc.word();
            const std::string name = define_name("formula");
            sc.expect("=");
            const std::string body = sc.until(';');
            const expr::SourcePos origin = sc.last_origin();
            sc.expect(";");
            formulas.define(name, expr::parse_expression(body, origin), origin.offset);
        } else if (kw == "module") {
            sc.word();
            modules::Module module;
            module.name = define_name("module");
            while (!sc.accept("endmodule")) {
                if (sc.accept("[")) {
                    // command
                    modules::Command cmd;
                    if (!sc.accept("]")) {
                        cmd.action = sc.word();
                        sc.expect("]");
                    }
                    const std::string guard_text = sc.until_arrow();
                    sc.expect("->");
                    cmd.guard = parse_expr_text(guard_text);
                    // alternatives separated by '+': rate : updates
                    while (true) {
                        modules::Alternative alt;
                        const std::string rate_text = sc.until(':');
                        sc.expect(":");
                        alt.rate = parse_expr_text(rate_text);
                        // updates: (x'=e) & (y'=f)  or the keyword true
                        if (sc.accept("true")) {
                            // no assignments
                        } else {
                            while (true) {
                                sc.expect("(");
                                const std::string var = sc.word();
                                sc.expect("'");
                                sc.expect("=");
                                const std::string val_text = sc.until(')');
                                sc.expect(")");
                                alt.assignments.push_back(
                                    modules::Assignment{var, parse_expr_text(val_text)});
                                if (!sc.accept("&")) break;
                            }
                        }
                        cmd.alternatives.push_back(std::move(alt));
                        if (sc.accept("+")) continue;
                        sc.expect(";");
                        break;
                    }
                    module.commands.push_back(std::move(cmd));
                } else {
                    // variable declaration: name : [lo..hi] init e;  |  name : bool init e;
                    modules::VarDecl var;
                    var.name = define_name("variable");
                    sc.expect(":");
                    if (sc.accept("bool")) {
                        var.type = modules::VarType::Bool;
                        var.low = 0;
                        var.high = 1;
                    } else {
                        sc.expect("[");
                        const std::string lo = sc.until('.');
                        sc.expect("..");
                        const std::string hi = sc.until(']');
                        sc.expect("]");
                        var.type = modules::VarType::Int;
                        var.low = parse_expr_text(lo).evaluate(const_env).as_int();
                        var.high = parse_expr_text(hi).evaluate(const_env).as_int();
                    }
                    if (sc.accept("init")) {
                        const std::string init_text = sc.until(';');
                        const expr::Value v = parse_expr_text(init_text).evaluate(const_env);
                        var.init = v.is_bool() ? static_cast<long long>(v.as_bool()) : v.as_int();
                    } else {
                        var.init = var.low;
                    }
                    sc.expect(";");
                    module.variables.push_back(std::move(var));
                }
            }
            system.modules.push_back(std::move(module));
        } else if (kw == "label") {
            sc.word();
            const std::string name = define_name("label", /*quoted=*/true);
            sc.expect("=");
            const std::string body = sc.until(';');
            sc.expect(";");
            system.labels.emplace(name, parse_expr_text(body));
        } else if (kw == "rewards") {
            sc.word();
            modules::RewardDecl decl;
            decl.name = define_name("reward structure", /*quoted=*/true);
            while (!sc.accept("endrewards")) {
                modules::RewardItem item;
                const std::string guard_text = sc.until(':');
                sc.expect(":");
                item.guard = parse_expr_text(guard_text);
                const std::string rate_text = sc.until(';');
                sc.expect(";");
                item.rate = parse_expr_text(rate_text);
                decl.items.push_back(std::move(item));
            }
            system.rewards.push_back(std::move(decl));
        } else {
            sc.fail("unexpected keyword '" + kw + "'");
        }
    }
    // A formula is used when an expansion reached it: named by an
    // expression, or by a used formula's body (transitively).
    if (info != nullptr) info->unused_formulas = formulas.unused();
    return system;
}

}  // namespace arcade::prism
