// Pratt parser for the PRISM-style expression syntax (see expr.hpp).
// Nesting is bounded (kMaxDepth), so hostile input cannot exhaust the stack.
#include <algorithm>
#include <cctype>
#include <optional>
#include <string_view>

#include "expr/expr.hpp"
#include "support/errors.hpp"

namespace arcade::expr {

namespace {

enum class TokenKind {
    Number, Identifier, True, False,
    Plus, Minus, Star, Slash,
    Eq, Ne, Lt, Le, Gt, Ge,
    And, Or, Not, Implies, Iff,
    LParen, RParen, Comma, Question, Colon,
    End,
};

struct Token {
    TokenKind kind;
    std::string text;
    std::size_t pos = 0;
};

/// The ParseError for byte `pos` of `text`, which starts at `origin`.
ParseError error_at(const std::string& message, const std::string& text, std::size_t pos,
                    const SourcePos& origin) {
    const SourcePos at = locate(text, pos, origin);
    return ParseError(message, at.line, at.column);
}

class Lexer {
public:
    Lexer(const std::string& text, const SourcePos& origin) : text_(text), origin_(origin) {}

    Token next() {
        skip_space();
        const std::size_t pos = i_;
        if (i_ >= text_.size()) return {TokenKind::End, "", pos};
        const char c = text_[i_];
        if (std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '.') return number(pos);
        if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') return word(pos);
        ++i_;
        switch (c) {
            case '+': return {TokenKind::Plus, "+", pos};
            case '-': return {TokenKind::Minus, "-", pos};
            case '*': return {TokenKind::Star, "*", pos};
            case '/': return {TokenKind::Slash, "/", pos};
            case '(': return {TokenKind::LParen, "(", pos};
            case ')': return {TokenKind::RParen, ")", pos};
            case ',': return {TokenKind::Comma, ",", pos};
            case '?': return {TokenKind::Question, "?", pos};
            case ':': return {TokenKind::Colon, ":", pos};
            case '&': return {TokenKind::And, "&", pos};
            case '|': return {TokenKind::Or, "|", pos};
            case '=': {
                if (peek('>')) {
                    ++i_;
                    return {TokenKind::Implies, "=>", pos};
                }
                if (peek('=')) ++i_;  // accept both = and ==
                return {TokenKind::Eq, "=", pos};
            }
            case '!':
                if (peek('=')) {
                    ++i_;
                    return {TokenKind::Ne, "!=", pos};
                }
                return {TokenKind::Not, "!", pos};
            case '<':
                if (peek('=')) {
                    ++i_;
                    if (peek('>')) {
                        ++i_;
                        return {TokenKind::Iff, "<=>", pos};
                    }
                    return {TokenKind::Le, "<=", pos};
                }
                return {TokenKind::Lt, "<", pos};
            case '>':
                if (peek('=')) {
                    ++i_;
                    return {TokenKind::Ge, ">=", pos};
                }
                return {TokenKind::Gt, ">", pos};
            default:
                throw error_at(std::string("unexpected character '") + c + "' in expression",
                               text_, pos, origin_);
        }
    }

private:
    const std::string& text_;
    SourcePos origin_;
    std::size_t i_ = 0;

    void skip_space() {
        while (i_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[i_])) != 0) ++i_;
    }
    [[nodiscard]] bool peek(char c) const { return i_ < text_.size() && text_[i_] == c; }

    Token number(std::size_t pos) {
        std::size_t j = i_;
        bool has_dot = false;
        bool has_exp = false;
        while (j < text_.size()) {
            const char c = text_[j];
            if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
                ++j;
            } else if (c == '.' && !has_dot && !has_exp) {
                has_dot = true;
                ++j;
            } else if ((c == 'e' || c == 'E') && !has_exp && j > i_) {
                has_exp = true;
                ++j;
                if (j < text_.size() && (text_[j] == '+' || text_[j] == '-')) ++j;
            } else {
                break;
            }
        }
        Token t{TokenKind::Number, text_.substr(i_, j - i_), pos};
        i_ = j;
        return t;
    }

    Token word(std::size_t pos) {
        std::size_t j = i_;
        while (j < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[j])) != 0 || text_[j] == '_')) {
            ++j;
        }
        std::string w = text_.substr(i_, j - i_);
        i_ = j;
        if (w == "true") return {TokenKind::True, w, pos};
        if (w == "false") return {TokenKind::False, w, pos};
        return {TokenKind::Identifier, w, pos};
    }
};

/// Deepest nesting of parentheses, conditionals and prefix/right-
/// associative operators the parser accepts; model expressions nest a few
/// levels.
constexpr std::size_t kMaxDepth = 256;

class Parser {
public:
    Parser(const std::string& text, const SourcePos& origin)
        : text_(text), origin_(origin), lexer_(text, origin) {
        advance();
    }

    Expr parse() {
        Expr e = parse_ternary();
        expect(TokenKind::End, "end of expression");
        return e;
    }

private:
    const std::string& text_;
    SourcePos origin_;
    Lexer lexer_;
    Token current_;
    std::size_t depth_ = 0;  ///< nesting levels open on the stack

    void advance() { current_ = lexer_.next(); }

    [[noreturn]] void fail(const std::string& message, std::size_t pos) const {
        throw error_at(message, text_, pos, origin_);
    }

    /// One nesting level for the lifetime of the scope.  Every recursion of
    /// the grammar opens one: parse_ternary (parentheses, call arguments,
    /// conditional branches) and the right operands of !, unary - and =>.
    class Nested {
    public:
        explicit Nested(Parser& parser) : depth_(parser.depth_) {
            if (++depth_ > kMaxDepth) {
                parser.fail("expression nested deeper than " + std::to_string(kMaxDepth) +
                                " levels",
                            parser.current_.pos);
            }
        }
        ~Nested() { --depth_; }
        Nested(const Nested&) = delete;
        Nested& operator=(const Nested&) = delete;

    private:
        std::size_t& depth_;
    };

    /// Stamps a parsed (sub)expression with its source byte offset.  After a
    /// constant fold the composite may BE one of its operands; re-stamping
    /// with the construct's start still points inside the right text.
    Expr at(std::size_t pos, Expr e) const { return e.with_offset(origin_.offset + pos); }

    void expect(TokenKind kind, const std::string& what) {
        if (current_.kind != kind) {
            fail("expected " + what + " but found '" + current_.text + "'", current_.pos);
        }
        advance();
    }

    Expr parse_ternary() {
        const Nested nested(*this);
        const std::size_t start = current_.pos;
        Expr cond = parse_iff();
        if (current_.kind == TokenKind::Question) {
            advance();
            Expr a = parse_ternary();
            expect(TokenKind::Colon, "':'");
            Expr b = parse_ternary();
            return at(start, Expr::ite(std::move(cond), std::move(a), std::move(b)));
        }
        return cond;
    }

    Expr parse_iff() {
        const std::size_t start = current_.pos;
        Expr lhs = parse_implies();
        while (current_.kind == TokenKind::Iff) {
            advance();
            lhs = at(start, Expr::binary(BinaryOp::Iff, std::move(lhs), parse_implies()));
        }
        return lhs;
    }

    Expr parse_implies() {
        const std::size_t start = current_.pos;
        Expr lhs = parse_or();
        if (current_.kind == TokenKind::Implies) {  // right-associative
            const Nested nested(*this);
            advance();
            return at(start, Expr::binary(BinaryOp::Implies, std::move(lhs), parse_implies()));
        }
        return lhs;
    }

    Expr parse_or() {
        const std::size_t start = current_.pos;
        Expr lhs = parse_and();
        while (current_.kind == TokenKind::Or) {
            advance();
            lhs = at(start, Expr::binary(BinaryOp::Or, std::move(lhs), parse_and()));
        }
        return lhs;
    }

    Expr parse_and() {
        const std::size_t start = current_.pos;
        Expr lhs = parse_not();
        while (current_.kind == TokenKind::And) {
            advance();
            lhs = at(start, Expr::binary(BinaryOp::And, std::move(lhs), parse_not()));
        }
        return lhs;
    }

    Expr parse_not() {
        if (current_.kind == TokenKind::Not) {
            const Nested nested(*this);
            const std::size_t start = current_.pos;
            advance();
            return at(start, Expr::unary(UnaryOp::Not, parse_not()));
        }
        return parse_comparison();
    }

    Expr parse_comparison() {
        const std::size_t start = current_.pos;
        Expr lhs = parse_additive();
        const auto op = [&]() -> std::optional<BinaryOp> {
            switch (current_.kind) {
                case TokenKind::Eq: return BinaryOp::Eq;
                case TokenKind::Ne: return BinaryOp::Ne;
                case TokenKind::Lt: return BinaryOp::Lt;
                case TokenKind::Le: return BinaryOp::Le;
                case TokenKind::Gt: return BinaryOp::Gt;
                case TokenKind::Ge: return BinaryOp::Ge;
                default: return std::nullopt;
            }
        }();
        if (op) {
            advance();
            return at(start, Expr::binary(*op, std::move(lhs), parse_additive()));
        }
        return lhs;
    }

    Expr parse_additive() {
        const std::size_t start = current_.pos;
        Expr lhs = parse_multiplicative();
        while (current_.kind == TokenKind::Plus || current_.kind == TokenKind::Minus) {
            const BinaryOp op =
                current_.kind == TokenKind::Plus ? BinaryOp::Add : BinaryOp::Sub;
            advance();
            lhs = at(start, Expr::binary(op, std::move(lhs), parse_multiplicative()));
        }
        return lhs;
    }

    Expr parse_multiplicative() {
        const std::size_t start = current_.pos;
        Expr lhs = parse_unary();
        while (current_.kind == TokenKind::Star || current_.kind == TokenKind::Slash) {
            const BinaryOp op =
                current_.kind == TokenKind::Star ? BinaryOp::Mul : BinaryOp::Div;
            advance();
            lhs = at(start, Expr::binary(op, std::move(lhs), parse_unary()));
        }
        return lhs;
    }

    Expr parse_unary() {
        if (current_.kind == TokenKind::Minus) {
            const Nested nested(*this);
            const std::size_t start = current_.pos;
            advance();
            return at(start, Expr::unary(UnaryOp::Neg, parse_unary()));
        }
        return parse_primary();
    }

    Expr parse_primary() {
        const std::size_t start = current_.pos;
        switch (current_.kind) {
            case TokenKind::Number: {
                const std::string text = current_.text;
                advance();
                if (text.find('.') == std::string::npos && text.find('e') == std::string::npos &&
                    text.find('E') == std::string::npos) {
                    return at(start, Expr::integer(std::stoll(text)));
                }
                return at(start, Expr::real(std::stod(text)));
            }
            case TokenKind::True:
                advance();
                return at(start, Expr::boolean(true));
            case TokenKind::False:
                advance();
                return at(start, Expr::boolean(false));
            case TokenKind::Identifier: {
                const std::string name = current_.text;
                advance();
                if (current_.kind == TokenKind::LParen) return at(start, parse_call(name, start));
                return at(start, Expr::identifier(name));
            }
            case TokenKind::LParen: {
                advance();
                Expr e = parse_ternary();
                expect(TokenKind::RParen, "')'");
                return e;
            }
            default:
                fail("unexpected token '" + current_.text + "'", current_.pos);
        }
    }

    Expr parse_call(const std::string& name, std::size_t start) {
        expect(TokenKind::LParen, "'('");
        std::vector<Expr> args;
        if (current_.kind != TokenKind::RParen) {
            args.push_back(parse_ternary());
            while (current_.kind == TokenKind::Comma) {
                advance();
                args.push_back(parse_ternary());
            }
        }
        expect(TokenKind::RParen, "')'");

        auto fold = [&](BinaryOp op) {
            if (args.size() < 2) {
                fail(name + "() needs at least two arguments", start);
            }
            Expr acc = args[0];
            for (std::size_t i = 1; i < args.size(); ++i) {
                acc = Expr::binary(op, std::move(acc), args[i]);
            }
            return acc;
        };
        auto unary1 = [&](UnaryOp op) {
            if (args.size() != 1) fail(name + "() needs exactly one argument", start);
            return Expr::unary(op, args[0]);
        };

        if (name == "min") return fold(BinaryOp::Min);
        if (name == "max") return fold(BinaryOp::Max);
        if (name == "floor") return unary1(UnaryOp::Floor);
        if (name == "ceil") return unary1(UnaryOp::Ceil);
        if (name == "pow") {
            if (args.size() != 2) fail("pow() needs exactly two arguments", start);
            return Expr::binary(BinaryOp::Pow, args[0], args[1]);
        }
        fail("unknown function '" + name + "'", start);
    }
};

}  // namespace

SourcePos locate(std::string_view text, std::size_t pos, const SourcePos& origin) {
    const std::string_view before = text.substr(0, pos);
    const std::size_t newline = before.rfind('\n');
    if (newline == std::string_view::npos) {
        return {origin.offset + pos, origin.line, origin.column + pos};
    }
    const auto lines = static_cast<std::size_t>(std::count(before.begin(), before.end(), '\n'));
    return {origin.offset + pos, origin.line + lines, pos - newline};
}

Expr parse_expression(const std::string& text, SourcePos origin) {
    return Parser(text, origin).parse();
}

}  // namespace arcade::expr
