// Typed expression language for stochastic reactive modules.
//
// Supports int, double and bool values; arithmetic, comparison, boolean
// operators, ite(c,a,b), min/max/floor/ceil/pow, and named variables or
// constants resolved through an Environment.  This is the expression subset
// of the PRISM language that the Arcade translation needs.
#ifndef ARCADE_EXPR_EXPR_HPP
#define ARCADE_EXPR_EXPR_HPP

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace arcade::expr {

/// Runtime value.  Ints stay ints until mixed with doubles.
class Value {
public:
    Value() : data_(false) {}
    explicit Value(bool b) : data_(b) {}
    explicit Value(long long i) : data_(i) {}
    explicit Value(int i) : data_(static_cast<long long>(i)) {}
    explicit Value(double d) : data_(d) {}

    [[nodiscard]] bool is_bool() const noexcept { return std::holds_alternative<bool>(data_); }
    [[nodiscard]] bool is_int() const noexcept {
        return std::holds_alternative<long long>(data_);
    }
    [[nodiscard]] bool is_double() const noexcept {
        return std::holds_alternative<double>(data_);
    }

    [[nodiscard]] bool as_bool() const;
    [[nodiscard]] long long as_int() const;
    [[nodiscard]] double as_double() const;  ///< widens ints

    [[nodiscard]] std::string to_string() const;

    friend bool operator==(const Value& a, const Value& b);

private:
    std::variant<bool, long long, double> data_;
};

/// Variable/constant lookup interface for evaluation.
class Environment {
public:
    virtual ~Environment() = default;
    /// Throws arcade::ModelError for unknown names.
    [[nodiscard]] virtual Value lookup(const std::string& name) const = 0;
};

enum class BinaryOp {
    Add, Sub, Mul, Div,
    Eq, Ne, Lt, Le, Gt, Ge,
    And, Or, Implies, Iff,
    Min, Max, Pow,
};

enum class UnaryOp { Neg, Not, Floor, Ceil };

struct Literal;
struct Identifier;
struct Unary;
struct Binary;
struct Ite;

/// Wrapper around the node variant so Expr can hold it by forward
/// declaration (the node types contain Expr recursively).
struct Node;

/// Shared-ownership expression handle.  Expressions are immutable after
/// construction, so sharing subtrees is safe and cheap.
class Expr {
public:
    /// "No source offset": expressions built programmatically (the Arcade
    /// translation) carry no anchor; parsed expressions carry the byte
    /// offset of each subexpression in the text they came from.
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    Expr() = default;
    explicit Expr(std::shared_ptr<const Node> node) : node_(std::move(node)) {}

    [[nodiscard]] bool empty() const noexcept { return node_ == nullptr; }
    /// The underlying variant; use std::get_if on it.
    [[nodiscard]] const std::variant<Literal, Identifier, Unary, Binary, Ite>& node() const;

    /// Byte offset of this node in the source it was parsed from (mirroring
    /// the byte offsets csl_parser reports in ParseError), or npos when the
    /// expression was built programmatically.  Lint diagnostics use it to
    /// point at the offending subexpression.
    [[nodiscard]] std::size_t offset() const noexcept;

    /// Copy of this expression annotated with a source offset (subtrees keep
    /// their own offsets; sharing is preserved).
    [[nodiscard]] Expr with_offset(std::size_t offset) const;

    /// Evaluates under `env`.  Type errors throw arcade::ModelError.
    [[nodiscard]] Value evaluate(const Environment& env) const;

    /// Pretty-prints with minimal parentheses (round-trips via parse_expression).
    [[nodiscard]] std::string to_string() const;

    /// Names of all identifiers appearing in the expression.
    [[nodiscard]] std::vector<std::string> free_variables() const;

    // Construction helpers.  unary/binary/ite constant-fold literal
    // subtrees (2*0.5 becomes 1, `true & g` becomes g, `false & g` becomes
    // false) — only folds that preserve evaluation semantics exactly are
    // applied: a fold never hides an error the interpreter would raise
    // under short-circuit evaluation, so folded and unfolded trees are
    // observationally identical.
    static Expr literal(Value v);
    static Expr boolean(bool b);
    static Expr integer(long long i);
    static Expr real(double d);
    static Expr identifier(std::string name);
    static Expr unary(UnaryOp op, Expr operand);
    static Expr binary(BinaryOp op, Expr lhs, Expr rhs);
    static Expr ite(Expr cond, Expr then_branch, Expr else_branch);

private:
    std::shared_ptr<const Node> node_;
};

struct Literal {
    Value value;
};
struct Identifier {
    std::string name;
};
struct Unary {
    UnaryOp op;
    Expr operand;
};
struct Binary {
    BinaryOp op;
    Expr lhs;
    Expr rhs;
};
struct Ite {
    Expr cond;
    Expr then_branch;
    Expr else_branch;
};

struct Node {
    std::variant<Literal, Identifier, Unary, Binary, Ite> v;
    /// Source anchor; see Expr::offset().
    std::size_t offset = Expr::npos;
};

/// Applies a binary operator to already-evaluated operands.  Shared by the
/// tree interpreter and the bytecode VM so both produce bit-identical
/// results and throw identical ModelErrors on type mismatches.  Note that
/// And/Or here are the *strict* variants; short-circuiting is the
/// evaluators' responsibility.
[[nodiscard]] Value apply_binary(BinaryOp op, const Value& a, const Value& b);

/// Applies a unary operator (same sharing contract as apply_binary).
[[nodiscard]] Value apply_unary(UnaryOp op, const Value& a);

/// A byte of a source: its offset and its 1-based line and column.
struct SourcePos {
    std::size_t offset = 0;
    std::size_t line = 1;
    std::size_t column = 1;
};

/// Where byte `pos` of `text` lies, `text` starting at `origin` of its
/// source: lines and columns count on from there, past any newline in
/// `text`.
[[nodiscard]] SourcePos locate(std::string_view text, std::size_t pos,
                               const SourcePos& origin = {});

/// Parses the PRISM-style expression syntax:
///   literals: 3, 2.5, true, false
///   operators: ? :, <=>, =>, |, &, !, = !=, < <= > >=, + -, * /, unary -
///   calls: min(a,b,...), max(a,b,...), floor(x), ceil(x), pow(x,y)
/// `text` starts at `origin` of a larger source (the PRISM parser passes
/// slices of a file): every parsed node is stamped with origin.offset plus
/// its byte offset in `text`, and a ParseError names the source's line and
/// column.
[[nodiscard]] Expr parse_expression(const std::string& text, SourcePos origin = {});

}  // namespace arcade::expr

#endif  // ARCADE_EXPR_EXPR_HPP
