#include "expr/expr.hpp"

#include <cmath>

#include "support/errors.hpp"
#include "support/strings.hpp"

namespace arcade::expr {

bool Value::as_bool() const {
    if (!is_bool()) throw ModelError("expected boolean value, got " + to_string());
    return std::get<bool>(data_);
}

long long Value::as_int() const {
    if (!is_int()) throw ModelError("expected integer value, got " + to_string());
    return std::get<long long>(data_);
}

double Value::as_double() const {
    if (is_int()) return static_cast<double>(std::get<long long>(data_));
    if (is_double()) return std::get<double>(data_);
    throw ModelError("expected numeric value, got " + to_string());
}

std::string Value::to_string() const {
    if (is_bool()) return std::get<bool>(data_) ? "true" : "false";
    if (is_int()) return std::to_string(std::get<long long>(data_));
    return format_double(std::get<double>(data_));
}

bool operator==(const Value& a, const Value& b) {
    if (a.is_bool() != b.is_bool()) return false;
    if (a.is_bool()) return std::get<bool>(a.data_) == std::get<bool>(b.data_);
    if (a.is_int() && b.is_int()) return std::get<long long>(a.data_) == std::get<long long>(b.data_);
    return a.as_double() == b.as_double();
}

const std::variant<Literal, Identifier, Unary, Binary, Ite>& Expr::node() const {
    ARCADE_ASSERT(node_ != nullptr, "dereferencing empty expression");
    return node_->v;
}

std::size_t Expr::offset() const noexcept { return node_ == nullptr ? npos : node_->offset; }

Expr Expr::with_offset(std::size_t offset) const {
    if (node_ == nullptr || node_->offset == offset) return *this;
    return Expr(std::make_shared<Node>(Node{node_->v, offset}));
}

namespace {

/// The literal value of `e`, or nullptr when `e` is not a literal node.
const Value* literal_value(const Expr& e) {
    if (e.empty()) return nullptr;
    const auto* lit = std::get_if<Literal>(&e.node());
    return lit == nullptr ? nullptr : &lit->value;
}

}  // namespace

Expr Expr::literal(Value v) { return Expr(std::make_shared<Node>(Node{Literal{v}})); }
Expr Expr::boolean(bool b) { return literal(Value(b)); }
Expr Expr::integer(long long i) { return literal(Value(i)); }
Expr Expr::real(double d) { return literal(Value(d)); }
Expr Expr::identifier(std::string name) {
    return Expr(std::make_shared<Node>(Node{Identifier{std::move(name)}}));
}
Expr Expr::unary(UnaryOp op, Expr operand) {
    if (const Value* v = literal_value(operand)) {
        // Ill-typed literals (e.g. !3) keep their node so the error still
        // surfaces at evaluation time.
        try {
            return literal(apply_unary(op, *v));
        } catch (const ModelError&) {
        }
    }
    return Expr(std::make_shared<Node>(Node{Unary{op, std::move(operand)}}));
}
Expr Expr::binary(BinaryOp op, Expr lhs, Expr rhs) {
    const Value* lv = literal_value(lhs);
    // Short-circuit operators fold on a boolean literal lhs only: the rhs of
    // `false & g` is provably never evaluated, and `true & g` reduces to g
    // itself.  A literal rhs must NOT fold (`g & false` still evaluates g
    // first and must keep raising g's errors).
    if (lv != nullptr && lv->is_bool()) {
        if (op == BinaryOp::And) return lv->as_bool() ? rhs : boolean(false);
        if (op == BinaryOp::Or) return lv->as_bool() ? boolean(true) : rhs;
    }
    if (lv != nullptr && op != BinaryOp::And && op != BinaryOp::Or) {
        if (const Value* rv = literal_value(rhs)) {
            try {
                return literal(apply_binary(op, *lv, *rv));
            } catch (const ModelError&) {
                // e.g. 1/0 or 1 < true: keep the node, error stays at eval.
            }
        }
    }
    return Expr(std::make_shared<Node>(Node{Binary{op, std::move(lhs), std::move(rhs)}}));
}
Expr Expr::ite(Expr cond, Expr then_branch, Expr else_branch) {
    if (const Value* cv = literal_value(cond)) {
        if (cv->is_bool()) return cv->as_bool() ? then_branch : else_branch;
    }
    return Expr(std::make_shared<Node>(
        Node{Ite{std::move(cond), std::move(then_branch), std::move(else_branch)}}));
}

Value apply_binary(BinaryOp op, const Value& a, const Value& b) {
    switch (op) {
        case BinaryOp::Add:
        case BinaryOp::Sub:
        case BinaryOp::Mul:
        case BinaryOp::Min:
        case BinaryOp::Max: {
            if (a.is_int() && b.is_int()) {
                const long long x = a.as_int();
                const long long y = b.as_int();
                if (op == BinaryOp::Min) return Value(x < y ? x : y);
                if (op == BinaryOp::Max) return Value(x > y ? x : y);
                long long r = 0;
                const bool overflow = op == BinaryOp::Add   ? __builtin_add_overflow(x, y, &r)
                                      : op == BinaryOp::Sub ? __builtin_sub_overflow(x, y, &r)
                                                            : __builtin_mul_overflow(x, y, &r);
                if (overflow) throw ModelError("integer overflow");
                return Value(r);
            }
            const double x = a.as_double();
            const double y = b.as_double();
            switch (op) {
                case BinaryOp::Add: return Value(x + y);
                case BinaryOp::Sub: return Value(x - y);
                case BinaryOp::Mul: return Value(x * y);
                case BinaryOp::Min: return Value(x < y ? x : y);
                case BinaryOp::Max: return Value(x > y ? x : y);
                default: break;
            }
            break;
        }
        case BinaryOp::Div: {
            const double y = b.as_double();
            if (y == 0.0) throw ModelError("division by zero");
            return Value(a.as_double() / y);
        }
        case BinaryOp::Pow:
            return Value(std::pow(a.as_double(), b.as_double()));
        case BinaryOp::Eq: return Value(a == b);
        case BinaryOp::Ne: return Value(!(a == b));
        case BinaryOp::Lt: return Value(a.as_double() < b.as_double());
        case BinaryOp::Le: return Value(a.as_double() <= b.as_double());
        case BinaryOp::Gt: return Value(a.as_double() > b.as_double());
        case BinaryOp::Ge: return Value(a.as_double() >= b.as_double());
        case BinaryOp::And: return Value(a.as_bool() && b.as_bool());
        case BinaryOp::Or: return Value(a.as_bool() || b.as_bool());
        case BinaryOp::Implies: return Value(!a.as_bool() || b.as_bool());
        case BinaryOp::Iff: return Value(a.as_bool() == b.as_bool());
    }
    throw ModelError("unhandled binary operator");
}

namespace {

/// A floored or ceiled double as an int; NaN and values outside the int64
/// range (where the cast would be undefined) are an overflow.
long long checked_integer(double d) {
    if (!(d >= -0x1p63 && d < 0x1p63)) throw ModelError("integer overflow");
    return static_cast<long long>(d);
}

}  // namespace

Value apply_unary(UnaryOp op, const Value& a) {
    switch (op) {
        case UnaryOp::Neg:
            if (a.is_int()) {
                long long r = 0;
                if (__builtin_sub_overflow(0LL, a.as_int(), &r)) {
                    throw ModelError("integer overflow");
                }
                return Value(r);
            }
            return Value(-a.as_double());
        case UnaryOp::Not: return Value(!a.as_bool());
        case UnaryOp::Floor: return Value(checked_integer(std::floor(a.as_double())));
        case UnaryOp::Ceil: return Value(checked_integer(std::ceil(a.as_double())));
    }
    throw ModelError("unhandled unary operator");
}

namespace {

const char* binary_symbol(BinaryOp op) {
    switch (op) {
        case BinaryOp::Add: return "+";
        case BinaryOp::Sub: return "-";
        case BinaryOp::Mul: return "*";
        case BinaryOp::Div: return "/";
        case BinaryOp::Eq: return "=";
        case BinaryOp::Ne: return "!=";
        case BinaryOp::Lt: return "<";
        case BinaryOp::Le: return "<=";
        case BinaryOp::Gt: return ">";
        case BinaryOp::Ge: return ">=";
        case BinaryOp::And: return "&";
        case BinaryOp::Or: return "|";
        case BinaryOp::Implies: return "=>";
        case BinaryOp::Iff: return "<=>";
        case BinaryOp::Min: return "min";
        case BinaryOp::Max: return "max";
        case BinaryOp::Pow: return "pow";
    }
    return "?";
}

/// The precedence level of a left-associative operator (the parser's
/// loops: `* /`, `+ -`, `&`, `|`, `<=>`), or 0 for any other operator.
int chain_level(BinaryOp op) {
    switch (op) {
        case BinaryOp::Mul:
        case BinaryOp::Div: return 1;
        case BinaryOp::Add:
        case BinaryOp::Sub: return 2;
        case BinaryOp::And: return 3;
        case BinaryOp::Or: return 4;
        case BinaryOp::Iff: return 5;
        default: return 0;
    }
}

/// `lhs op rhs` of an infix node, unparenthesised.  A left operand that is
/// a left-associative operator of the node's own level prints the same way,
/// so `(a + b) - c` reads `a + b - c`: the parser's loop builds the same
/// tree back, and a long chain nests one parenthesis deep instead of one
/// per term.  Right operands keep their parentheses.
std::string infix_string(const Binary& b) {
    const auto* left = b.lhs.empty() ? nullptr : std::get_if<Binary>(&b.lhs.node());
    const int level = chain_level(b.op);
    std::string out = level != 0 && left != nullptr && chain_level(left->op) == level
                          ? infix_string(*left)
                          : b.lhs.to_string();
    out += ' ';
    out += binary_symbol(b.op);
    out += ' ';
    out += b.rhs.to_string();
    return out;
}

/// The argument list of a min/max/pow call.  min and max fold their
/// arguments left to right, so a left operand calling the same function
/// prints as leading arguments: min(min(a, b), c) reads min(a, b, c), which
/// parses back to the same tree without one nesting level per argument.
std::string call_arguments(const Binary& b) {
    const auto* left = b.lhs.empty() ? nullptr : std::get_if<Binary>(&b.lhs.node());
    std::string out = b.op != BinaryOp::Pow && left != nullptr && left->op == b.op
                          ? call_arguments(*left)
                          : b.lhs.to_string();
    out += ", ";
    out += b.rhs.to_string();
    return out;
}

void collect_vars(const Expr& e, std::vector<std::string>& out) {
    if (e.empty()) return;
    const auto& n = e.node();
    if (const auto* id = std::get_if<Identifier>(&n)) {
        out.push_back(id->name);
    } else if (const auto* u = std::get_if<Unary>(&n)) {
        collect_vars(u->operand, out);
    } else if (const auto* b = std::get_if<Binary>(&n)) {
        collect_vars(b->lhs, out);
        collect_vars(b->rhs, out);
    } else if (const auto* i = std::get_if<Ite>(&n)) {
        collect_vars(i->cond, out);
        collect_vars(i->then_branch, out);
        collect_vars(i->else_branch, out);
    }
}

}  // namespace

Value Expr::evaluate(const Environment& env) const {
    const auto& n = node();
    if (const auto* lit = std::get_if<Literal>(&n)) return lit->value;
    if (const auto* id = std::get_if<Identifier>(&n)) return env.lookup(id->name);
    if (const auto* u = std::get_if<Unary>(&n)) {
        return apply_unary(u->op, u->operand.evaluate(env));
    }
    if (const auto* b = std::get_if<Binary>(&n)) {
        // Short-circuit booleans so guards can protect partial expressions.
        if (b->op == BinaryOp::And) {
            if (!b->lhs.evaluate(env).as_bool()) return Value(false);
            return Value(b->rhs.evaluate(env).as_bool());
        }
        if (b->op == BinaryOp::Or) {
            if (b->lhs.evaluate(env).as_bool()) return Value(true);
            return Value(b->rhs.evaluate(env).as_bool());
        }
        // Fixed lhs-then-rhs order (function arguments would be unspecified),
        // so the interpreter and the VM raise errors from the same operand.
        const Value lv = b->lhs.evaluate(env);
        const Value rv = b->rhs.evaluate(env);
        return apply_binary(b->op, lv, rv);
    }
    const auto& ite_node = std::get<Ite>(n);
    return ite_node.cond.evaluate(env).as_bool() ? ite_node.then_branch.evaluate(env)
                                                 : ite_node.else_branch.evaluate(env);
}

std::string Expr::to_string() const {
    if (empty()) return "<empty>";
    const auto& n = node();
    if (const auto* lit = std::get_if<Literal>(&n)) return lit->value.to_string();
    if (const auto* id = std::get_if<Identifier>(&n)) return id->name;
    if (const auto* u = std::get_if<Unary>(&n)) {
        switch (u->op) {
            case UnaryOp::Neg: return "-(" + u->operand.to_string() + ")";
            case UnaryOp::Not: return "!(" + u->operand.to_string() + ")";
            case UnaryOp::Floor: return "floor(" + u->operand.to_string() + ")";
            case UnaryOp::Ceil: return "ceil(" + u->operand.to_string() + ")";
        }
    }
    if (const auto* b = std::get_if<Binary>(&n)) {
        if (b->op == BinaryOp::Min || b->op == BinaryOp::Max || b->op == BinaryOp::Pow) {
            std::string out = binary_symbol(b->op);
            out += '(';
            out += call_arguments(*b);
            out += ')';
            return out;
        }
        std::string out = "(";
        out += infix_string(*b);
        out += ')';
        return out;
    }
    const auto& ite_node = std::get<Ite>(n);
    std::string out = "(";
    out += ite_node.cond.to_string() + " ? " + ite_node.then_branch.to_string() + " : " +
           ite_node.else_branch.to_string() + ")";
    return out;
}

std::vector<std::string> Expr::free_variables() const {
    std::vector<std::string> out;
    collect_vars(*this, out);
    return out;
}

}  // namespace arcade::expr
