#include "analysis/interval.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "support/strings.hpp"

namespace arcade::analysis {

namespace {

using expr::BinaryOp;
using expr::Expr;
using expr::UnaryOp;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Corner product with the 0 * inf corner resolved to 0: concrete values are
/// always finite, so the supremum of x*y over x = 0 is 0 regardless of how
/// unbounded the other interval is.
double corner_mul(double x, double y) {
    const double r = x * y;
    return std::isnan(r) ? 0.0 : r;
}

double corner_pow(double x, double y) {
    const double r = std::pow(x, y);
    return std::isnan(r) ? 0.0 : r;
}

/// Only-an-error abstract value (e.g. division by a provable zero).
AbstractValue failure() {
    AbstractValue v;
    v.may_fail = true;
    return v;
}

/// Arithmetic on the numeric parts.  Callers guarantee both operands have a
/// numeric part; bool parts contribute may_fail in the dispatcher.
AbstractValue numeric_binary(BinaryOp op, const AbstractValue& a, const AbstractValue& b) {
    const bool integral = a.integral && b.integral;
    switch (op) {
        case BinaryOp::Add:
            return AbstractValue::numeric(a.lo + b.lo, a.hi + b.hi, integral);
        case BinaryOp::Sub:
            return AbstractValue::numeric(a.lo - b.hi, a.hi - b.lo, integral);
        case BinaryOp::Mul: {
            const double c[4] = {corner_mul(a.lo, b.lo), corner_mul(a.lo, b.hi),
                                 corner_mul(a.hi, b.lo), corner_mul(a.hi, b.hi)};
            return AbstractValue::numeric(*std::min_element(c, c + 4),
                                          *std::max_element(c, c + 4), integral);
        }
        case BinaryOp::Min:
            return AbstractValue::numeric(std::min(a.lo, b.lo), std::min(a.hi, b.hi),
                                          integral);
        case BinaryOp::Max:
            return AbstractValue::numeric(std::max(a.lo, b.lo), std::max(a.hi, b.hi),
                                          integral);
        case BinaryOp::Div: {
            if (b.lo == 0.0 && b.hi == 0.0) return failure();  // always divides by zero
            if (b.lo <= 0.0 && b.hi >= 0.0) {
                // The denominator interval contains zero: any quotient is
                // possible and evaluation can throw.
                AbstractValue r = AbstractValue::numeric(-kInf, kInf, false);
                r.may_fail = true;
                return r;
            }
            const double c[4] = {a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi};
            return AbstractValue::numeric(*std::min_element(c, c + 4),
                                          *std::max_element(c, c + 4), false);
        }
        case BinaryOp::Pow: {
            if (a.lo < 0.0) return AbstractValue::numeric(-kInf, kInf, false);
            const double c[4] = {corner_pow(a.lo, b.lo), corner_pow(a.lo, b.hi),
                                 corner_pow(a.hi, b.lo), corner_pow(a.hi, b.hi)};
            return AbstractValue::numeric(*std::min_element(c, c + 4),
                                          *std::max_element(c, c + 4), false);
        }
        default: break;
    }
    return AbstractValue::top();
}

/// Ordering comparisons on the numeric parts.
AbstractValue numeric_compare(BinaryOp op, const AbstractValue& a, const AbstractValue& b) {
    switch (op) {
        case BinaryOp::Lt: return AbstractValue::boolean(a.lo < b.hi, a.hi >= b.lo);
        case BinaryOp::Le: return AbstractValue::boolean(a.lo <= b.hi, a.hi > b.lo);
        case BinaryOp::Gt: return AbstractValue::boolean(a.hi > b.lo, a.lo <= b.hi);
        case BinaryOp::Ge: return AbstractValue::boolean(a.hi >= b.lo, a.lo < b.hi);
        default: break;
    }
    return AbstractValue::boolean(true, true);
}

/// Eq/Ne over the full possibility sets.  Value::operator== is total (a bool
/// never equals a number — it compares false, it does not throw).
AbstractValue equality(BinaryOp op, const AbstractValue& a, const AbstractValue& b) {
    const bool numeric_overlap =
        a.has_numeric && b.has_numeric && a.lo <= b.hi && b.lo <= a.hi;
    const bool numeric_pinned =
        a.has_numeric && b.has_numeric && a.lo == a.hi && b.lo == b.hi && a.lo == b.lo;
    const bool eq_possible = numeric_overlap || (a.can_true && b.can_true) ||
                             (a.can_false && b.can_false);
    const bool ne_possible = (a.has_numeric && b.has_numeric && !numeric_pinned) ||
                             (a.can_true && b.can_false) || (a.can_false && b.can_true) ||
                             (a.has_numeric && b.has_bool()) ||
                             (a.has_bool() && b.has_numeric);
    if (op == BinaryOp::Eq) return AbstractValue::boolean(eq_possible, ne_possible);
    return AbstractValue::boolean(ne_possible, eq_possible);
}

BinaryOp negate_comparison(BinaryOp op) {
    switch (op) {
        case BinaryOp::Lt: return BinaryOp::Ge;
        case BinaryOp::Le: return BinaryOp::Gt;
        case BinaryOp::Gt: return BinaryOp::Le;
        case BinaryOp::Ge: return BinaryOp::Lt;
        case BinaryOp::Eq: return BinaryOp::Ne;
        case BinaryOp::Ne: return BinaryOp::Eq;
        default: return op;
    }
}

bool is_comparison(BinaryOp op) {
    switch (op) {
        case BinaryOp::Lt:
        case BinaryOp::Le:
        case BinaryOp::Gt:
        case BinaryOp::Ge:
        case BinaryOp::Eq:
        case BinaryOp::Ne: return true;
        default: return false;
    }
}

/// Intersects the numeric part of `v` with the comparison `v <op> c`.
void refine_numeric(AbstractValue& v, BinaryOp op, double c) {
    if (!v.has_numeric) return;
    switch (op) {
        case BinaryOp::Lt:
            v.hi = std::min(v.hi, v.integral ? std::ceil(c) - 1.0 : c);
            break;
        case BinaryOp::Le: v.hi = std::min(v.hi, v.integral ? std::floor(c) : c); break;
        case BinaryOp::Gt:
            v.lo = std::max(v.lo, v.integral ? std::floor(c) + 1.0 : c);
            break;
        case BinaryOp::Ge: v.lo = std::max(v.lo, v.integral ? std::ceil(c) : c); break;
        case BinaryOp::Eq:
            v.lo = std::max(v.lo, c);
            v.hi = std::min(v.hi, c);
            if (v.integral && c != std::floor(c)) v.hi = v.lo - 1.0;  // empty
            break;
        case BinaryOp::Ne:
            if (v.integral && v.lo == c) v.lo += 1.0;
            if (v.integral && v.hi == c) v.hi -= 1.0;
            break;
        default: return;
    }
    if (v.hi < v.lo) v.has_numeric = false;
}

/// `id <op> literal` (the shape the translation's guards and ite conditions
/// take) — refines the identifier's entry in `env`.
void refine_identifier(AbstractEnv& env, const std::string& name, BinaryOp op,
                       const expr::Value& c) {
    const auto it = env.find(name);
    if (it == env.end()) return;
    AbstractValue& v = it->second;
    if (c.is_bool()) {
        // b = true / b != false and friends.
        const bool want = (op == BinaryOp::Eq) == c.as_bool();
        if (op != BinaryOp::Eq && op != BinaryOp::Ne) return;
        if (want) {
            v.can_false = false;
        } else {
            v.can_true = false;
        }
        return;
    }
    refine_numeric(v, op, c.as_double());
}

/// The literal (or singleton-constant) value of `e` under `env`, if any.
const expr::Value* comparison_constant(const Expr& e, std::optional<expr::Value>& storage,
                                       const AbstractEnv& env) {
    if (e.empty()) return nullptr;
    if (const auto* lit = std::get_if<expr::Literal>(&e.node())) return &lit->value;
    if (const auto* id = std::get_if<expr::Identifier>(&e.node())) {
        const auto it = env.find(id->name);
        if (it != env.end() && it->second.is_singleton()) {
            if (it->second.integral) {
                storage = expr::Value(static_cast<long long>(it->second.lo));
            } else {
                storage = expr::Value(it->second.lo);
            }
            return &*storage;
        }
    }
    return nullptr;
}

BinaryOp flip_comparison(BinaryOp op) {  // a <op> b  ==  b <flip(op)> a
    switch (op) {
        case BinaryOp::Lt: return BinaryOp::Gt;
        case BinaryOp::Le: return BinaryOp::Ge;
        case BinaryOp::Gt: return BinaryOp::Lt;
        case BinaryOp::Ge: return BinaryOp::Le;
        default: return op;  // Eq/Ne are symmetric
    }
}

}  // namespace

AbstractValue AbstractValue::numeric(double lo, double hi, bool integral) {
    AbstractValue v;
    v.has_numeric = true;
    v.lo = lo;
    v.hi = hi;
    v.integral = integral;
    return v;
}

AbstractValue AbstractValue::boolean(bool can_true, bool can_false) {
    AbstractValue v;
    v.can_true = can_true;
    v.can_false = can_false;
    return v;
}

AbstractValue AbstractValue::constant(const expr::Value& v) {
    if (v.is_bool()) return boolean(v.as_bool(), !v.as_bool());
    if (v.is_int()) {
        const double d = static_cast<double>(v.as_int());
        return numeric(d, d, true);
    }
    return numeric(v.as_double(), v.as_double(), false);
}

AbstractValue AbstractValue::top() {
    AbstractValue v = numeric(-kInf, kInf, false);
    v.can_true = v.can_false = true;
    v.may_fail = true;
    return v;
}

AbstractValue AbstractValue::join(const AbstractValue& other) const {
    AbstractValue v;
    v.has_numeric = has_numeric || other.has_numeric;
    if (has_numeric && other.has_numeric) {
        v.lo = std::min(lo, other.lo);
        v.hi = std::max(hi, other.hi);
        v.integral = integral && other.integral;
    } else if (has_numeric) {
        v.lo = lo;
        v.hi = hi;
        v.integral = integral;
    } else if (other.has_numeric) {
        v.lo = other.lo;
        v.hi = other.hi;
        v.integral = other.integral;
    }
    v.can_true = can_true || other.can_true;
    v.can_false = can_false || other.can_false;
    v.may_fail = may_fail || other.may_fail;
    return v;
}

std::string AbstractValue::to_string() const {
    const auto fmt = [this](double x) -> std::string {
        if (std::isinf(x)) return x > 0 ? "+inf" : "-inf";
        if (integral) return std::to_string(static_cast<long long>(x));
        return format_double(x);
    };
    std::string out;
    if (has_numeric) (out += "[") += fmt(lo) + ", " + fmt(hi) + "]";
    if (has_bool()) {
        if (!out.empty()) out += " or ";
        out += "{";
        if (can_true) out += "true";
        if (can_true && can_false) out += ", ";
        if (can_false) out += "false";
        out += "}";
    }
    if (out.empty()) return "<error>";
    if (may_fail) out += " (may fail)";
    return out;
}

AbstractValue abstract_eval(const expr::Expr& e, const AbstractEnv& env) {
    if (e.empty()) return AbstractValue::top();
    const auto& n = e.node();
    if (const auto* lit = std::get_if<expr::Literal>(&n)) {
        return AbstractValue::constant(lit->value);
    }
    if (const auto* id = std::get_if<expr::Identifier>(&n)) {
        const auto it = env.find(id->name);
        return it == env.end() ? AbstractValue::top() : it->second;
    }
    if (const auto* u = std::get_if<expr::Unary>(&n)) {
        const AbstractValue a = abstract_eval(u->operand, env);
        if (a.always_fails()) return failure();
        AbstractValue r;
        switch (u->op) {
            case UnaryOp::Neg:
                if (a.has_numeric) r = AbstractValue::numeric(-a.hi, -a.lo, a.integral);
                r.may_fail = a.has_bool();  // -true throws
                break;
            case UnaryOp::Not:
                r = AbstractValue::boolean(a.can_false, a.can_true);
                r.may_fail = a.has_numeric;  // !3 throws
                break;
            case UnaryOp::Floor:
                if (a.has_numeric) {
                    r = AbstractValue::numeric(std::floor(a.lo), std::floor(a.hi), true);
                }
                r.may_fail = a.has_bool();
                break;
            case UnaryOp::Ceil:
                if (a.has_numeric) {
                    r = AbstractValue::numeric(std::ceil(a.lo), std::ceil(a.hi), true);
                }
                r.may_fail = a.has_bool();
                break;
        }
        r.may_fail = r.may_fail || a.may_fail;
        return r;
    }
    if (const auto* b = std::get_if<expr::Binary>(&n)) {
        const AbstractValue a = abstract_eval(b->lhs, env);
        if (a.always_fails()) return failure();
        // Short-circuit operators: the rhs of a provably-decided lhs never
        // runs, so its failures (and values) must not leak into the result.
        if (b->op == BinaryOp::And || b->op == BinaryOp::Or) {
            const bool is_and = b->op == BinaryOp::And;
            AbstractValue r;
            r.may_fail = a.may_fail || a.has_numeric;  // non-bool lhs throws
            const bool rhs_reachable = is_and ? a.can_true : a.can_false;
            if (rhs_reachable) {
                const AbstractValue rv = abstract_eval(b->rhs, env);
                r.may_fail = r.may_fail || rv.may_fail || rv.has_numeric;
                if (is_and) {
                    r.can_true = a.can_true && rv.can_true;
                    r.can_false = a.can_false || (a.can_true && rv.can_false);
                } else {
                    r.can_true = a.can_true || (a.can_false && rv.can_true);
                    r.can_false = a.can_false && rv.can_false;
                }
            } else {
                // lhs decides: false & _ == false, true | _ == true.
                r.can_true = !is_and && a.can_true;
                r.can_false = is_and && a.can_false;
            }
            return r;
        }
        const AbstractValue c = abstract_eval(b->rhs, env);
        if (c.always_fails()) {
            AbstractValue r;
            r.may_fail = true;
            return r;
        }
        AbstractValue r;
        switch (b->op) {
            case BinaryOp::Add:
            case BinaryOp::Sub:
            case BinaryOp::Mul:
            case BinaryOp::Div:
            case BinaryOp::Min:
            case BinaryOp::Max:
            case BinaryOp::Pow:
                if (a.has_numeric && c.has_numeric) {
                    r = numeric_binary(b->op, a, c);
                } else {
                    r.may_fail = true;  // a bool operand always throws
                }
                r.may_fail = r.may_fail || a.has_bool() || c.has_bool();
                break;
            case BinaryOp::Lt:
            case BinaryOp::Le:
            case BinaryOp::Gt:
            case BinaryOp::Ge:
                if (a.has_numeric && c.has_numeric) {
                    r = numeric_compare(b->op, a, c);
                } else {
                    r.may_fail = true;
                }
                r.may_fail = r.may_fail || a.has_bool() || c.has_bool();
                break;
            case BinaryOp::Eq:
            case BinaryOp::Ne: r = equality(b->op, a, c); break;
            case BinaryOp::Implies:
                r = AbstractValue::boolean(a.can_false || c.can_true,
                                           a.can_true && c.can_false);
                r.may_fail = a.has_numeric || c.has_numeric;
                break;
            case BinaryOp::Iff:
                r = AbstractValue::boolean(
                    (a.can_true && c.can_true) || (a.can_false && c.can_false),
                    (a.can_true && c.can_false) || (a.can_false && c.can_true));
                r.may_fail = a.has_numeric || c.has_numeric;
                break;
            default: r = AbstractValue::top(); break;
        }
        r.may_fail = r.may_fail || a.may_fail || c.may_fail;
        return r;
    }
    const auto& ite = std::get<expr::Ite>(n);
    const AbstractValue c = abstract_eval(ite.cond, env);
    if (c.always_fails()) return failure();
    AbstractValue r;
    r.may_fail = c.may_fail || c.has_numeric;  // non-bool condition throws
    if (c.can_true) {
        r = r.join(abstract_eval(ite.then_branch, refine(env, ite.cond, true)));
    }
    if (c.can_false) {
        r = r.join(abstract_eval(ite.else_branch, refine(env, ite.cond, false)));
    }
    return r;
}

AbstractEnv refine(AbstractEnv env, const expr::Expr& cond, bool assume_true) {
    if (cond.empty()) return env;
    const auto& n = cond.node();
    if (const auto* id = std::get_if<expr::Identifier>(&n)) {
        // A bare boolean variable as the condition.
        const auto it = env.find(id->name);
        if (it != env.end()) {
            if (assume_true) {
                it->second.can_false = false;
            } else {
                it->second.can_true = false;
            }
        }
        return env;
    }
    if (const auto* u = std::get_if<expr::Unary>(&n)) {
        if (u->op == UnaryOp::Not) return refine(std::move(env), u->operand, !assume_true);
        return env;
    }
    const auto* b = std::get_if<expr::Binary>(&n);
    if (b == nullptr) return env;
    if (b->op == BinaryOp::And && assume_true) {
        return refine(refine(std::move(env), b->lhs, true), b->rhs, true);
    }
    if (b->op == BinaryOp::Or && !assume_true) {
        return refine(refine(std::move(env), b->lhs, false), b->rhs, false);
    }
    if (!is_comparison(b->op)) return env;
    const BinaryOp op = assume_true ? b->op : negate_comparison(b->op);
    std::optional<expr::Value> storage_l;
    std::optional<expr::Value> storage_r;
    const expr::Value* cl = comparison_constant(b->lhs, storage_l, env);
    const expr::Value* cr = comparison_constant(b->rhs, storage_r, env);
    const auto* idl = cl == nullptr ? std::get_if<expr::Identifier>(&b->lhs.node()) : nullptr;
    const auto* idr = cr == nullptr ? std::get_if<expr::Identifier>(&b->rhs.node()) : nullptr;
    if (idl != nullptr && cr != nullptr) {
        refine_identifier(env, idl->name, op, *cr);
    } else if (idr != nullptr && cl != nullptr) {
        refine_identifier(env, idr->name, flip_comparison(op), *cl);
    }
    return env;
}

}  // namespace arcade::analysis
