// Unit tests: the expression bytecode VM against the tree interpreter.
//
// The contract under test is bitwise identity: for any expression — well- or
// ill-typed — Program::run over a slot vector must produce exactly the value
// Expr::evaluate produces over the equivalent environment, or throw a
// ModelError with exactly the same message.  A deterministic fuzzer
// generates thousands of random trees over mixed int/double/bool slots to
// exercise every operator, short-circuit path and error route; targeted
// tests pin the compile-time and construction-time constant folds.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "expr/expr.hpp"
#include "expr/vm.hpp"
#include "support/errors.hpp"

namespace expr = arcade::expr;

namespace {

class MapEnv final : public expr::Environment {
public:
    std::map<std::string, expr::Value> values;
    [[nodiscard]] expr::Value lookup(const std::string& name) const override {
        const auto it = values.find(name);
        if (it == values.end()) throw arcade::ModelError("unknown " + name);
        return it->second;
    }
};

/// Result of one evaluation: either a value or a ModelError message.
struct Outcome {
    bool threw = false;
    std::string error;
    expr::Value value{false};
};

bool bitwise_equal(const expr::Value& a, const expr::Value& b) {
    if (a.is_bool() != b.is_bool() || a.is_int() != b.is_int() ||
        a.is_double() != b.is_double()) {
        return false;
    }
    if (a.is_bool()) return a.as_bool() == b.as_bool();
    if (a.is_int()) return a.as_int() == b.as_int();
    const double x = a.as_double();
    const double y = b.as_double();
    return std::memcmp(&x, &y, sizeof x) == 0;
}

Outcome run_interp(const expr::Expr& e, const MapEnv& env) {
    Outcome out;
    try {
        out.value = e.evaluate(env);
    } catch (const arcade::ModelError& err) {
        out.threw = true;
        out.error = err.what();
    }
    return out;
}

Outcome run_vm(const expr::Expr& e, const expr::SlotMap& map,
               std::span<const expr::Value> slots) {
    Outcome out;
    try {
        const expr::Program program = expr::compile(e, map);
        out.value = program.run(slots);
    } catch (const arcade::ModelError& err) {
        out.threw = true;
        out.error = err.what();
    }
    return out;
}

void expect_same(const expr::Expr& e, const MapEnv& env, const expr::SlotMap& map,
                 std::span<const expr::Value> slots) {
    const Outcome a = run_interp(e, env);
    const Outcome b = run_vm(e, map, slots);
    ASSERT_EQ(a.threw, b.threw) << e.to_string() << "\n interp: "
                                << (a.threw ? a.error : a.value.to_string())
                                << "\n vm:     " << (b.threw ? b.error : b.value.to_string());
    if (a.threw) {
        EXPECT_EQ(a.error, b.error) << e.to_string();
    } else {
        EXPECT_TRUE(bitwise_equal(a.value, b.value))
            << e.to_string() << "\n interp: " << a.value.to_string()
            << "\n vm:     " << b.value.to_string();
    }
}

/// Random expression trees over five typed slots, all operators included.
/// Many trees are ill-typed on purpose — the error route is half the
/// contract.
class Fuzzer {
public:
    explicit Fuzzer(std::uint32_t seed) : rng_(seed) {}

    expr::Expr gen(int depth) {
        const int leaf_cut = depth <= 0 ? 100 : 35;
        const int roll = pick(100);
        if (roll < leaf_cut) return leaf();
        if (roll < leaf_cut + 15) {
            static constexpr expr::UnaryOp kUnary[] = {
                expr::UnaryOp::Neg, expr::UnaryOp::Not, expr::UnaryOp::Floor,
                expr::UnaryOp::Ceil};
            return expr::Expr::unary(kUnary[pick(4)], gen(depth - 1));
        }
        if (roll < leaf_cut + 55) {
            static constexpr expr::BinaryOp kBinary[] = {
                expr::BinaryOp::Add,     expr::BinaryOp::Sub, expr::BinaryOp::Mul,
                expr::BinaryOp::Div,     expr::BinaryOp::Min, expr::BinaryOp::Max,
                expr::BinaryOp::Pow,     expr::BinaryOp::Eq,  expr::BinaryOp::Ne,
                expr::BinaryOp::Lt,      expr::BinaryOp::Le,  expr::BinaryOp::Gt,
                expr::BinaryOp::Ge,      expr::BinaryOp::And, expr::BinaryOp::Or,
                expr::BinaryOp::Implies, expr::BinaryOp::Iff};
            return expr::Expr::binary(kBinary[pick(17)], gen(depth - 1), gen(depth - 1));
        }
        return expr::Expr::ite(gen(depth - 1), gen(depth - 1), gen(depth - 1));
    }

private:
    expr::Expr leaf() {
        switch (pick(6)) {
            case 0: return expr::Expr::integer(static_cast<long long>(pick(7)) - 3);
            case 1: return expr::Expr::real((static_cast<double>(pick(41)) - 20.0) / 4.0);
            case 2: return expr::Expr::boolean(pick(2) == 0);
            default: break;
        }
        static const char* kNames[] = {"i0", "i1", "d0", "b0", "b1"};
        return expr::Expr::identifier(kNames[pick(5)]);
    }

    int pick(int n) { return static_cast<int>(rng_() % static_cast<std::uint32_t>(n)); }

    std::mt19937 rng_;
};

}  // namespace

TEST(ExprVm, FuzzMatchesInterpreterBitwise) {
    MapEnv env;
    env.values.emplace("i0", expr::Value(3LL));
    env.values.emplace("i1", expr::Value(-2LL));
    env.values.emplace("d0", expr::Value(0.75));
    env.values.emplace("b0", expr::Value(true));
    env.values.emplace("b1", expr::Value(false));

    expr::SlotMap map;
    std::vector<expr::Value> slots;
    for (const auto& [name, value] : env.values) {
        map.slots.emplace(name, static_cast<std::uint32_t>(slots.size()));
        slots.push_back(value);
    }

    Fuzzer fuzz(0xa5c4de);
    int value_cases = 0;
    int error_cases = 0;
    for (int i = 0; i < 20000; ++i) {
        const expr::Expr e = fuzz.gen(5);
        const Outcome oracle = run_interp(e, env);
        (oracle.threw ? error_cases : value_cases)++;
        expect_same(e, env, map, slots);
        if (HasFatalFailure()) return;
    }
    // The generator must exercise both routes heavily or the test is hollow.
    EXPECT_GT(value_cases, 2000);
    EXPECT_GT(error_cases, 2000);
}

TEST(ExprVm, SlotLoadsAndConstants) {
    expr::SlotMap map;
    map.slots.emplace("x", 0);
    std::map<std::string, expr::Value> consts;
    consts.emplace("N", expr::Value(5LL));
    map.constants = &consts;

    const auto program = expr::compile(expr::parse_expression("x + N"), map);
    const std::vector<expr::Value> slots{expr::Value(7LL)};
    EXPECT_EQ(program.run(slots).as_int(), 12);

    // Unknown identifiers fail at compile time, not at run time.
    EXPECT_THROW(expr::compile(expr::parse_expression("x + missing"), map),
                 arcade::ModelError);
}

TEST(ExprVm, ConstantSubtreesFoldToASingleLoad) {
    expr::SlotMap map;
    map.slots.emplace("g", 0);

    // Literal arithmetic folds at construction already; the program is one
    // LoadConst either way.
    const auto folded = expr::compile(expr::parse_expression("2 * 0.5"), map);
    EXPECT_TRUE(folded.is_constant());
    const std::vector<expr::Value> slots{expr::Value(true)};
    EXPECT_EQ(folded.run(slots).as_double(), 1.0);

    // Named constants resolve and fold through operators at compile time.
    std::map<std::string, expr::Value> consts;
    consts.emplace("N", expr::Value(4LL));
    map.constants = &consts;
    const auto named = expr::compile(expr::parse_expression("N * 2 + 1"), map);
    EXPECT_TRUE(named.is_constant());
    EXPECT_EQ(named.run(slots).as_int(), 9);

    // true & g reduces to g itself: a single slot load.
    const auto guard = expr::compile(expr::parse_expression("true & g"), map);
    ASSERT_EQ(guard.code().size(), 1u);
    EXPECT_EQ(guard.code().front().op, expr::OpCode::LoadSlot);
    EXPECT_TRUE(guard.run(slots).as_bool());
}

TEST(ExprVm, ShortCircuitSkipsRhsErrors) {
    expr::SlotMap map;
    map.slots.emplace("g", 0);
    const std::vector<expr::Value> t{expr::Value(true)};
    const std::vector<expr::Value> f{expr::Value(false)};

    // g & 1/0 = 0.5: rhs only evaluates when g holds.
    const auto guarded = expr::compile(expr::parse_expression("g & 1/0 = 0.5"), map);
    EXPECT_FALSE(guarded.run(f).as_bool());
    EXPECT_THROW((void)guarded.run(t), arcade::ModelError);

    // g | ... dually.
    const auto escape = expr::compile(expr::parse_expression("g | 1/0 = 0.5"), map);
    EXPECT_TRUE(escape.run(t).as_bool());
    EXPECT_THROW((void)escape.run(f), arcade::ModelError);
}

TEST(ExprVm, IllTypedFoldsErrorAtRunLikeTheInterpreter) {
    const expr::SlotMap map;
    const std::vector<expr::Value> none;
    MapEnv env;
    for (const char* text : {"1/0", "!3", "1 < true", "floor(true)", "-(false)",
                             "3 ? 1 : 2", "true + 1"}) {
        const expr::Expr e = expr::parse_expression(text);
        const auto program = expr::compile(e, map);
        std::string interp_error;
        try {
            (void)e.evaluate(env);
            FAIL() << text << " should throw";
        } catch (const arcade::ModelError& err) {
            interp_error = err.what();
        }
        try {
            (void)program.run(none);
            FAIL() << text << " should throw";
        } catch (const arcade::ModelError& err) {
            EXPECT_EQ(interp_error, std::string(err.what())) << text;
        }
    }
}

namespace {

constexpr long long kInt64Min = std::numeric_limits<long long>::min();
constexpr long long kInt64Max = std::numeric_limits<long long>::max();

/// Slot `lo` holds INT64_MIN and `hi` INT64_MAX.
struct ExtremeSlots {
    MapEnv env;
    expr::SlotMap map;
    std::vector<expr::Value> slots{expr::Value(kInt64Min), expr::Value(kInt64Max)};
    ExtremeSlots() {
        env.values.emplace("lo", slots[0]);
        env.values.emplace("hi", slots[1]);
        map.slots.emplace("lo", 0u);
        map.slots.emplace("hi", 1u);
    }
};

/// Integer arithmetic that leaves the int64 range: INT64_MIN + -1,
/// INT64_MIN - 1, INT64_MAX * 2 and -INT64_MIN, over slots.
std::vector<expr::Expr> overflowing_slot_exprs() {
    using E = expr::Expr;
    return {E::binary(expr::BinaryOp::Add, E::identifier("lo"), E::integer(-1)),
            E::binary(expr::BinaryOp::Sub, E::identifier("lo"), E::integer(1)),
            E::binary(expr::BinaryOp::Mul, E::identifier("hi"), E::integer(2)),
            E::unary(expr::UnaryOp::Neg, E::identifier("lo"))};
}

}  // namespace

TEST(ExprVm, IntegerOverflowIsAModelErrorInBothEvaluators) {
    const ExtremeSlots x;
    using E = expr::Expr;
    std::vector<expr::Expr> exprs = overflowing_slot_exprs();
    // All-literal operands: construction folding must keep the node and
    // leave the error to evaluation.
    exprs.push_back(E::binary(expr::BinaryOp::Add, E::integer(kInt64Min), E::integer(-1)));
    exprs.push_back(E::binary(expr::BinaryOp::Mul, E::integer(kInt64Max), E::integer(2)));
    exprs.push_back(E::unary(expr::UnaryOp::Neg, E::integer(kInt64Min)));
    for (const auto& e : exprs) {
        const Outcome interp = run_interp(e, x.env);
        const Outcome vm = run_vm(e, x.map, x.slots);
        EXPECT_TRUE(interp.threw) << e.to_string();
        EXPECT_TRUE(vm.threw) << e.to_string();
        EXPECT_EQ(interp.error, "integer overflow") << e.to_string();
        EXPECT_EQ(vm.error, "integer overflow") << e.to_string();
    }
    // The edges themselves stay in range.
    const auto edge = E::binary(expr::BinaryOp::Add, E::identifier("lo"), E::integer(1));
    EXPECT_EQ(run_vm(edge, x.map, x.slots).value.as_int(), kInt64Min + 1);
    const auto neg = E::unary(expr::UnaryOp::Neg, E::identifier("hi"));
    EXPECT_EQ(run_interp(neg, x.env).value.as_int(), -kInt64Max);
    EXPECT_EQ(run_vm(neg, x.map, x.slots).value.as_int(), -kInt64Max);
}

namespace {

/// floor/ceil whose result leaves the int64 range or is NaN: floor(1e300),
/// ceil(-1e300), floor(NaN) (the language's 0.0/0.0 is a division-by-zero
/// error, so NaN comes from a literal and from pow(-1, 0.5)), floor of
/// INT64_MAX as a double (2^63, one past the range) and ceil(-inf).
std::vector<expr::Expr> out_of_range_rounding_exprs() {
    using E = expr::Expr;
    const auto as_double = [](const char* slot) {
        return E::binary(expr::BinaryOp::Mul, E::identifier(slot), E::real(1.0));
    };
    return {E::unary(expr::UnaryOp::Floor, E::real(1e300)),
            E::unary(expr::UnaryOp::Ceil, E::real(-1e300)),
            E::unary(expr::UnaryOp::Floor,
                     E::real(std::numeric_limits<double>::quiet_NaN())),
            expr::parse_expression("floor(pow(-1, 0.5))"),
            E::unary(expr::UnaryOp::Floor, as_double("hi")),
            E::unary(expr::UnaryOp::Ceil,
                     E::binary(expr::BinaryOp::Mul, E::identifier("lo"), E::real(1e300)))};
}

}  // namespace

TEST(ExprVm, RoundingOutsideInt64IsAModelErrorInBothEvaluators) {
    const ExtremeSlots x;
    for (const auto& e : out_of_range_rounding_exprs()) {
        const Outcome interp = run_interp(e, x.env);
        const Outcome vm = run_vm(e, x.map, x.slots);
        EXPECT_TRUE(interp.threw) << e.to_string();
        EXPECT_TRUE(vm.threw) << e.to_string();
        EXPECT_EQ(interp.error, "integer overflow") << e.to_string();
        EXPECT_EQ(vm.error, "integer overflow") << e.to_string();
    }
    // floor(0.0/0.0) fails on the division before it reaches floor.
    const expr::Expr nan_text = expr::parse_expression("floor(0.0/0.0)");
    EXPECT_EQ(run_interp(nan_text, x.env).error, "division by zero");
    EXPECT_EQ(run_vm(nan_text, x.map, x.slots).error, "division by zero");
    // INT64_MIN is exactly -2^63, the bottom edge, and stays in range.
    using E = expr::Expr;
    const auto edge = E::unary(expr::UnaryOp::Ceil, E::binary(expr::BinaryOp::Mul,
                                                              E::identifier("lo"),
                                                              E::real(1.0)));
    EXPECT_EQ(run_interp(edge, x.env).value.as_int(), kInt64Min);
    EXPECT_EQ(run_vm(edge, x.map, x.slots).value.as_int(), kInt64Min);
}

TEST(ExprVm, DefaultModeIsTheVm) {
    // No environment variable selects the evaluator; the interpreter is only
    // reached by passing EvalMode::Interp explicitly.
    EXPECT_EQ(expr::default_eval_mode(), expr::EvalMode::Vm);
}
