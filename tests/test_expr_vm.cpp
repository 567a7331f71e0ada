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
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "expr/codegen.hpp"
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

TEST(ExprVm, DefaultModeHonoursEnvironment) {
    // The env variable is read once per process; all this test can assert
    // portably is that the default is one of the two modes and stable.
    const expr::EvalMode mode = expr::default_eval_mode();
    EXPECT_EQ(mode, expr::default_eval_mode());
}

// The native backend's contract mirrors the VM's: for every program a
// successful try_run returns the bit-identical Value the VM computes, and
// every evaluation the VM would abort with a ModelError reports failure
// instead (the caller re-runs the VM to raise it).  One fuzzed unit of many
// programs checks both routes over several raw state valuations.
TEST(ExprCodegen, NativeMatchesVmBitwise) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "codegen dlopens uninstrumented objects; skipped under sanitizers";
#else
    // Slots mirror the explorer's packing: int64 raw values, bool slots
    // decoded as state[i] != 0.  No double slot — module variables are
    // ints and bools — so fuzzed trees naming d0 fail to compile and are
    // simply re-rolled.
    expr::SlotMap map;
    map.slots.emplace("i0", 0u);
    map.slots.emplace("i1", 1u);
    map.slots.emplace("b0", 2u);
    map.slots.emplace("b1", 3u);
    const std::vector<bool> is_bool{false, false, true, true};

    Fuzzer fuzz(0xc0de9e);
    std::vector<expr::Expr> exprs;
    std::vector<expr::Program> programs;
    while (programs.size() < 300) {
        expr::Expr e = fuzz.gen(5);
        try {
            programs.push_back(expr::compile(e, map));
        } catch (const arcade::ModelError&) {
            continue;  // names the slotless d0
        }
        exprs.push_back(std::move(e));
    }
    std::vector<const expr::Program*> ptrs;
    ptrs.reserve(programs.size());
    for (const auto& p : programs) ptrs.push_back(&p);

    const auto unit = expr::build_native_unit(ptrs, is_bool);
    if (unit == nullptr) {
        GTEST_SKIP() << "no host toolchain / dlopen available";
    }
    ASSERT_EQ(unit->size(), programs.size());

    const std::int64_t states[][4] = {{3, -2, 1, 0},
                                      {0, 0, 0, 1},
                                      {-3, 7, 1, 1},
                                      {2, 1, 0, 0},
                                      {-1, -1, 1, 0}};
    int value_cases = 0;
    int error_cases = 0;
    for (const auto& state : states) {
        const std::vector<expr::Value> slots{
            expr::Value(static_cast<long long>(state[0])),
            expr::Value(static_cast<long long>(state[1])),
            expr::Value(state[2] != 0), expr::Value(state[3] != 0)};
        for (std::size_t i = 0; i < programs.size(); ++i) {
            Outcome vm;
            try {
                vm.value = programs[i].run(slots);
            } catch (const arcade::ModelError& err) {
                vm.threw = true;
                vm.error = err.what();
            }
            expr::Value native{false};
            const bool ok =
                unit->try_run(i, std::span<const std::int64_t>(state, 4), native);
            ASSERT_EQ(ok, !vm.threw)
                << exprs[i].to_string() << "\n vm: "
                << (vm.threw ? vm.error : vm.value.to_string());
            if (ok) {
                ++value_cases;
                EXPECT_TRUE(bitwise_equal(native, vm.value))
                    << exprs[i].to_string() << "\n native: " << native.to_string()
                    << "\n vm:     " << vm.value.to_string();
            } else {
                ++error_cases;
            }
        }
        if (HasFatalFailure()) return;
    }
    // Both routes must be exercised heavily or the differential is hollow.
    EXPECT_GT(value_cases, 300);
    EXPECT_GT(error_cases, 100);
#endif
}

// Integer overflow fails the native evaluation like every other VM error.
TEST(ExprCodegen, IntegerOverflowFailsLikeTheVm) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "codegen dlopens uninstrumented objects; skipped under sanitizers";
#else
    const ExtremeSlots x;
    std::vector<expr::Program> programs;
    for (const auto& e : overflowing_slot_exprs()) programs.push_back(expr::compile(e, x.map));
    std::vector<const expr::Program*> ptrs;
    for (const auto& p : programs) ptrs.push_back(&p);
    const auto unit = expr::build_native_unit(ptrs, std::vector<bool>{false, false});
    if (unit == nullptr) {
        GTEST_SKIP() << "no host toolchain / dlopen available";
    }
    const std::int64_t state[] = {kInt64Min, kInt64Max};
    for (std::size_t i = 0; i < programs.size(); ++i) {
        expr::Value native{false};
        EXPECT_FALSE(unit->try_run(i, std::span<const std::int64_t>(state, 2), native)) << i;
        EXPECT_THROW((void)programs[i].run(x.slots), arcade::ModelError) << i;
    }
#endif
}

// Without a working compiler build_native_unit must return nullptr and count
// a fallback, never throw.  The compile fails before any dlopen, so this is
// safe under sanitizers too.
TEST(ExprCodegen, GracefulFallbackWithoutToolchain) {
    const char* old_cxx = std::getenv("ARCADE_CXX");
    const std::string saved_cxx = old_cxx != nullptr ? old_cxx : "";
    const char* old_cache = std::getenv("ARCADE_CODEGEN_CACHE");
    const std::string saved_cache = old_cache != nullptr ? old_cache : "";

    const auto cache_dir =
        std::filesystem::temp_directory_path() / "arcade-codegen-fallback-test";
    std::filesystem::remove_all(cache_dir);
    ::setenv("ARCADE_CXX", "/nonexistent/arcade-no-such-compiler", 1);
    ::setenv("ARCADE_CODEGEN_CACHE", cache_dir.string().c_str(), 1);

    // A source shape nothing else in this binary builds successfully, so
    // neither the in-memory unit cache nor the fresh on-disk cache can
    // satisfy it and the bogus compiler is genuinely reached.
    expr::SlotMap map;
    map.slots.emplace("i0", 0u);
    const expr::Program program =
        expr::compile(expr::parse_expression("i0 * 48271 + 16807"), map);
    const expr::Program* ptr = &program;

    const std::size_t before = expr::codegen_counters().fallbacks;
    const auto unit = expr::build_native_unit(
        std::span<const expr::Program* const>(&ptr, 1), std::vector<bool>{false});
    EXPECT_EQ(unit, nullptr);
    EXPECT_GE(expr::codegen_counters().fallbacks, before + 1);

    if (!saved_cxx.empty()) {
        ::setenv("ARCADE_CXX", saved_cxx.c_str(), 1);
    } else {
        ::unsetenv("ARCADE_CXX");
    }
    if (!saved_cache.empty()) {
        ::setenv("ARCADE_CODEGEN_CACHE", saved_cache.c_str(), 1);
    } else {
        ::unsetenv("ARCADE_CODEGEN_CACHE");
    }
    std::filesystem::remove_all(cache_dir);
}
