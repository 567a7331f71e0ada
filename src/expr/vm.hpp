// Register-bytecode compiler and evaluator for the expression language.
//
// `compile(expr, slots)` lowers an Expr tree into a flat Program: variable
// reads become slot-indexed loads over an unpacked state vector (no string
// hashing), constants named in the SlotMap fold into the instruction stream,
// and `Program::run(slots)` executes without virtual dispatch, recursion or
// per-evaluation allocation.  Evaluation semantics are bit-identical to
// Expr::evaluate — both share apply_binary/apply_unary, short-circuit `&`/`|`
// the same way, and throw the same ModelErrors on type mismatches — so the
// tree interpreter remains the differential-test oracle, selected only by
// tests that pass EvalMode::Interp explicitly.
#ifndef ARCADE_EXPR_VM_HPP
#define ARCADE_EXPR_VM_HPP

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "expr/expr.hpp"

namespace arcade::expr {

/// Which evaluator the hot consumers (explorer, predicate sweeps) use.
enum class EvalMode {
    Vm,       ///< compiled bytecode programs (default)
    Interp,   ///< the Expr tree walker (differential-test oracle)
    Codegen,  ///< kept for perfbench; runs the VM
};

/// Kept for perfbench; always EvalMode::Vm.
[[nodiscard]] EvalMode default_eval_mode();

/// Compile-time name resolution: identifiers listed in `slots` become
/// slot-indexed loads; identifiers found in `constants` fold into the
/// program as literals; anything else makes compile() throw ModelError.
struct SlotMap {
    std::unordered_map<std::string, std::uint32_t> slots;
    const std::map<std::string, Value>* constants = nullptr;
};

enum class OpCode : std::uint8_t {
    LoadConst,    // reg[a] = consts[c]
    LoadSlot,     // reg[a] = slots[c]
    Add, Sub, Mul, Div, Min, Max, Pow,            // reg[a] = reg[b] op reg[c]
    Eq, Ne, Lt, Le, Gt, Ge, Implies, Iff,         // reg[a] = reg[b] op reg[c]
    Neg, Not, Floor, Ceil,                        // reg[a] = op reg[b]
    CastBool,     // reg[a] = Value(reg[b].as_bool())  (the `&`/`|` rhs coercion)
    Jump,         // pc = c
    JumpIfFalse,  // pc = c when !reg[b].as_bool()  (throws on non-bool)
    JumpIfTrue,   // pc = c when reg[b].as_bool()   (throws on non-bool)
};

struct Instr {
    OpCode op;
    std::uint16_t a = 0;  ///< destination register
    std::uint16_t b = 0;  ///< operand register
    std::uint32_t c = 0;  ///< operand register / pool index / jump target
};

/// A compiled expression.  Immutable after compile(); safe to share across
/// threads (run() only touches thread-local scratch).
class Program {
public:
    /// Evaluates over the slot values (`slots[i]` is the value of the
    /// variable mapped to slot i; the span may be longer than the program
    /// needs).  Stack-free and allocation-free: registers live in a fixed
    /// inline buffer, falling back to a thread-local scratch vector for the
    /// rare program needing more.
    [[nodiscard]] Value run(std::span<const Value> slots) const;

    [[nodiscard]] const std::vector<Instr>& code() const noexcept { return code_; }
    [[nodiscard]] const std::vector<Value>& constant_pool() const noexcept { return pool_; }
    [[nodiscard]] std::uint32_t register_count() const noexcept { return register_count_; }
    /// True when the whole expression folded to a single constant.
    [[nodiscard]] bool is_constant() const noexcept {
        return code_.size() == 1 && code_.front().op == OpCode::LoadConst;
    }

private:
    friend Program compile(const Expr& expr, const SlotMap& slots);
    friend class Compiler;
    std::vector<Instr> code_;
    std::vector<Value> pool_;
    std::uint32_t register_count_ = 0;
};

/// Compiles `expr` against the slot map.  Constant subtrees (including
/// resolved named constants) fold at compile time whenever folding cannot
/// change observable behaviour; ill-typed folds are left in the instruction
/// stream so run() raises the same ModelError the interpreter would.
/// Throws ModelError on identifiers absent from both maps.
[[nodiscard]] Program compile(const Expr& expr, const SlotMap& slots);

}  // namespace arcade::expr

#endif  // ARCADE_EXPR_VM_HPP
