#include "expr/vm.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <utility>
#include <variant>

#include "support/errors.hpp"

namespace arcade::expr {

EvalMode default_eval_mode() { return EvalMode::Vm; }

/// Single-expression code generator.  Register allocation is a simple
/// expression-stack discipline: a node's result lands in `dst`, temporaries
/// live above it.  gen() returns the subtree's value when it is known at
/// compile time (after constant resolution), enabling peephole folds that
/// truncate the just-emitted instructions — a fold is only committed when
/// applying the operator does not throw, so ill-typed subtrees keep their
/// instructions and fail at run() exactly like the interpreter.
class Compiler {
public:
    Compiler(const SlotMap& slots, Program& out) : slots_(slots), out_(out) {}

    void compile(const Expr& expr) {
        const std::optional<Value> known = gen(expr, 0);
        if (known.has_value()) {
            out_.code_.clear();
            emit(OpCode::LoadConst, 0, 0, pool_index(*known));
        }
        out_.register_count_ = max_regs_;
    }

private:
    static constexpr std::uint32_t kMaxRegisters = 0xFFFF;

    std::uint32_t pool_index(const Value& v) {
        // Pools are tiny; a linear scan beats hashing Value variants.
        for (std::uint32_t i = 0; i < out_.pool_.size(); ++i) {
            if (bitwise_equal(out_.pool_[i], v)) return i;
        }
        out_.pool_.push_back(v);
        return static_cast<std::uint32_t>(out_.pool_.size() - 1);
    }

    /// Pool deduplication must be bit-exact (0.0 vs -0.0, type-aware).
    static bool bitwise_equal(const Value& a, const Value& b) {
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

    void emit(OpCode op, std::uint32_t a, std::uint32_t b, std::uint32_t c) {
        ARCADE_ASSERT(a <= kMaxRegisters && b <= kMaxRegisters, "register overflow");
        out_.code_.push_back(Instr{op, static_cast<std::uint16_t>(a),
                                   static_cast<std::uint16_t>(b), c});
    }

    void touch(std::uint32_t reg) { max_regs_ = std::max(max_regs_, reg + 1); }

    /// Rolls the instruction stream back to `mark` (committing a fold).
    void truncate(std::size_t mark) { out_.code_.resize(mark); }

    std::uint32_t here() const { return static_cast<std::uint32_t>(out_.code_.size()); }

    std::optional<Value> gen_const(const Value& v, std::uint32_t dst, std::size_t mark) {
        truncate(mark);
        emit(OpCode::LoadConst, dst, 0, pool_index(v));
        return v;
    }

    std::optional<Value> gen(const Expr& e, std::uint32_t dst) {
        touch(dst);
        const std::size_t mark = out_.code_.size();
        const auto& n = e.node();
        if (const auto* lit = std::get_if<Literal>(&n)) {
            return gen_const(lit->value, dst, mark);
        }
        if (const auto* id = std::get_if<Identifier>(&n)) {
            const auto it = slots_.slots.find(id->name);
            if (it != slots_.slots.end()) {
                emit(OpCode::LoadSlot, dst, 0, it->second);
                return std::nullopt;
            }
            if (slots_.constants != nullptr) {
                const auto cit = slots_.constants->find(id->name);
                if (cit != slots_.constants->end()) {
                    return gen_const(cit->second, dst, mark);
                }
            }
            throw ModelError("unknown identifier '" + id->name + "' in expression");
        }
        if (const auto* u = std::get_if<Unary>(&n)) {
            const std::optional<Value> k = gen(u->operand, dst);
            if (k.has_value()) {
                try {
                    return gen_const(apply_unary(u->op, *k), dst, mark);
                } catch (const ModelError&) {
                    // keep the instructions: the error belongs to run()
                }
            }
            emit(unary_opcode(u->op), dst, dst, 0);
            return std::nullopt;
        }
        if (const auto* b = std::get_if<Binary>(&n)) {
            if (b->op == BinaryOp::And || b->op == BinaryOp::Or) {
                return gen_short_circuit(*b, dst, mark);
            }
            const std::optional<Value> lk = gen(b->lhs, dst);
            const std::optional<Value> rk = gen(b->rhs, dst + 1);
            if (lk.has_value() && rk.has_value()) {
                try {
                    return gen_const(apply_binary(b->op, *lk, *rk), dst, mark);
                } catch (const ModelError&) {
                }
            }
            emit(binary_opcode(b->op), dst, dst, dst + 1);
            return std::nullopt;
        }
        const auto& ite = std::get<Ite>(n);
        const std::optional<Value> ck = gen(ite.cond, dst);
        if (ck.has_value() && ck->is_bool()) {
            truncate(mark);
            return gen(ck->as_bool() ? ite.then_branch : ite.else_branch, dst);
        }
        // JumpIfFalse raises the interpreter's as_bool error on a non-bool
        // condition, so a known ill-typed condition still compiles.
        const std::uint32_t branch = here();
        emit(OpCode::JumpIfFalse, 0, dst, 0);
        gen(ite.then_branch, dst);
        const std::uint32_t skip = here();
        emit(OpCode::Jump, 0, 0, 0);
        out_.code_[branch].c = here();
        gen(ite.else_branch, dst);
        out_.code_[skip].c = here();
        return std::nullopt;
    }

    /// `&`/`|` with the interpreter's exact short-circuit semantics:
    /// lhs.as_bool() decides; the rhs result passes through as_bool too.
    std::optional<Value> gen_short_circuit(const Binary& b, std::uint32_t dst,
                                           std::size_t mark) {
        const bool is_and = b.op == BinaryOp::And;
        const std::optional<Value> lk = gen(b.lhs, dst);
        if (lk.has_value() && lk->is_bool()) {
            if (lk->as_bool() != is_and) {
                // false & g  /  true | g: the rhs is provably unevaluated.
                return gen_const(Value(!is_and), dst, mark);
            }
            // true & g  /  false | g: the result is g coerced to bool.
            truncate(mark);
            const std::optional<Value> rk = gen(b.rhs, dst);
            if (rk.has_value() && rk->is_bool()) return gen_const(*rk, dst, mark);
            emit(OpCode::CastBool, dst, dst, 0);
            return std::nullopt;
        }
        // General case (also a known non-bool lhs, whose error surfaces at
        // the branch).  On the taken branch dst already holds the lhs bool,
        // which IS the result — no extra load needed.
        const std::uint32_t branch = here();
        emit(is_and ? OpCode::JumpIfFalse : OpCode::JumpIfTrue, 0, dst, 0);
        gen(b.rhs, dst);
        emit(OpCode::CastBool, dst, dst, 0);
        out_.code_[branch].c = here();
        return std::nullopt;
    }

    static OpCode unary_opcode(UnaryOp op) {
        switch (op) {
            case UnaryOp::Neg: return OpCode::Neg;
            case UnaryOp::Not: return OpCode::Not;
            case UnaryOp::Floor: return OpCode::Floor;
            case UnaryOp::Ceil: return OpCode::Ceil;
        }
        throw ModelError("unhandled unary operator");
    }

    static OpCode binary_opcode(BinaryOp op) {
        switch (op) {
            case BinaryOp::Add: return OpCode::Add;
            case BinaryOp::Sub: return OpCode::Sub;
            case BinaryOp::Mul: return OpCode::Mul;
            case BinaryOp::Div: return OpCode::Div;
            case BinaryOp::Min: return OpCode::Min;
            case BinaryOp::Max: return OpCode::Max;
            case BinaryOp::Pow: return OpCode::Pow;
            case BinaryOp::Eq: return OpCode::Eq;
            case BinaryOp::Ne: return OpCode::Ne;
            case BinaryOp::Lt: return OpCode::Lt;
            case BinaryOp::Le: return OpCode::Le;
            case BinaryOp::Gt: return OpCode::Gt;
            case BinaryOp::Ge: return OpCode::Ge;
            case BinaryOp::Implies: return OpCode::Implies;
            case BinaryOp::Iff: return OpCode::Iff;
            case BinaryOp::And:
            case BinaryOp::Or: break;  // handled by gen_short_circuit
        }
        throw ModelError("unhandled binary operator");
    }

    const SlotMap& slots_;
    Program& out_;
    std::uint32_t max_regs_ = 0;
};

namespace {

/// Maps an OpCode in [Add, Iff] back to its BinaryOp for apply_binary.
BinaryOp binary_op_of(OpCode op) {
    switch (op) {
        case OpCode::Add: return BinaryOp::Add;
        case OpCode::Sub: return BinaryOp::Sub;
        case OpCode::Mul: return BinaryOp::Mul;
        case OpCode::Div: return BinaryOp::Div;
        case OpCode::Min: return BinaryOp::Min;
        case OpCode::Max: return BinaryOp::Max;
        case OpCode::Pow: return BinaryOp::Pow;
        case OpCode::Eq: return BinaryOp::Eq;
        case OpCode::Ne: return BinaryOp::Ne;
        case OpCode::Lt: return BinaryOp::Lt;
        case OpCode::Le: return BinaryOp::Le;
        case OpCode::Gt: return BinaryOp::Gt;
        case OpCode::Ge: return BinaryOp::Ge;
        case OpCode::Implies: return BinaryOp::Implies;
        default: return BinaryOp::Iff;
    }
}

constexpr std::size_t kInlineRegisters = 16;

}  // namespace

Program compile(const Expr& expr, const SlotMap& slots) {
    ARCADE_ASSERT(!expr.empty(), "compiling empty expression");
    Program program;
    Compiler(slots, program).compile(expr);
    return program;
}

Value Program::run(std::span<const Value> slots) const {
    Value inline_regs[kInlineRegisters];
    Value* regs = inline_regs;
    if (register_count_ > kInlineRegisters) {
        thread_local std::vector<Value> scratch;
        if (scratch.size() < register_count_) scratch.resize(register_count_);
        regs = scratch.data();
    }

    const Instr* code = code_.data();
    const std::size_t size = code_.size();
    const Value* pool = pool_.data();
    for (std::size_t pc = 0; pc < size;) {
        const Instr& ins = code[pc];
        switch (ins.op) {
            case OpCode::LoadConst:
                regs[ins.a] = pool[ins.c];
                ++pc;
                break;
            case OpCode::LoadSlot:
                ARCADE_ASSERT(ins.c < slots.size(), "slot index out of range");
                regs[ins.a] = slots[ins.c];
                ++pc;
                break;
            case OpCode::Neg:
            case OpCode::Not:
            case OpCode::Floor:
            case OpCode::Ceil: {
                static constexpr UnaryOp kUnary[] = {UnaryOp::Neg, UnaryOp::Not,
                                                     UnaryOp::Floor, UnaryOp::Ceil};
                regs[ins.a] = apply_unary(
                    kUnary[static_cast<int>(ins.op) - static_cast<int>(OpCode::Neg)],
                    regs[ins.b]);
                ++pc;
                break;
            }
            case OpCode::CastBool:
                regs[ins.a] = Value(regs[ins.b].as_bool());
                ++pc;
                break;
            case OpCode::Jump:
                pc = ins.c;
                break;
            case OpCode::JumpIfFalse:
                pc = regs[ins.b].as_bool() ? pc + 1 : ins.c;
                break;
            case OpCode::JumpIfTrue:
                pc = regs[ins.b].as_bool() ? ins.c : pc + 1;
                break;
            default:
                regs[ins.a] = apply_binary(binary_op_of(ins.op), regs[ins.b], regs[ins.c]);
                ++pc;
                break;
        }
    }
    return regs[0];
}

}  // namespace arcade::expr
