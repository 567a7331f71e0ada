// Recursive-descent parser for the CSL/CSRL textual syntax (see csl.hpp).
//
// Every ParseError names the byte offset of the offending token, so tooling
// (and humans staring at generated formulas) can point at the exact spot.
// Nesting is bounded (kMaxDepth), so hostile input cannot exhaust the stack.
#include <cctype>

#include "logic/csl.hpp"
#include "support/errors.hpp"

namespace arcade::logic {

namespace {

[[noreturn]] void fail(const std::string& what, std::size_t offset) {
    throw ParseError("CSL: " + what + " at byte offset " + std::to_string(offset));
}

class Cursor {
public:
    explicit Cursor(const std::string& text) : text_(text) {}

    void skip() {
        while (i_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[i_])) != 0) {
            ++i_;
        }
    }

    /// Byte offset of the next token (whitespace skipped).
    [[nodiscard]] std::size_t offset() {
        skip();
        return i_;
    }

    [[nodiscard]] bool done() {
        skip();
        return i_ >= text_.size();
    }

    bool accept(const std::string& token) {
        skip();
        if (text_.compare(i_, token.size(), token) != 0) return false;
        if (std::isalpha(static_cast<unsigned char>(token[0])) != 0) {
            const std::size_t after = i_ + token.size();
            if (after < text_.size() &&
                (std::isalnum(static_cast<unsigned char>(text_[after])) != 0 ||
                 text_[after] == '_')) {
                return false;
            }
        }
        i_ += token.size();
        return true;
    }

    void expect(const std::string& token) {
        if (!accept(token)) fail("expected '" + token + "'", offset());
    }

    double number() {
        const std::size_t at = offset();
        std::size_t consumed = 0;
        double v = 0.0;
        try {
            v = std::stod(text_.substr(i_), &consumed);
        } catch (const std::exception&) {
            fail("expected a number", at);
        }
        i_ += consumed;
        return v;
    }

    std::string quoted() {
        const std::size_t at = offset();
        expect("\"");
        std::size_t j = i_;
        while (j < text_.size() && text_[j] != '"') ++j;
        if (j >= text_.size()) fail("unterminated label name", at);
        std::string out = text_.substr(i_, j - i_);
        i_ = j + 1;
        return out;
    }

private:
    const std::string& text_;
    std::size_t i_ = 0;
};

/// Deepest nesting of operators and parentheses the parser accepts; the
/// paper's formulas nest a few levels.
constexpr std::size_t kMaxDepth = 256;

class CslParser {
public:
    explicit CslParser(const std::string& text) : cur_(text) {}

    StateFormulaPtr parse() {
        StateFormulaPtr f = parse_or();
        if (!cur_.done()) fail("trailing input", cur_.offset());
        return f;
    }

private:
    Cursor cur_;

    static StateFormulaPtr make(StateFormula::Node node) {
        return std::make_shared<const StateFormula>(std::move(node));
    }

    /// Builds the P node for a G path parsed as its dual Until:
    /// P(G f) {><} p  <=>  P(U dual) {<>} 1-p, and =? queries complement the
    /// value via a Negation the checker evaluates numerically (1 - value).
    static StateFormulaPtr make_globally(Bound b, PathFormula path) {
        switch (b.comparison) {
            case Comparison::Query: break;
            case Comparison::Lt: b.comparison = Comparison::Gt; b.threshold = 1.0 - b.threshold; break;
            case Comparison::Le: b.comparison = Comparison::Ge; b.threshold = 1.0 - b.threshold; break;
            case Comparison::Gt: b.comparison = Comparison::Lt; b.threshold = 1.0 - b.threshold; break;
            case Comparison::Ge: b.comparison = Comparison::Le; b.threshold = 1.0 - b.threshold; break;
        }
        StateFormulaPtr inner = make(Probabilistic{b, std::move(path)});
        if (b.comparison == Comparison::Query) return make(Negation{inner});
        return inner;
    }

    StateFormulaPtr parse_or() {
        StateFormulaPtr lhs = parse_and();
        while (cur_.accept("|")) {
            lhs = make(Disjunction{lhs, parse_and()});
        }
        return lhs;
    }

    StateFormulaPtr parse_and() {
        StateFormulaPtr lhs = parse_unary();
        while (cur_.accept("&")) {
            lhs = make(Conjunction{lhs, parse_unary()});
        }
        return lhs;
    }

    Bound parse_bound() {
        Bound b;
        if (cur_.accept("=?")) {
            b.comparison = Comparison::Query;
        } else if (cur_.accept("<=")) {
            b.comparison = Comparison::Le;
            b.threshold = cur_.number();
        } else if (cur_.accept(">=")) {
            b.comparison = Comparison::Ge;
            b.threshold = cur_.number();
        } else if (cur_.accept("<")) {
            b.comparison = Comparison::Lt;
            b.threshold = cur_.number();
        } else if (cur_.accept(">")) {
            b.comparison = Comparison::Gt;
            b.threshold = cur_.number();
        } else {
            fail("expected a probability/reward bound (=?, <p, <=p, >p, >=p)",
                 cur_.offset());
        }
        return b;
    }

    /// One nesting level for the lifetime of the scope (every recursion of
    /// the grammar passes through parse_unary).
    class Nested {
    public:
        explicit Nested(CslParser& parser) : depth_(parser.depth_) {
            if (++depth_ > kMaxDepth) {
                fail("formula nested deeper than " + std::to_string(kMaxDepth) + " levels",
                     parser.cur_.offset());
            }
        }
        ~Nested() { --depth_; }
        Nested(const Nested&) = delete;
        Nested& operator=(const Nested&) = delete;

    private:
        std::size_t& depth_;
    };

    StateFormulaPtr parse_unary() {
        const Nested nested(*this);
        if (cur_.accept("!")) return make(Negation{parse_unary()});
        if (cur_.accept("(")) {
            StateFormulaPtr f = parse_or();
            cur_.expect(")");
            return f;
        }
        if (cur_.accept("true")) return make(BoolLiteral{true});
        if (cur_.accept("false")) return make(BoolLiteral{false});
        if (cur_.accept("P")) {
            Bound b = parse_bound();
            cur_.expect("[");
            globally_ = false;
            PathFormula path = parse_path();
            // Consume the flag at THIS P node: a nested P [G ...] inside the
            // path has already consumed its own, so the duality fixup never
            // leaks across operator levels.
            const bool globally = globally_;
            globally_ = false;
            cur_.expect("]");
            if (globally) return make_globally(b, std::move(path));
            return make(Probabilistic{b, std::move(path)});
        }
        if (cur_.accept("S")) {
            Bound b = parse_bound();
            cur_.expect("[");
            StateFormulaPtr f = parse_or();
            cur_.expect("]");
            return make(SteadyState{b, f});
        }
        if (cur_.accept("R")) {
            std::string structure;
            if (cur_.accept("{")) {
                structure = cur_.quoted();
                cur_.expect("}");
            }
            Bound b = parse_bound();
            cur_.expect("[");
            RewardProperty prop = parse_reward_property();
            cur_.expect("]");
            return make(Reward{std::move(structure), b, prop});
        }
        // label
        return make(Label{cur_.quoted()});
    }

    RewardProperty parse_reward_property() {
        if (cur_.accept("I")) {
            cur_.expect("=");
            return InstantaneousReward{cur_.number()};
        }
        if (cur_.accept("C")) {
            cur_.expect("<=");
            return CumulativeReward{cur_.number()};
        }
        if (cur_.accept("S")) {
            return SteadyStateReward{};
        }
        fail("expected a reward property: I=t, C<=t, or S", cur_.offset());
    }

    PathFormula parse_path() {
        if (cur_.accept("X")) {
            return NextPath{parse_or()};
        }
        if (cur_.accept("G")) {
            // G<=t f is the dual of an Until:  P(G f) = 1 - P(true U !f).
            // The parser desugars to the Until and records the complement;
            // the enclosing P node folds it into its formula (flipped
            // bounds, or a numeric Negation for =? queries, make_globally),
            // so the checker never needs a dedicated `globally` node.
            std::optional<double> bound;
            if (cur_.accept("<=")) bound = cur_.number();
            StateFormulaPtr f = parse_or();
            StateFormulaPtr not_f = std::make_shared<const StateFormula>(Negation{f});
            StateFormulaPtr tru = std::make_shared<const StateFormula>(BoolLiteral{true});
            UntilPath u{tru, not_f, bound};
            globally_ = true;
            return u;
        }
        if (cur_.accept("F")) {
            std::optional<double> bound;
            if (cur_.accept("<=")) bound = cur_.number();
            StateFormulaPtr f = parse_or();
            StateFormulaPtr tru = std::make_shared<const StateFormula>(BoolLiteral{true});
            return UntilPath{tru, f, bound};
        }
        StateFormulaPtr lhs = parse_or();
        cur_.expect("U");
        std::optional<double> bound;
        if (cur_.accept("<=")) bound = cur_.number();
        StateFormulaPtr rhs = parse_or();
        return UntilPath{lhs, rhs, bound};
    }

    /// Set by parse_path when the path just parsed was a G (globally),
    /// consumed — and reset — by the immediately enclosing P node.
    bool globally_ = false;
    std::size_t depth_ = 0;  ///< parse_unary frames on the stack
};

}  // namespace

StateFormulaPtr parse_csl(const std::string& text) {
    return CslParser(text).parse();
}

}  // namespace arcade::logic
