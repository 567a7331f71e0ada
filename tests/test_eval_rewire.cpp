// Whole-pipeline identity tests for the evaluator rewiring: the expr
// bytecode VM vs the tree interpreter must explore IDENTICAL chains: same
// states in the same order, bitwise-equal rates, equal label bitsets and
// reward vectors — on every watertree line/strategy's reactive-modules
// translation, on hand-written PRISM texts, on a pump-scaled line, and on a
// module-per-pump system — and must throw identical ModelErrors on systems
// that fail.
//
// The interpreter is reached only through the explicit EvalMode argument
// these tests pass.  The kernel-mode stubs kept for perfbench are checked
// at the end; no mode changes what runs (test_linalg's Kernels.* compare
// the blocked kernels with the seed's scalar loop).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <future>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "arcade/modules_compiler.hpp"
#include "expr/vm.hpp"
#include "linalg/kernels.hpp"
#include "modules/explorer.hpp"
#include "prism/prism_parser.hpp"
#include "support/errors.hpp"
#include "watertree/watertree.hpp"

namespace core = arcade::core;
namespace expr = arcade::expr;
namespace linalg = arcade::linalg;
namespace modules = arcade::modules;
namespace prism = arcade::prism;
namespace wt = arcade::watertree;

namespace {

bool same_double_bits(double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
}

modules::ExploredModel explore_with(const modules::ModuleSystem& system,
                                    expr::EvalMode eval) {
    modules::ExploreOptions options;
    options.eval = eval;
    return modules::explore(system, options);
}

void expect_identical_chains(const modules::ExploredModel& a,
                             const modules::ExploredModel& b, const std::string& what) {
    ASSERT_EQ(a.state_count(), b.state_count()) << what;
    for (std::size_t s = 0; s < a.state_count(); ++s) {
        ASSERT_EQ(a.valuation(s), b.valuation(s)) << what << " state " << s;
    }

    const auto& ra = a.chain.rates();
    const auto& rb = b.chain.rates();
    ASSERT_EQ(ra.row_ptr(), rb.row_ptr()) << what;
    ASSERT_EQ(ra.col_idx(), rb.col_idx()) << what;
    ASSERT_EQ(ra.values().size(), rb.values().size()) << what;
    for (std::size_t k = 0; k < ra.values().size(); ++k) {
        ASSERT_TRUE(same_double_bits(ra.values()[k], rb.values()[k]))
            << what << " rate entry " << k;
    }

    auto names_a = a.chain.label_names();
    auto names_b = b.chain.label_names();
    std::sort(names_a.begin(), names_a.end());
    std::sort(names_b.begin(), names_b.end());
    ASSERT_EQ(names_a, names_b) << what;
    for (const auto& name : names_a) {
        ASSERT_EQ(a.chain.label(name), b.chain.label(name)) << what << " label " << name;
    }

    ASSERT_EQ(a.reward_structures.size(), b.reward_structures.size()) << what;
    for (const auto& [name, ra_struct] : a.reward_structures) {
        const auto it = b.reward_structures.find(name);
        ASSERT_NE(it, b.reward_structures.end()) << what << " reward " << name;
        const auto& va = ra_struct.state_rates();
        const auto& vb = it->second.state_rates();
        ASSERT_EQ(va.size(), vb.size()) << what << " reward " << name;
        for (std::size_t s = 0; s < va.size(); ++s) {
            ASSERT_TRUE(same_double_bits(va[s], vb[s]))
                << what << " reward " << name << " state " << s;
        }
    }
}

/// The PRISM texts test_prism parses and explores, plus the test_modules
/// idioms (constants in rates, summed reward items) written as PRISM.
const char* const kPrismTexts[] = {
    R"(
// availability model with shared repair
ctmc

const double lambda = 1/100;
const double mu = 0.5;
const int N = 2;

formula both_up = x=0 & y=0;

module comp_x
  x : [0..1] init 0;
  [] x=0 -> lambda : (x'=1);
  [] x=1 -> mu : (x'=0);
endmodule

module comp_y
  y : [0..1] init 0;
  [] y=0 -> 2*lambda : (y'=1);
  [] y=1 -> mu : (y'=0);
endmodule

label "up" = both_up;
label "deg" = x+y = 1;

rewards "downtime"
  !both_up : 1;
endrewards
)",
    R"(
ctmc
module a
  x : [0..1] init 0;
  [tick] x=0 -> 2 : (x'=1);
endmodule
module b
  y : [0..1] init 0;
  [tick] y=0 -> 3 : (y'=1);
endmodule
)",
    R"(
ctmc
module m
  b : bool init false;
  [] !b -> 1.5 : (b'=true);
  [] b -> 1 : true;
endmodule
)",
    R"(
ctmc
module m
  x : [0..2] init 0;
  [] x=0 -> 1 : (x'=1) + 3 : (x'=2);
endmodule
)",
    R"(
ctmc
const int N = 3;
module m
  x : [0..3] init 0;
  [] x < N - 1 -> 1 : (x'=x+1);
  [] x > 0 -> 2 : (x'=x-1);
endmodule
)",
    R"(
ctmc
const double lambda = 0.25;
const int N = 2;
module counter
  c : [0..2] init 0;
  [] c < N -> lambda * (c + 1) : (c'=c+1);
  [] c > 0 -> 1 : (c'=0);
endmodule
label "full" = c = N;
rewards "cost"
  c=1 : 3;
  true : 0.5;
endrewards
)",
};

/// Line 2's pump stage with one spare pump beyond the paper (two of four
/// required), dedicated repair, one module per pump.
const char* const kPumpStage = R"(
ctmc
const double fail = 0.002;
const double repair = 1;
module pump1
  p1 : [0..1] init 0;
  [] p1=0 -> fail : (p1'=1);
  [] p1=1 -> repair : (p1'=0);
endmodule
module pump2
  p2 : [0..1] init 0;
  [] p2=0 -> fail : (p2'=1);
  [] p2=1 -> repair : (p2'=0);
endmodule
module pump3
  p3 : [0..1] init 0;
  [] p3=0 -> fail : (p3'=1);
  [] p3=1 -> repair : (p3'=0);
endmodule
module pump4
  p4 : [0..1] init 0;
  [] p4=0 -> fail : (p4'=1);
  [] p4=1 -> repair : (p4'=0);
endmodule
label "operational" = p1+p2+p3+p4 <= 2;
rewards "cost"
  p1+p2+p3+p4 >= 1 : 3*(p1+p2+p3+p4);
  true : 1;
endrewards
)";

/// The ModelError message exploring `system` under `eval` raises ("" when
/// the explore succeeds).
std::string explore_error(const modules::ModuleSystem& system, expr::EvalMode eval) {
    try {
        (void)explore_with(system, eval);
    } catch (const arcade::ModelError& e) {
        return e.what();
    }
    return "";
}

}  // namespace

TEST(EvalRewire, InterpAndVmExploreIdenticalChains) {
    // Each system is explored under both evaluators on a thread of its own;
    // the comparisons run here, in order.
    using Chains = std::pair<modules::ExploredModel, modules::ExploredModel>;
    const auto explore_both = [](modules::ModuleSystem system) {
        return std::async(std::launch::async, [system = std::move(system)] {
            return Chains{explore_with(system, expr::EvalMode::Vm),
                          explore_with(system, expr::EvalMode::Interp)};
        });
    };
    std::vector<std::pair<std::string, std::future<Chains>>> systems;
    for (const char* name : {"DED", "FRF-1", "FRF-2", "FFF-1", "FFF-2"}) {
        for (int line = 1; line <= 2; ++line) {
            const auto model = line == 1 ? wt::line1(wt::strategy(name))
                                         : wt::line2(wt::strategy(name));
            systems.emplace_back(std::string(name) + " line " + std::to_string(line),
                                 explore_both(core::to_reactive_modules(model)));
        }
    }
    for (std::size_t i = 0; i < std::size(kPrismTexts); ++i) {
        systems.emplace_back("PRISM text " + std::to_string(i),
                             explore_both(prism::parse_prism(kPrismTexts[i])));
    }
    // One spare pump beyond the paper's line 2.
    systems.emplace_back("DED line 2 +1 pump",
                         explore_both(core::to_reactive_modules(
                             wt::line2(wt::strategy("DED"), {}, /*extra_pumps=*/1))));
    // The same four-pump stage written one module per pump.
    auto pumps = explore_both(prism::parse_prism(kPumpStage));

    for (auto& [what, explored] : systems) {
        const Chains chains = explored.get();
        expect_identical_chains(chains.first, chains.second, what);
    }
    const Chains chains = pumps.get();
    EXPECT_EQ(chains.first.state_count(), 16u);  // 2^4 pump valuations
    expect_identical_chains(chains.first, chains.second, "four-pump stage");
}

TEST(EvalRewire, StatePredicateAgreesAcrossEvaluators) {
    const auto system = core::to_reactive_modules(wt::line2(wt::strategy("FRF-1")));
    const auto model = explore_with(system, expr::EvalMode::Vm);
    // An ad-hoc predicate over module variables exercises the compiled path.
    const auto predicate = expr::parse_expression(system.labels.begin()->second.to_string());
    const auto vm =
        modules::evaluate_state_predicate(model, system, predicate, expr::EvalMode::Vm);
    const auto interp =
        modules::evaluate_state_predicate(model, system, predicate, expr::EvalMode::Interp);
    EXPECT_EQ(vm, interp);
    EXPECT_EQ(vm, model.chain.label(system.labels.begin()->first));
}

TEST(EvalRewire, InterpAndVmThrowIdenticalModelErrors) {
    // Each text fails in one place: before exploring (unknown names), while
    // walking successors (range, guard, rate, synchronised rate, assignment
    // type) or in the label/reward sweep.
    const struct {
        const char* what;
        const char* text;
    } cases[] = {
        {"assignment leaves its range", R"(ctmc
module m
  x : [0..3] init 0;
  [] x<3 -> 1 : (x'=x+2);
endmodule
)"},
        {"ill-typed guard", R"(ctmc
module m
  x : [0..1] init 0;
  [] x & 1 -> 1 : (x'=1);
endmodule
)"},
        {"boolean rate", R"(ctmc
module m
  x : [0..1] init 0;
  [] true -> x=0 : (x'=1);
endmodule
)"},
        {"ill-typed synchronised rate", R"(ctmc
module a
  x : [0..1] init 0;
  [go] x=0 -> 2 : (x'=1);
endmodule
module b
  y : [0..1] init 0;
  [go] y=0 -> y | true : (y'=1);
endmodule
)"},
        {"non-integer assignment", R"(ctmc
module m
  x : [0..1] init 0;
  [] x=0 -> 1 : (x'=0.5);
endmodule
)"},
        {"assignment to an unknown variable", R"(ctmc
module m
  x : [0..1] init 0;
  [] x=0 -> 1 : (z'=1);
endmodule
)"},
        {"unknown identifier in a guard", R"(ctmc
module m
  x : [0..1] init 0;
  [] x=w -> 1 : (x'=1);
endmodule
)"},
        {"ill-typed label", R"(ctmc
module m
  x : [0..1] init 0;
  [] x=0 -> 1 : (x'=1);
endmodule
label "bad" = x + 1;
)"},
        {"reward rate divides by zero", R"(ctmc
module m
  x : [0..1] init 0;
  [] x=0 -> 1 : (x'=1);
endmodule
rewards "cost"
  true : 1/x;
endrewards
)"},
    };
    for (const auto& c : cases) {
        const auto system = prism::parse_prism(c.text);
        const std::string vm = explore_error(system, expr::EvalMode::Vm);
        EXPECT_FALSE(vm.empty()) << c.what;
        EXPECT_EQ(vm, explore_error(system, expr::EvalMode::Interp)) << c.what;
    }
}

TEST(EvalRewire, KernelModeDefaultsAndOverrides) {
    const linalg::KernelMode before = linalg::kernel_mode();
    linalg::set_kernel_mode(linalg::KernelMode::Scalar);
    EXPECT_EQ(linalg::kernel_mode(), linalg::KernelMode::Scalar);
    linalg::set_kernel_mode(linalg::KernelMode::Blocked);
    EXPECT_EQ(linalg::kernel_mode(), linalg::KernelMode::Blocked);
    linalg::set_kernel_mode(linalg::KernelMode::Simd);
    EXPECT_EQ(linalg::kernel_mode(), linalg::KernelMode::Simd);
    linalg::set_kernel_mode(before);
    EXPECT_EQ(linalg::kernel_mode(), before);
}
