#include "modules/symmetry.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <variant>

#include "support/errors.hpp"

namespace arcade::modules {

namespace {

using Rename = std::unordered_map<std::string, std::string>;

const std::string& renamed(const std::string& name, const Rename& rename) {
    const auto it = rename.find(name);
    return it == rename.end() ? name : it->second;
}

/// Normalised serialisation of an expression under a variable renaming.
/// Chains of the same commutative-associative operator are flattened and
/// their operand forms sorted, and the symmetric comparisons (=, !=) sort
/// their two sides — so expressions that differ only by the order of
/// symmetric operands serialise identically.  Everything else serialises
/// structurally, so two equal forms denote semantically identical
/// expressions (the comparison is sound, never merely heuristic).
std::string normal_form(const expr::Expr& e, const Rename& rename);

bool commutative_associative(expr::BinaryOp op) {
    switch (op) {
        case expr::BinaryOp::Add:
        case expr::BinaryOp::Mul:
        case expr::BinaryOp::And:
        case expr::BinaryOp::Or:
        case expr::BinaryOp::Min:
        case expr::BinaryOp::Max:
            return true;
        default:
            return false;
    }
}

bool commutative_only(expr::BinaryOp op) {
    return op == expr::BinaryOp::Eq || op == expr::BinaryOp::Ne ||
           op == expr::BinaryOp::Iff;
}

/// Collects the operands of a maximal same-op chain of a
/// commutative-associative operator.
void flatten_chain(const expr::Expr& e, expr::BinaryOp op, const Rename& rename,
                   std::vector<std::string>& out) {
    if (const auto* bin = std::get_if<expr::Binary>(&e.node()); bin != nullptr &&
                                                               bin->op == op) {
        flatten_chain(bin->lhs, op, rename, out);
        flatten_chain(bin->rhs, op, rename, out);
        return;
    }
    out.push_back(normal_form(e, rename));
}

std::string op_tag(expr::BinaryOp op) {
    std::string out = "b";
    out += std::to_string(static_cast<int>(op));
    return out;
}

std::string normal_form(const expr::Expr& e, const Rename& rename) {
    if (e.empty()) return "()";
    return std::visit(
        [&](const auto& node) -> std::string {
            using T = std::decay_t<decltype(node)>;
            std::string out;
            if constexpr (std::is_same_v<T, expr::Literal>) {
                out = "l:";
                out += node.value.to_string();
                return out;
            } else if constexpr (std::is_same_v<T, expr::Identifier>) {
                out = "v:";
                out += renamed(node.name, rename);
                return out;
            } else if constexpr (std::is_same_v<T, expr::Unary>) {
                out = "u";
                out += std::to_string(static_cast<int>(node.op)) + "(" +
                       normal_form(node.operand, rename) + ")";
                return out;
            } else if constexpr (std::is_same_v<T, expr::Binary>) {
                if (commutative_associative(node.op)) {
                    std::vector<std::string> parts;
                    flatten_chain(e, node.op, rename, parts);
                    std::sort(parts.begin(), parts.end());
                    out = op_tag(node.op) + "{";
                    for (const auto& p : parts) out += p + ";";
                    return out + "}";
                }
                std::string lhs = normal_form(node.lhs, rename);
                std::string rhs = normal_form(node.rhs, rename);
                if (commutative_only(node.op) && rhs < lhs) std::swap(lhs, rhs);
                return op_tag(node.op) + "(" + lhs + "," + rhs + ")";
            } else {
                static_assert(std::is_same_v<T, expr::Ite>);
                out = "ite(";
                out += normal_form(node.cond, rename) + "," +
                       normal_form(node.then_branch, rename) + "," +
                       normal_form(node.else_branch, rename) + ")";
                return out;
            }
        },
        e.node());
}

/// Normalised form of one command (action + guard + alternatives with
/// renamed assignment targets).  Alternatives and assignments keep their
/// order: reordering them is already semantically irrelevant for the
/// comparison we make (multisets of whole commands).
std::string command_form(const Command& cmd, const Rename& rename) {
    std::string out = "[" + cmd.action + "]" + normal_form(cmd.guard, rename);
    for (const auto& alt : cmd.alternatives) {
        out += "->";
        out += normal_form(alt.rate, rename) + ":";
        for (const auto& asg : alt.assignments) {
            out += renamed(asg.variable, rename) + "=" +
                   normal_form(asg.value, rename) + "&";
        }
    }
    return out;
}

/// Sorted multiset of a module's command forms — module semantics up to
/// command order (interleaved commands fire independently, synchronised
/// ones are grouped by the action name embedded in each form).
std::string module_form(const Module& module, const Rename& rename) {
    std::vector<std::string> forms;
    forms.reserve(module.commands.size());
    for (const auto& cmd : module.commands) forms.push_back(command_form(cmd, rename));
    std::sort(forms.begin(), forms.end());
    std::string out;
    for (const auto& f : forms) out += f + "\n";
    return out;
}

/// Whole-system normal form under `rename` — equal forms under two
/// renamings mean the renaming is a system automorphism.  Module command
/// multisets are concatenated sorted (interleaving is order-free and a
/// swap moves commands between the two renamed modules); labels and
/// rewards keep their names and declaration structure.
std::string system_form(const ModuleSystem& system, const Rename& rename) {
    std::vector<std::string> module_forms;
    module_forms.reserve(system.modules.size());
    for (const auto& module : system.modules) {
        module_forms.push_back(module_form(module, rename));
    }
    std::sort(module_forms.begin(), module_forms.end());
    std::string out = "modules:";
    for (const auto& f : module_forms) out += f + "\x1f";
    out += "labels:";
    for (const auto& [name, predicate] : system.labels) {  // std::map: sorted
        out += name + "=" + normal_form(predicate, rename) + "\x1f";
    }
    out += "rewards:";
    for (const auto& decl : system.rewards) {
        out += decl.name + "{";
        std::vector<std::string> items;
        items.reserve(decl.items.size());
        for (const auto& item : decl.items) {
            items.push_back(normal_form(item.guard, rename) + "->" +
                            normal_form(item.rate, rename));
        }
        std::sort(items.begin(), items.end());
        for (const auto& i : items) out += i + ";";
        out += "}\x1f";
    }
    return out;
}

/// Template key of a candidate module: structure with own variable k
/// renamed to a positional placeholder.  Non-candidates (synchronising
/// commands, references to foreign variables) return the empty string.
std::string template_key(const ModuleSystem& system, const Module& module) {
    Rename rename;
    std::unordered_set<std::string> own;
    std::string key;
    for (std::size_t i = 0; i < module.variables.size(); ++i) {
        const auto& v = module.variables[i];
        std::string placeholder = "@";
        placeholder += std::to_string(i);
        rename.emplace(v.name, std::move(placeholder));
        own.insert(v.name);
        key += "var[";
        key += std::to_string(static_cast<int>(v.type)) + "," +
               std::to_string(v.low) + "," + std::to_string(v.high) + "," +
               std::to_string(v.init) + "]";
    }
    if (module.variables.empty()) return {};  // stateless: nothing to permute
    const auto own_or_constant = [&](const expr::Expr& e) {
        for (const auto& name : e.free_variables()) {
            if (own.count(name) == 0 && system.constants.count(name) == 0) return false;
        }
        return true;
    };
    for (const auto& cmd : module.commands) {
        if (!cmd.action.empty()) return {};  // synchronisation: out of fragment
        if (!own_or_constant(cmd.guard)) return {};
        for (const auto& alt : cmd.alternatives) {
            if (!own_or_constant(alt.rate)) return {};
            for (const auto& asg : alt.assignments) {
                if (own.count(asg.variable) == 0) return {};
                if (!own_or_constant(asg.value)) return {};
            }
        }
    }
    key += module_form(module, rename);
    return key;
}

}  // namespace

SymmetryAnalysis analyze_symmetry(const ModuleSystem& system) {
    SymmetryAnalysis analysis;
    // Group candidates by template, preserving module order.
    std::map<std::string, std::vector<std::size_t>> by_template;
    for (std::size_t m = 0; m < system.modules.size(); ++m) {
        const std::string key = template_key(system, system.modules[m]);
        if (!key.empty()) by_template[key].push_back(m);
    }
    const std::string identity_form = system_form(system, Rename{});
    for (auto& [key, members] : by_template) {
        if (members.size() < 2) continue;
        // Verify every adjacent transposition is a system automorphism;
        // adjacent transpositions generate the full symmetric group on the
        // members, so this proves invariance under every permutation.
        bool invariant = true;
        for (std::size_t i = 0; i + 1 < members.size() && invariant; ++i) {
            const auto& a = system.modules[members[i]].variables;
            const auto& b = system.modules[members[i + 1]].variables;
            Rename swap_rename;
            for (std::size_t k = 0; k < a.size(); ++k) {
                swap_rename.emplace(a[k].name, b[k].name);
                swap_rename.emplace(b[k].name, a[k].name);
            }
            invariant = system_form(system, swap_rename) == identity_form;
        }
        if (invariant) analysis.orbits.push_back(ModuleOrbit{std::move(members)});
    }
    std::sort(analysis.orbits.begin(), analysis.orbits.end(),
              [](const ModuleOrbit& a, const ModuleOrbit& b) {
                  return a.modules.front() < b.modules.front();
              });
    return analysis;
}

engine::StateSymmetry SymmetryAnalysis::state_symmetry(const ModuleSystem& system) const {
    // Field offset of each module's first variable in the flattened
    // (all_variables) order: modules in order, variables contiguous.
    std::vector<std::size_t> offset(system.modules.size(), 0);
    std::size_t cursor = 0;
    for (std::size_t m = 0; m < system.modules.size(); ++m) {
        offset[m] = cursor;
        cursor += system.modules[m].variables.size();
    }
    std::vector<engine::SymmetryOrbit> engine_orbits;
    engine_orbits.reserve(orbits.size());
    for (const auto& orbit : orbits) {
        engine::SymmetryOrbit eo;
        for (const std::size_t m : orbit.modules) {
            ARCADE_ASSERT(m < system.modules.size(), "orbit module out of range");
            std::vector<std::size_t> fields(system.modules[m].variables.size());
            for (std::size_t k = 0; k < fields.size(); ++k) fields[k] = offset[m] + k;
            eo.instances.push_back(std::move(fields));
        }
        engine_orbits.push_back(std::move(eo));
    }
    return engine::StateSymmetry(std::move(engine_orbits));
}

}  // namespace arcade::modules
