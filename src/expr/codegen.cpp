#include "expr/codegen.hpp"

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "support/errors.hpp"

#if !defined(_WIN32) && __has_include(<dlfcn.h>)
#include <dlfcn.h>
#define ARCADE_HAS_DLOPEN 1
#else
#define ARCADE_HAS_DLOPEN 0
#endif

namespace arcade::expr {

namespace {

std::atomic<std::size_t>& builds_counter() {
    static std::atomic<std::size_t> c{0};
    return c;
}
std::atomic<std::size_t>& cache_hits_counter() {
    static std::atomic<std::size_t> c{0};
    return c;
}
std::atomic<std::size_t>& fallbacks_counter() {
    static std::atomic<std::size_t> c{0};
    return c;
}

/// Process-wide cache of loaded units, keyed by the same content address as
/// the on-disk cache.  Repeat explores of one model (the common case in the
/// sweep and the benchmarks) reuse the already-dlopen'ed handle instead of
/// paying filesystem probes + loader round-trips per explore; weak_ptr keeps
/// the cache from pinning units nobody holds any more.
std::mutex& unit_cache_mutex() {
    static std::mutex m;
    return m;
}
std::map<std::uint64_t, std::weak_ptr<const NativeUnit>>& unit_cache() {
    static std::map<std::uint64_t, std::weak_ptr<const NativeUnit>> cache;
    return cache;
}

/// FNV-1a over the generated source text — the content address of a unit.
std::uint64_t fnv1a(const std::string& s) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/// A pool constant as a generated-source expression that reconstructs the
/// identical Value: bools and ints literally, doubles from their exact bit
/// pattern (hexfloat text would survive too, but bits dodge every parsing
/// question, NaN payloads included).
std::string const_expr(const Value& v) {
    if (v.is_bool()) return v.as_bool() ? "B(true)" : "B(false)";
    if (v.is_int()) {
        const long long x = v.as_int();
        if (x == std::numeric_limits<long long>::min()) {
            return "I(-9223372036854775807LL - 1)";
        }
        return "I(" + std::to_string(x) + "LL)";
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llxULL",
                  static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v.as_double())));
    return std::string("D(bits(") + buf + "))";
}

std::string reg(std::uint32_t r) {
    std::string out = "r";
    out += std::to_string(r);
    return out;
}

/// The fixed preamble every unit shares: a tagged value struct plus inline
/// operators that replicate apply_binary/apply_unary (expr/expr.cpp) branch
/// for branch.  Type errors, division by zero and integer overflow throw
/// Err, which the extern "C" wrappers turn into a negative return — the
/// host then re-runs the paired VM program to raise the identical
/// ModelError.
constexpr const char* kPreamble = R"(// generated by arcade::expr codegen v1 — do not edit
#include <cmath>
#include <cstdint>
namespace {
struct V { int t; long long i; double d; };  // t: 0=bool 1=int 2=double
struct Err {};
inline V B(bool b) { return V{0, b ? 1LL : 0LL, 0.0}; }
inline V I(long long v) { return V{1, v, 0.0}; }
inline V D(double v) { return V{2, 0, v}; }
inline double bits(unsigned long long u) { double d; __builtin_memcpy(&d, &u, 8); return d; }
inline bool as_bool(const V& v) { if (v.t != 0) throw Err{}; return v.i != 0; }
inline double as_double(const V& v) { if (v.t == 0) throw Err{}; return v.t == 1 ? static_cast<double>(v.i) : v.d; }
inline V op_add(const V& a, const V& b) { long long r = 0; if (a.t == 1 && b.t == 1) { if (__builtin_add_overflow(a.i, b.i, &r)) throw Err{}; return I(r); } return D(as_double(a) + as_double(b)); }
inline V op_sub(const V& a, const V& b) { long long r = 0; if (a.t == 1 && b.t == 1) { if (__builtin_sub_overflow(a.i, b.i, &r)) throw Err{}; return I(r); } return D(as_double(a) - as_double(b)); }
inline V op_mul(const V& a, const V& b) { long long r = 0; if (a.t == 1 && b.t == 1) { if (__builtin_mul_overflow(a.i, b.i, &r)) throw Err{}; return I(r); } return D(as_double(a) * as_double(b)); }
inline V op_min(const V& a, const V& b) { if (a.t == 1 && b.t == 1) return I(a.i < b.i ? a.i : b.i); const double x = as_double(a); const double y = as_double(b); return D(x < y ? x : y); }
inline V op_max(const V& a, const V& b) { if (a.t == 1 && b.t == 1) return I(a.i > b.i ? a.i : b.i); const double x = as_double(a); const double y = as_double(b); return D(x > y ? x : y); }
inline V op_div(const V& a, const V& b) { const double y = as_double(b); if (y == 0.0) throw Err{}; return D(as_double(a) / y); }
inline V op_pow(const V& a, const V& b) { const double x = as_double(a); const double y = as_double(b); return D(std::pow(x, y)); }
inline bool val_eq(const V& a, const V& b) {
    if ((a.t == 0) != (b.t == 0)) return false;
    if (a.t == 0) return a.i == b.i;
    if (a.t == 1 && b.t == 1) return a.i == b.i;
    return as_double(a) == as_double(b);
}
inline V op_eq(const V& a, const V& b) { return B(val_eq(a, b)); }
inline V op_ne(const V& a, const V& b) { return B(!val_eq(a, b)); }
inline V op_lt(const V& a, const V& b) { const double x = as_double(a); const double y = as_double(b); return B(x < y); }
inline V op_le(const V& a, const V& b) { const double x = as_double(a); const double y = as_double(b); return B(x <= y); }
inline V op_gt(const V& a, const V& b) { const double x = as_double(a); const double y = as_double(b); return B(x > y); }
inline V op_ge(const V& a, const V& b) { const double x = as_double(a); const double y = as_double(b); return B(x >= y); }
inline V op_implies(const V& a, const V& b) { return B(!as_bool(a) || as_bool(b)); }
inline V op_iff(const V& a, const V& b) { const bool x = as_bool(a); const bool y = as_bool(b); return B(x == y); }
inline V op_neg(const V& a) { long long r = 0; if (a.t == 1) { if (__builtin_sub_overflow(0LL, a.i, &r)) throw Err{}; return I(r); } return D(-as_double(a)); }
inline V op_not(const V& a) { return B(!as_bool(a)); }
inline long long checked_integer(double d) { if (!(d >= -0x1p63 && d < 0x1p63)) throw Err{}; return static_cast<long long>(d); }
inline V op_floor(const V& a) { return I(checked_integer(std::floor(as_double(a)))); }
inline V op_ceil(const V& a) { return I(checked_integer(std::ceil(as_double(a)))); }
}  // namespace
)";

const char* binary_fn(OpCode op) {
    switch (op) {
        case OpCode::Add: return "op_add";
        case OpCode::Sub: return "op_sub";
        case OpCode::Mul: return "op_mul";
        case OpCode::Div: return "op_div";
        case OpCode::Min: return "op_min";
        case OpCode::Max: return "op_max";
        case OpCode::Pow: return "op_pow";
        case OpCode::Eq: return "op_eq";
        case OpCode::Ne: return "op_ne";
        case OpCode::Lt: return "op_lt";
        case OpCode::Le: return "op_le";
        case OpCode::Gt: return "op_gt";
        case OpCode::Ge: return "op_ge";
        case OpCode::Implies: return "op_implies";
        default: return "op_iff";
    }
}

/// One program as a static body function: registers are locals (initialised
/// to the VM's default Value, bool false), every instruction becomes one
/// labelled statement, jumps become gotos.  Generation walks the bytecode,
/// so the VM's constant folding and short-circuit lowering carry over.
void emit_program(std::string& src, std::size_t index, const Program& program,
                  const std::vector<bool>& slot_is_bool) {
    src += "static V body_" + std::to_string(index) + "(const std::int64_t* s) {\n";
    const std::uint32_t regs = program.register_count() == 0 ? 1 : program.register_count();
    for (std::uint32_t r = 0; r < regs; ++r) {
        src += "    V " + reg(r) + " = B(false);\n";
    }
    const auto& code = program.code();
    const auto& pool = program.constant_pool();
    for (std::size_t pc = 0; pc < code.size(); ++pc) {
        const Instr& ins = code[pc];
        src += "    L" + std::to_string(pc) + ": ";
        switch (ins.op) {
            case OpCode::LoadConst:
                src += reg(ins.a) + " = " + const_expr(pool[ins.c]) + ";";
                break;
            case OpCode::LoadSlot:
                ARCADE_ASSERT(ins.c < slot_is_bool.size(), "codegen slot out of range");
                src += reg(ins.a) + (slot_is_bool[ins.c]
                                         ? " = B(s[" + std::to_string(ins.c) + "] != 0);"
                                         : " = I(static_cast<long long>(s[" +
                                               std::to_string(ins.c) + "]));");
                break;
            case OpCode::Neg:
                src += reg(ins.a) + " = op_neg(" + reg(ins.b) + ");";
                break;
            case OpCode::Not:
                src += reg(ins.a) + " = op_not(" + reg(ins.b) + ");";
                break;
            case OpCode::Floor:
                src += reg(ins.a) + " = op_floor(" + reg(ins.b) + ");";
                break;
            case OpCode::Ceil:
                src += reg(ins.a) + " = op_ceil(" + reg(ins.b) + ");";
                break;
            case OpCode::CastBool:
                src += reg(ins.a) + " = B(as_bool(" + reg(ins.b) + "));";
                break;
            case OpCode::Jump:
                src += "goto L" + std::to_string(ins.c) + ";";
                break;
            case OpCode::JumpIfFalse:
                src += "if (!as_bool(" + reg(ins.b) + ")) goto L" + std::to_string(ins.c) +
                       ";";
                break;
            case OpCode::JumpIfTrue:
                src += "if (as_bool(" + reg(ins.b) + ")) goto L" + std::to_string(ins.c) +
                       ";";
                break;
            default:
                src += reg(ins.a) + " = " + std::string(binary_fn(ins.op)) + "(" +
                       reg(ins.b) + ", " + reg(static_cast<std::uint32_t>(ins.c)) + ");";
                break;
        }
        src += "\n";
    }
    src += "    L" + std::to_string(code.size()) + ": return r0;\n}\n";
    src += "extern \"C\" int arcade_expr_fn_" + std::to_string(index) +
           "(const std::int64_t* s, long long* oi, double* od) {\n"
           "    try {\n"
           "        const V v = body_" + std::to_string(index) + "(s);\n"
           "        *oi = v.i; *od = v.d; return v.t;\n"
           "    } catch (...) { return -1; }\n"
           "}\n";
}

std::string emit_source(std::span<const Program* const> programs,
                        const std::vector<bool>& slot_is_bool) {
    std::string src = kPreamble;
    src += "extern \"C\" const unsigned long long arcade_expr_unit_count = " +
           std::to_string(programs.size()) + "ULL;\n";
    for (std::size_t i = 0; i < programs.size(); ++i) {
        emit_program(src, i, *programs[i], slot_is_bool);
    }
    return src;
}

#if ARCADE_HAS_DLOPEN

std::string compiler_command() {
    const char* env = std::getenv("ARCADE_CXX");
    if (env == nullptr || *env == '\0') env = std::getenv("CXX");
    if (env == nullptr || *env == '\0') return "c++";
    return env;
}

std::filesystem::path cache_dir() {
    const char* env = std::getenv("ARCADE_CODEGEN_CACHE");
    if (env != nullptr && *env != '\0') return {env};
    return std::filesystem::temp_directory_path() / "arcade-codegen-cache";
}

/// Writes `text` to `path` atomically (tmp file + rename), so concurrent
/// builders of the same unit never see a truncated file.
bool write_file(const std::filesystem::path& path, const std::string& text,
                const std::string& suffix) {
    std::filesystem::path tmp = path;
    tmp += suffix;
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        out << text;
        if (!out) return false;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    return !ec;
}

/// Compiles `cpp` into `so` with the host toolchain.  Diagnostics land in a
/// .log sibling for inspection; a failed compile leaves no partial .so.
bool compile_unit(const std::filesystem::path& cpp, const std::filesystem::path& so,
                  const std::string& suffix) {
    std::filesystem::path tmp_so = so;
    tmp_so += suffix;
    std::filesystem::path log = so;
    log += ".log";
    std::string cmd = "\"";
    cmd += compiler_command();
    cmd += "\" -O2 -fPIC -shared -std=c++17 -w -o \"";
    cmd += tmp_so.string();
    cmd += "\" \"";
    cmd += cpp.string();
    cmd += "\" > \"";
    cmd += log.string();
    cmd += "\" 2>&1";
    // NOLINTNEXTLINE(cert-env33-c) — out-of-process toolchain invocation is the point
    const int rc = std::system(cmd.c_str());
    std::error_code ec;
    if (rc != 0 || !std::filesystem::exists(tmp_so, ec)) {
        std::filesystem::remove(tmp_so, ec);
        return false;
    }
    std::filesystem::rename(tmp_so, so, ec);
    return !ec && std::filesystem::exists(so, ec);
}

#endif  // ARCADE_HAS_DLOPEN

}  // namespace

CodegenCounters codegen_counters() {
    return CodegenCounters{builds_counter().load(std::memory_order_relaxed),
                           cache_hits_counter().load(std::memory_order_relaxed),
                           fallbacks_counter().load(std::memory_order_relaxed)};
}

NativeUnit::~NativeUnit() {
#if ARCADE_HAS_DLOPEN
    if (handle_ != nullptr) dlclose(handle_);
#endif
}

bool NativeUnit::try_run(std::size_t fn, std::span<const std::int64_t> state,
                         Value& out) const {
    ARCADE_ASSERT(fn < fns_.size(), "native unit function index out of range");
    long long i = 0;
    double d = 0.0;
    const int t = fns_[fn](state.data(), &i, &d);
    switch (t) {
        case 0: out = Value(i != 0); return true;
        case 1: out = Value(i); return true;
        case 2: out = Value(d); return true;
        default: return false;
    }
}

std::shared_ptr<const NativeUnit> build_native_unit(
    std::span<const Program* const> programs, const std::vector<bool>& slot_is_bool) {
    if (programs.empty()) return nullptr;
#if !ARCADE_HAS_DLOPEN
    (void)slot_is_bool;
    fallbacks_counter().fetch_add(1, std::memory_order_relaxed);
    return nullptr;
#else
    try {
        const std::string src = emit_source(programs, slot_is_bool);
        const std::uint64_t hash = fnv1a(src);
        {
            const std::lock_guard<std::mutex> lock(unit_cache_mutex());
            if (const auto it = unit_cache().find(hash); it != unit_cache().end()) {
                if (auto live = it->second.lock(); live && live->size() == programs.size()) {
                    cache_hits_counter().fetch_add(1, std::memory_order_relaxed);
                    return live;
                }
            }
        }
        char hash_hex[20];
        std::snprintf(hash_hex, sizeof hash_hex, "%016llx",
                      static_cast<unsigned long long>(hash));
        const std::filesystem::path dir = cache_dir();
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        const std::filesystem::path base = dir / ("unit_" + std::string(hash_hex));
        std::filesystem::path cpp = base;
        cpp += ".cpp";
        std::filesystem::path so = base;
        so += ".so";
        // Per-process temp suffix keeps concurrent builders of one unit from
        // clobbering each other; the final rename is atomic either way.
        const std::string suffix =
            ".tmp" + std::to_string(static_cast<unsigned long long>(
                         std::hash<std::thread::id>{}(std::this_thread::get_id())));
        if (!std::filesystem::exists(so, ec)) {
            if (!write_file(cpp, src, suffix) || !compile_unit(cpp, so, suffix)) {
                fallbacks_counter().fetch_add(1, std::memory_order_relaxed);
                return nullptr;
            }
            builds_counter().fetch_add(1, std::memory_order_relaxed);
        } else {
            cache_hits_counter().fetch_add(1, std::memory_order_relaxed);
        }

        auto unit = std::shared_ptr<NativeUnit>(new NativeUnit());
        unit->path_ = so.string();
        unit->handle_ = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
        if (unit->handle_ == nullptr) {
            fallbacks_counter().fetch_add(1, std::memory_order_relaxed);
            return nullptr;
        }
        const auto* count = static_cast<const unsigned long long*>(
            dlsym(unit->handle_, "arcade_expr_unit_count"));
        if (count == nullptr || *count != programs.size()) {
            fallbacks_counter().fetch_add(1, std::memory_order_relaxed);
            return nullptr;
        }
        unit->fns_.reserve(programs.size());
        for (std::size_t i = 0; i < programs.size(); ++i) {
            void* sym = dlsym(unit->handle_, ("arcade_expr_fn_" + std::to_string(i)).c_str());
            if (sym == nullptr) {
                fallbacks_counter().fetch_add(1, std::memory_order_relaxed);
                return nullptr;
            }
            unit->fns_.push_back(reinterpret_cast<NativeUnit::Fn>(sym));
        }
        {
            const std::lock_guard<std::mutex> lock(unit_cache_mutex());
            unit_cache()[hash] = unit;
        }
        return unit;
    } catch (...) {
        // Environmental failure (no temp dir, unwritable cache, ...): the
        // caller degrades to the VM; never poison the exploration itself.
        fallbacks_counter().fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
#endif
}

}  // namespace arcade::expr
