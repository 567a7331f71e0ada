// In-memory span recorder for the traced benchmark run.
//
// The benchmark wraps its own calls into each library layer in spans; the
// library itself is not instrumented.  Spans are kept in memory and written
// once, as Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
// A span's self time is its duration minus the part of its interval covered
// by its children (children on other threads overlap; the union counts once).
#ifndef ARCADE_PERFBENCH_TRACE_HPP
#define ARCADE_PERFBENCH_TRACE_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t pass = 0;    ///< which traced pass the span belongs to
    std::string name;          ///< "<layer>.<operation>", e.g. "arcade.compile"
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    unsigned tid = 0;
    std::string detail;        ///< model or cell the call worked on
};

class Tracer {
public:
    Tracer() : origin_(std::chrono::steady_clock::now()) {}

    [[nodiscard]] std::int64_t now_ns() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - origin_)
            .count();
    }

    /// Reserves a span id; the span is recorded by finish().
    std::uint64_t begin() {
        std::lock_guard<std::mutex> lock(mutex_);
        return ++next_id_;
    }

    void finish(Span span) {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(std::move(span));
    }

    [[nodiscard]] std::vector<Span> spans() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_;
    }

    /// Sum of durations of every span called `name` (seconds), optionally
    /// restricted to one pass (0 = all passes).
    [[nodiscard]] double total_seconds(const std::string& name, std::uint64_t pass = 0) const {
        std::lock_guard<std::mutex> lock(mutex_);
        std::int64_t ns = 0;
        for (const auto& s : spans_) {
            if (s.name == name && (pass == 0 || s.pass == pass)) ns += s.end_ns - s.start_ns;
        }
        return static_cast<double>(ns) * 1e-9;
    }

    /// Self time of every span: duration minus the union of its children.
    [[nodiscard]] std::map<std::uint64_t, std::int64_t> self_ns() const {
        const auto all = spans();
        std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
        for (const auto& s : all) {
            if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
        }
        std::map<std::uint64_t, std::int64_t> out;
        for (const auto& s : all) {
            std::int64_t covered = 0;
            auto it = children.find(s.id);
            if (it != children.end()) {
                auto& iv = it->second;
                std::sort(iv.begin(), iv.end());
                std::int64_t cur_begin = 0, cur_end = -1;
                for (const auto& [b0, e0] : iv) {
                    const std::int64_t b = std::max(b0, s.start_ns);
                    const std::int64_t e = std::min(e0, s.end_ns);
                    if (e <= b) continue;
                    if (b > cur_end) {
                        if (cur_end > cur_begin) covered += cur_end - cur_begin;
                        cur_begin = b;
                        cur_end = e;
                    } else {
                        cur_end = std::max(cur_end, e);
                    }
                }
                if (cur_end > cur_begin) covered += cur_end - cur_begin;
            }
            out[s.id] = (s.end_ns - s.start_ns) - covered;
        }
        return out;
    }

    /// Chrome trace-event JSON ("X" complete events, microsecond clock).
    void write_chrome_json(std::ostream& os) const {
        const auto all = spans();
        const auto self = self_ns();
        os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        bool first = true;
        for (const auto& s : all) {
            if (!first) os << ",";
            first = false;
            os << "\n{\"name\":\"" << escape(s.name) << "\",\"cat\":\""
               << escape(s.name.substr(0, s.name.find('.'))) << "\",\"ph\":\"X\",\"pid\":1,"
               << "\"tid\":" << s.tid << ",\"ts\":" << static_cast<double>(s.start_ns) * 1e-3
               << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
               << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
               << ",\"pass\":" << s.pass << ",\"self_us\":"
               << static_cast<double>(self.at(s.id)) * 1e-3 << ",\"detail\":\""
               << escape(s.detail) << "\"}}";
        }
        os << "\n]}\n";
    }

private:
    static std::string escape(const std::string& text) {
        std::string out;
        for (const char c : text) {
            if (c == '"' || c == '\\') out += '\\';
            if (static_cast<unsigned char>(c) >= 0x20) out += c;
        }
        return out;
    }

    std::chrono::steady_clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::uint64_t next_id_ = 0;
};

/// Records one span around a scope.  With a null tracer it is a no-op, so
/// the same code path serves the traced and the untraced run.
class ScopedSpan {
public:
    ScopedSpan(Tracer* tracer, std::string name, std::uint64_t parent, std::uint64_t pass,
               unsigned tid, std::string detail = {})
        : tracer_(tracer) {
        if (tracer_ == nullptr) return;
        span_.id = tracer_->begin();
        span_.parent = parent;
        span_.pass = pass;
        span_.name = std::move(name);
        span_.tid = tid;
        span_.detail = std::move(detail);
        span_.start_ns = tracer_->now_ns();
    }
    ~ScopedSpan() {
        if (tracer_ == nullptr) return;
        span_.end_ns = tracer_->now_ns();
        tracer_->finish(std::move(span_));
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }

private:
    Tracer* tracer_;
    Span span_;
};

}  // namespace perfbench

#endif  // ARCADE_PERFBENCH_TRACE_HPP
