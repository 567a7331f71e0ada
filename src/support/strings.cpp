#include "support/strings.hpp"

#include <cctype>
#include <charconv>
#include <system_error>

namespace arcade {

std::vector<std::string> split(std::string_view text, char sep) {
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= text.size(); ++i) {
        if (i == text.size() || text[i] == sep) {
            out.emplace_back(text.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

std::string_view trim(std::string_view text) {
    std::size_t b = 0;
    std::size_t e = text.size();
    while (b < e && std::isspace(static_cast<unsigned char>(text[b])) != 0) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1])) != 0) --e;
    return text.substr(b, e - b);
}

bool starts_with(std::string_view text, std::string_view prefix) {
    return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i > 0) out += sep;
        out += parts[i];
    }
    return out;
}

std::string format_double(double value) {
    char buf[32];
    char* end = buf;
    // %.17g round-trips but is noisy; try increasing precision until exact.
    for (int prec = 6; prec <= 17; ++prec) {
        end = std::to_chars(buf, buf + sizeof buf, value, std::chars_format::general, prec).ptr;
        double back = 0.0;
        if (std::from_chars(buf, end, back).ec == std::errc{} && back == value) break;
    }
    return {buf, end};
}

void append_g17(std::string& out, double value) {
    // 24 characters cover the longest form, "-2.2250738585072014e-308".
    char buf[32];
    char* end =
        std::to_chars(buf, buf + sizeof buf, value, std::chars_format::general, 17).ptr;
    out.append(buf, end);
}

std::string format_g17(double value) {
    std::string out;
    append_g17(out, value);
    return out;
}

std::string to_lower(std::string_view text) {
    std::string out(text);
    for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

}  // namespace arcade
