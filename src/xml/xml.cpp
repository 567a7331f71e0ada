#include "xml/xml.hpp"

#include <cctype>
#include <sstream>

#include "support/errors.hpp"
#include "support/strings.hpp"

namespace arcade::xml {

const std::string& Element::attribute(const std::string& key) const {
    const auto it = attributes_.find(key);
    if (it == attributes_.end()) {
        throw ParseError("element <" + name_ + "> lacks required attribute '" + key + "'");
    }
    return it->second;
}

std::string Element::attribute_or(const std::string& key, const std::string& fallback) const {
    const auto it = attributes_.find(key);
    return it == attributes_.end() ? fallback : it->second;
}

double Element::attribute_as_double(const std::string& key) const {
    const std::string& raw = attribute(key);
    try {
        return std::stod(raw);
    } catch (const std::exception&) {
        throw ParseError("attribute '" + key + "' of <" + name_ + "> is not a number: " + raw);
    }
}

long long Element::attribute_as_int(const std::string& key) const {
    const std::string& raw = attribute(key);
    try {
        return std::stoll(raw);
    } catch (const std::exception&) {
        throw ParseError("attribute '" + key + "' of <" + name_ + "> is not an integer: " + raw);
    }
}

ElementPtr Element::add_child(const std::string& name) {
    auto child = std::make_shared<Element>(name);
    children_.push_back(child);
    return child;
}

std::vector<ElementPtr> Element::children_named(const std::string& name) const {
    std::vector<ElementPtr> out;
    for (const auto& c : children_) {
        if (c->name() == name) out.push_back(c);
    }
    return out;
}

ElementPtr Element::first_child(const std::string& name) const {
    for (const auto& c : children_) {
        if (c->name() == name) return c;
    }
    return nullptr;
}

namespace {

class XmlCursor {
public:
    explicit XmlCursor(const std::string& src) : src_(src) {}

    [[nodiscard]] bool done() const noexcept { return i_ >= src_.size(); }
    [[nodiscard]] char peek() const { return src_[i_]; }
    [[nodiscard]] bool looking_at(const std::string& s) const {
        return src_.compare(i_, s.size(), s) == 0;
    }

    char take() {
        const char c = src_[i_++];
        if (c == '\n') {
            ++line_;
            col_ = 1;
        } else {
            ++col_;
        }
        return c;
    }

    void take_n(std::size_t n) {
        for (std::size_t k = 0; k < n; ++k) take();
    }

    void skip_ws() {
        while (!done() && std::isspace(static_cast<unsigned char>(peek())) != 0) take();
    }

    std::string name() {
        std::string out;
        while (!done()) {
            const char c = peek();
            if (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' || c == '-' ||
                c == '.' || c == ':') {
                out += take();
            } else {
                break;
            }
        }
        if (out.empty()) fail("expected a name");
        return out;
    }

    [[noreturn]] void fail(const std::string& message) const {
        throw ParseError("XML: " + message, line_, col_);
    }

    [[nodiscard]] std::size_t pos() const noexcept { return i_; }
    [[nodiscard]] const std::string& source() const noexcept { return src_; }

private:
    const std::string& src_;
    std::size_t i_ = 0;
    std::size_t line_ = 1;
    std::size_t col_ = 1;
};

std::string decode_entities(const std::string& raw, XmlCursor& cur) {
    std::string out;
    out.reserve(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
        if (raw[i] != '&') {
            out += raw[i];
            continue;
        }
        const std::size_t semi = raw.find(';', i);
        if (semi == std::string::npos) cur.fail("unterminated entity");
        const std::string ent = raw.substr(i + 1, semi - i - 1);
        if (ent == "lt") out += '<';
        else if (ent == "gt") out += '>';
        else if (ent == "amp") out += '&';
        else if (ent == "apos") out += '\'';
        else if (ent == "quot") out += '"';
        else if (!ent.empty() && ent[0] == '#') {
            const long code = std::strtol(ent.c_str() + (ent[1] == 'x' ? 2 : 1), nullptr,
                                          ent[1] == 'x' ? 16 : 10);
            if (code < 0x80) {
                out += static_cast<char>(code);
            } else {
                cur.fail("non-ASCII character references are not supported");
            }
        } else {
            cur.fail("unknown entity '&" + ent + ";'");
        }
        i = semi;
    }
    return out;
}

/// Deepest element nesting the parser accepts (the root is depth 1); an
/// Arcade model nests a few levels.
constexpr std::size_t kMaxDepth = 256;

ElementPtr parse_element(XmlCursor& cur, std::size_t depth);

/// Parses the content of `element`, which sits at `depth`.
void parse_content(XmlCursor& cur, Element& element, std::size_t depth) {
    std::string text;     // decoded output
    std::string pending;  // raw character data awaiting entity decoding
    const auto flush = [&] {
        if (!pending.empty()) {
            text += decode_entities(pending, cur);
            pending.clear();
        }
    };
    while (!cur.done()) {
        if (cur.looking_at("<!--")) {
            cur.take_n(4);
            while (!cur.done() && !cur.looking_at("-->")) cur.take();
            if (cur.done()) cur.fail("unterminated comment");
            cur.take_n(3);
        } else if (cur.looking_at("<![CDATA[")) {
            flush();
            // CDATA is literal: no entity decoding
            cur.take_n(9);
            while (!cur.done() && !cur.looking_at("]]>")) text += cur.take();
            if (cur.done()) cur.fail("unterminated CDATA");
            cur.take_n(3);
        } else if (cur.looking_at("</")) {
            break;
        } else if (cur.peek() == '<') {
            element.add_child(parse_element(cur, depth + 1));
        } else {
            pending += cur.take();
        }
    }
    flush();
    const std::string trimmed(trim(text));
    if (!trimmed.empty()) element.append_text(trimmed);
}

ElementPtr parse_element(XmlCursor& cur, std::size_t depth) {
    if (cur.done() || cur.peek() != '<') cur.fail("expected '<'");
    if (depth > kMaxDepth) {
        cur.fail("elements nested deeper than " + std::to_string(kMaxDepth) +
                 " levels at byte offset " + std::to_string(cur.pos()));
    }
    cur.take();  // '<'
    auto element = std::make_shared<Element>(cur.name());
    // attributes
    while (true) {
        cur.skip_ws();
        if (cur.done()) cur.fail("unterminated element <" + element->name() + ">");
        if (cur.looking_at("/>")) {
            cur.take_n(2);
            return element;
        }
        if (cur.peek() == '>') {
            cur.take();
            break;
        }
        const std::string key = cur.name();
        cur.skip_ws();
        if (cur.done() || cur.peek() != '=') cur.fail("expected '=' after attribute name");
        cur.take();
        cur.skip_ws();
        if (cur.done() || (cur.peek() != '"' && cur.peek() != '\'')) {
            cur.fail("expected quoted attribute value");
        }
        const char quote = cur.take();
        std::string value;
        while (!cur.done() && cur.peek() != quote) value += cur.take();
        if (cur.done()) cur.fail("unterminated attribute value");
        cur.take();
        element->set_attribute(key, decode_entities(value, cur));
    }
    // content
    parse_content(cur, *element, depth);
    // closing tag
    if (!cur.looking_at("</")) cur.fail("expected closing tag for <" + element->name() + ">");
    cur.take_n(2);
    const std::string closing = cur.name();
    if (closing != element->name()) {
        cur.fail("mismatched closing tag </" + closing + "> for <" + element->name() + ">");
    }
    cur.skip_ws();
    if (cur.done() || cur.peek() != '>') cur.fail("malformed closing tag");
    cur.take();
    return element;
}

}  // namespace

ElementPtr parse_document(const std::string& source) {
    XmlCursor cur(source);
    cur.skip_ws();
    // prolog: declaration, comments, processing instructions
    while (!cur.done()) {
        if (cur.looking_at("<?")) {
            while (!cur.done() && !cur.looking_at("?>")) cur.take();
            if (cur.done()) cur.fail("unterminated declaration");
            cur.take_n(2);
            cur.skip_ws();
        } else if (cur.looking_at("<!--")) {
            cur.take_n(4);
            while (!cur.done() && !cur.looking_at("-->")) cur.take();
            if (cur.done()) cur.fail("unterminated comment");
            cur.take_n(3);
            cur.skip_ws();
        } else if (cur.looking_at("<!DOCTYPE")) {
            while (!cur.done() && cur.peek() != '>') cur.take();
            if (!cur.done()) cur.take();
            cur.skip_ws();
        } else {
            break;
        }
    }
    if (cur.done()) cur.fail("document has no root element");
    ElementPtr root = parse_element(cur, 1);
    cur.skip_ws();
    if (!cur.done()) cur.fail("content after the root element");
    return root;
}

std::string escape(const std::string& raw) {
    std::string out;
    out.reserve(raw.size());
    for (char c : raw) {
        switch (c) {
            case '<': out += "&lt;"; break;
            case '>': out += "&gt;"; break;
            case '&': out += "&amp;"; break;
            case '"': out += "&quot;"; break;
            case '\'': out += "&apos;"; break;
            default: out += c;
        }
    }
    return out;
}

namespace {

void write_element(std::ostringstream& os, const Element& e, int depth) {
    const std::string indent(static_cast<std::size_t>(depth) * 2, ' ');
    os << indent << "<" << e.name();
    for (const auto& [k, v] : e.attributes()) {
        os << " " << k << "=\"" << escape(v) << "\"";
    }
    if (e.children().empty() && e.text().empty()) {
        os << "/>\n";
        return;
    }
    os << ">";
    if (!e.text().empty()) os << escape(e.text());
    if (!e.children().empty()) {
        os << "\n";
        for (const auto& c : e.children()) write_element(os, *c, depth + 1);
        os << indent;
    }
    os << "</" << e.name() << ">\n";
}

}  // namespace

std::string write_document(const Element& root) {
    std::ostringstream os;
    os << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
    write_element(os, root, 0);
    return os.str();
}

}  // namespace arcade::xml
