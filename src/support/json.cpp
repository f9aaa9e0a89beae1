#include "support/json.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/error.h"

namespace adlsym::json {

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void Writer::preValue() {
  if (pendingKey_) {
    pendingKey_ = false;
    return;
  }
  if (!stack_.empty()) {
    check(!stack_.back(), "json: value inside an object requires a key");
    if (counts_.back() > 0) os_ << ',';
    ++counts_.back();
  }
}

Writer& Writer::beginObject() {
  preValue();
  stack_.push_back(true);
  counts_.push_back(0);
  os_ << '{';
  return *this;
}

Writer& Writer::endObject() {
  check(!stack_.empty() && stack_.back(), "json: endObject outside object");
  stack_.pop_back();
  counts_.pop_back();
  os_ << '}';
  return *this;
}

Writer& Writer::beginArray() {
  preValue();
  stack_.push_back(false);
  counts_.push_back(0);
  os_ << '[';
  return *this;
}

Writer& Writer::endArray() {
  check(!stack_.empty() && !stack_.back(), "json: endArray outside array");
  stack_.pop_back();
  counts_.pop_back();
  os_ << ']';
  return *this;
}

Writer& Writer::key(std::string_view k) {
  check(!stack_.empty() && stack_.back(), "json: key outside object");
  check(!pendingKey_, "json: consecutive keys");
  if (counts_.back() > 0) os_ << ',';
  ++counts_.back();
  os_ << '"' << escape(k) << "\":";
  pendingKey_ = true;
  return *this;
}

Writer& Writer::value(std::string_view v) {
  preValue();
  os_ << '"' << escape(v) << '"';
  return *this;
}

Writer& Writer::value(uint64_t v) {
  preValue();
  os_ << v;
  return *this;
}

Writer& Writer::value(int64_t v) {
  preValue();
  os_ << v;
  return *this;
}

Writer& Writer::value(double v) {
  preValue();
  if (!std::isfinite(v)) {
    os_ << "null";
    return *this;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  os_ << buf;
  return *this;
}

Writer& Writer::value(bool v) {
  preValue();
  os_ << (v ? "true" : "false");
  return *this;
}

Writer& Writer::rawValue(std::string_view jsonText) {
  preValue();
  os_ << jsonText;
  return *this;
}

const Value* Value::find(std::string_view key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

/// A number that was not an integer token: exact only when fraction-free
/// and within the range where doubles hold every integer.
bool exactSmallInteger(double d) {
  return std::trunc(d) == d && std::fabs(d) <= 0x1p53;
}

[[noreturn]] void notInteger(const Value& v, const char* type) {
  if (!v.isNumber()) {
    throw InputError(std::string("expected ") + type + ", got a non-number");
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v.number);
  throw InputError(std::string("number ") + buf + " is not " + type);
}

}  // namespace

uint64_t Value::asU64() const {
  if (isNumber()) {
    // An integer token's sign is the double's ("-0" reads as 0).
    if (intExact && !(number < 0)) return uintValue;
    if (!intExact && number >= 0 && exactSmallInteger(number)) {
      return static_cast<uint64_t>(number);
    }
  }
  notInteger(*this, "an unsigned 64-bit integer");
}

int64_t Value::asI64() const {
  if (isNumber()) {
    if (intExact && (number < 0 || uintValue <= uint64_t{INT64_MAX})) {
      return intValue;
    }
    if (!intExact && exactSmallInteger(number)) {
      return static_cast<int64_t>(number);
    }
  }
  notInteger(*this, "a signed 64-bit integer");
}

namespace {

/// Recursive-descent parser over a string_view; `pos` is the next unread
/// byte, reported in errors so a truncated file points at its end.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parseDocument() {
    Value v = parseValue();
    skipWs();
    if (pos_ != text_.size()) fail("trailing garbage after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw InputError("json: " + what + " at byte " + std::to_string(pos_));
  }

  void skipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consumeLit(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parseValue() {
    skipWs();
    switch (peek()) {
      case '{': return parseObject();
      case '[': return parseArray();
      case '"': {
        Value v;
        v.kind = Value::Kind::String;
        v.str = parseString();
        return v;
      }
      case 't':
        if (!consumeLit("true")) fail("bad literal");
        return makeBool(true);
      case 'f':
        if (!consumeLit("false")) fail("bad literal");
        return makeBool(false);
      case 'n':
        if (!consumeLit("null")) fail("bad literal");
        return Value{};
      default: return parseNumber();
    }
  }

  static Value makeBool(bool b) {
    Value v;
    v.kind = Value::Kind::Bool;
    v.boolean = b;
    return v;
  }

  Value parseObject() {
    expect('{');
    Value v;
    v.kind = Value::Kind::Object;
    skipWs();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skipWs();
      std::string key = parseString();
      skipWs();
      expect(':');
      v.object.emplace_back(std::move(key), parseValue());
      skipWs();
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Value parseArray() {
    expect('[');
    Value v;
    v.kind = Value::Kind::Array;
    skipWs();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parseValue());
      skipWs();
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': appendUnicode(out); break;
        default: fail("bad escape");
      }
    }
  }

  uint32_t parseHex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= uint32_t(c - '0');
      else if (c >= 'a' && c <= 'f') v |= uint32_t(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= uint32_t(c - 'A' + 10);
      else fail("bad \\u escape");
    }
    return v;
  }

  void appendUnicode(std::string& out) {
    uint32_t cp = parseHex4();
    if (cp >= 0xD800 && cp <= 0xDBFF && text_.substr(pos_, 2) == "\\u") {
      pos_ += 2;
      const uint32_t lo = parseHex4();
      if (lo < 0xDC00 || lo > 0xDFFF) fail("bad surrogate pair");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    }
    if (cp < 0x80) {
      out += char(cp);
    } else if (cp < 0x800) {
      out += char(0xC0 | (cp >> 6));
      out += char(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += char(0xE0 | (cp >> 12));
      out += char(0x80 | ((cp >> 6) & 0x3F));
      out += char(0x80 | (cp & 0x3F));
    } else {
      out += char(0xF0 | (cp >> 18));
      out += char(0x80 | ((cp >> 12) & 0x3F));
      out += char(0x80 | ((cp >> 6) & 0x3F));
      out += char(0x80 | (cp & 0x3F));
    }
  }

  Value parseNumber() {
    const size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    const std::string span(text_.substr(start, pos_ - start));
    // strtod is laxer than the JSON grammar; reject the extras it would
    // accept (leading zeros, bare '-', leading '.') so a corrupted
    // document never parses by accident.
    const size_t d0 = span[0] == '-' ? 1 : 0;
    if (span.size() == d0 || span[d0] == '.' ||
        (span[d0] == '0' && span.size() > d0 + 1 && span[d0 + 1] >= '0' &&
         span[d0 + 1] <= '9')) {
      fail("bad number '" + span + "'");
    }
    char* end = nullptr;
    const double d = std::strtod(span.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("bad number '" + span + "'");
    Value v;
    v.kind = Value::Kind::Number;
    v.number = d;
    // Preserve pure-integer tokens exactly (the double alone rounds past
    // 2^53 and would corrupt 64-bit counters on a read-modify-write).
    if (span.find_first_of(".eE") == std::string::npos) {
      errno = 0;
      char* iend = nullptr;
      if (span[0] == '-') {
        const long long sv = std::strtoll(span.c_str(), &iend, 10);
        if (errno == 0 && iend != nullptr && *iend == '\0') {
          v.intExact = true;
          v.intValue = sv;
          v.uintValue = static_cast<uint64_t>(sv);
        }
      } else {
        const unsigned long long uv = std::strtoull(span.c_str(), &iend, 10);
        if (errno == 0 && iend != nullptr && *iend == '\0') {
          v.intExact = true;
          v.uintValue = uv;
          v.intValue = static_cast<int64_t>(uv);
        }
      }
    }
    return v;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parseDocument(); }

}  // namespace adlsym::json
