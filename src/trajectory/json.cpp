#include "trajectory/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace tp::trajectory {

namespace {

constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> Parse(std::string* error) {
    JsonValue value;
    if (!ParseValue(value, 0)) {
      Fail("invalid value");
    } else {
      SkipWs();
      if (!failed_ && pos_ != text_.size()) {
        Fail("trailing characters after document");
      }
    }
    if (failed_) {
      if (error != nullptr) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "offset %zu: ", error_pos_);
        *error = buf + error_;
      }
      return std::nullopt;
    }
    return value;
  }

 private:
  void Fail(const std::string& why) {
    if (!failed_) {
      failed_ = true;
      error_ = why;
      error_pos_ = pos_;
    }
  }

  // JSON whitespace is exactly space, tab, LF and CR (no \v or \f).
  void SkipWs() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  // Consumes a run of decimal digits; false when there is none.
  bool Digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ > start;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue& out, int depth) {
    if (depth > kMaxDepth) {
      Fail("nesting too deep");
      return false;
    }
    SkipWs();
    out.begin = pos_;
    const bool ok = ParseBody(out, depth);
    out.end = pos_;
    return ok;
  }

  bool ParseBody(JsonValue& out, int depth) {
    if (pos_ >= text_.size()) {
      Fail("unexpected end of input");
      return false;
    }
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out.type = JsonValue::Type::kString;
        return ParseString(out.string);
      case 't':
        out.type = JsonValue::Type::kBool;
        out.boolean = true;
        return ConsumeWord("true") || (Fail("expected 'true'"), false);
      case 'f':
        out.type = JsonValue::Type::kBool;
        out.boolean = false;
        return ConsumeWord("false") || (Fail("expected 'false'"), false);
      case 'n':
        out.type = JsonValue::Type::kNull;
        return ConsumeWord("null") || (Fail("expected 'null'"), false);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue& out, int depth) {
    out.type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (Consume('}')) {
      return true;
    }
    for (;;) {
      SkipWs();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !ParseString(key)) {
        Fail("expected object key string");
        return false;
      }
      SkipWs();
      if (!Consume(':')) {
        Fail("expected ':' after object key");
        return false;
      }
      JsonValue value;
      if (!ParseValue(value, depth + 1)) {
        return false;
      }
      out.object.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return true;
      }
      Fail("expected ',' or '}' in object");
      return false;
    }
  }

  bool ParseArray(JsonValue& out, int depth) {
    out.type = JsonValue::Type::kArray;
    ++pos_;  // '['
    SkipWs();
    if (Consume(']')) {
      return true;
    }
    for (;;) {
      JsonValue value;
      if (!ParseValue(value, depth + 1)) {
        return false;
      }
      out.array.push_back(std::move(value));
      SkipWs();
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return true;
      }
      Fail("expected ',' or ']' in array");
      return false;
    }
  }

  bool ParseString(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      if (static_cast<unsigned char>(text_[pos_]) < 0x20) {
        Fail("raw control character in string");
        return false;
      }
      char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out += esc;
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            Fail("truncated \\u escape");
            return false;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              Fail("bad hex digit in \\u escape");
              return false;
            }
          }
          // The recorder only ever emits control-character escapes; encode
          // anything else as UTF-8 without surrogate handling.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          Fail("unknown escape");
          return false;
      }
    }
    Fail("unterminated string");
    return false;
  }

  // A number exactly as JSON spells it:
  // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  bool ParseNumber(JsonValue& out) {
    const std::size_t start = pos_;
    Consume('-');
    bool ok = Consume('0') || Digits();
    if (ok && Consume('.')) {
      ok = Digits();
    }
    if (ok && (Consume('e') || Consume('E'))) {
      if (!Consume('+')) {
        Consume('-');
      }
      ok = Digits();
    }
    if (!ok) {
      const bool started = pos_ > start;
      pos_ = start;
      Fail(started ? "malformed number" : "invalid value");
      return false;
    }
    // A huge exponent ("1e99999") overflows strtod to infinity; propagating
    // a non-finite value would poison every downstream comparison, so it is
    // rejected (JSON has no inf/nan either).
    const double v = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(), nullptr);
    if (!std::isfinite(v)) {
      pos_ = start;
      Fail("number out of range");
      return false;
    }
    out.type = JsonValue::Type::kNumber;
    out.number = v;
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  std::string error_;
  std::size_t error_pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

std::optional<JsonValue> ParseJson(std::string_view text, std::string* error) {
  return Parser(text).Parse(error);
}

std::string JsonQuote(std::string_view s) {
  std::string out = "\"";
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace tp::trajectory
