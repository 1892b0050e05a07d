#include "common/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace erq {

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
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
      case '\r':
        out += "\\r";
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
  if (!std::isfinite(v)) return "null";  // JSON has no inf/nan
  if (v == static_cast<double>(static_cast<int64_t>(v)) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<int64_t>(v));
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  auto it = members_.find(key);
  return it == members_.end() ? nullptr : &it->second;
}

std::string JsonValue::Dump() const {
  switch (kind_) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return bool_ ? "true" : "false";
    case Kind::kNumber:
      return JsonNumber(number_);
    case Kind::kString:
      return JsonQuote(string_);
    case Kind::kArray: {
      std::string out = "[";
      for (size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += ',';
        out += items_[i].Dump();
      }
      out += ']';
      return out;
    }
    case Kind::kObject: {
      std::string out = "{";
      bool first = true;
      for (const auto& [key, value] : members_) {
        if (!first) out += ',';
        first = false;
        out += JsonQuote(key) + ":" + value.Dump();
      }
      out += '}';
      return out;
    }
  }
  return "null";
}

/// Recursive-descent parser over a string_view. Depth is bounded so a
/// hostile request body of "[[[[..." cannot exhaust the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    JsonValue out;
    ERQ_RETURN_IF_ERROR(ParseValue(&out, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return out;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::ParseError("JSON: " + what + " at offset " +
                              std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
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

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("document nested too deeply");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of document");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out, depth);
    if (c == '[') return ParseArray(out, depth);
    if (c == '"') {
      out->kind_ = JsonValue::Kind::kString;
      return ParseString(&out->string_);
    }
    if (ConsumeLiteral("true")) {
      out->kind_ = JsonValue::Kind::kBool;
      out->bool_ = true;
      return Status::OK();
    }
    if (ConsumeLiteral("false")) {
      out->kind_ = JsonValue::Kind::kBool;
      out->bool_ = false;
      return Status::OK();
    }
    if (ConsumeLiteral("null")) {
      out->kind_ = JsonValue::Kind::kNull;
      return Status::OK();
    }
    return ParseNumber(out);
  }

  Status ParseObject(JsonValue* out, int depth) {
    out->kind_ = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      std::string key;
      ERQ_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      JsonValue value;
      ERQ_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->members_[std::move(key)] = std::move(value);
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    out->kind_ = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    while (true) {
      JsonValue value;
      ERQ_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->items_.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Error("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      if (pos_ + 1 >= text_.size()) return Error("truncated escape");
      const char esc = text_[pos_ + 1];
      pos_ += 2;
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + static_cast<size_t>(i)];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad hex digit in \\u escape");
            }
          }
          pos_ += 4;
          // UTF-8 encode the code point. Surrogate pairs are passed
          // through as two 3-byte sequences (the wire protocol is ASCII
          // in practice; this keeps the parser total without a full
          // UTF-16 decoder).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("unknown escape character");
      }
    }
    return Error("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a JSON value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Error("malformed number");
    // strtod turns an overflowing literal such as 1e999 into inf; JSON has
    // no non-finite numbers, and callers cast numbers to integers.
    if (!std::isfinite(v)) return Error("number out of range");
    out->kind_ = JsonValue::Kind::kNumber;
    out->number_ = v;
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

StatusOr<JsonValue> JsonValue::Parse(std::string_view text) {
  return JsonParser(text).Parse();
}

}  // namespace erq
