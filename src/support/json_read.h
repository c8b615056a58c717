// Minimal JSON reader (header-only, no dependencies).
//
// The consuming side of obs::JsonWriter: the bench regression sentinel
// parses the BENCH_*.json artifacts and the BENCH_HISTORY.jsonl rows it
// gates on, and the tests round-trip every JSON emitter through it.  Per
// the no-external-dependency rule that parser lives here rather than in a
// vendored library.  Covers exactly the grammar the
// repo's writers produce — strings with escape sequences, numbers, bools,
// null, nested objects/arrays — and rejects everything else by throwing
// `JsonError` (callers present the message; there is no partial result).
#pragma once

#include <cctype>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mg::support {

class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::map<std::string, JsonValue> object;
  std::vector<JsonValue> array;

  [[nodiscard]] bool has(const std::string& key) const {
    return kind == Kind::kObject && object.count(key) != 0;
  }

  /// Member access; throws when absent or not an object.
  [[nodiscard]] const JsonValue& at(const std::string& key) const {
    if (kind != Kind::kObject) throw JsonError("not an object: key " + key);
    const auto it = object.find(key);
    if (it == object.end()) throw JsonError("missing key " + key);
    return it->second;
  }

  [[nodiscard]] double as_number() const {
    if (kind != Kind::kNumber) throw JsonError("not a number");
    return number;
  }

  [[nodiscard]] std::uint64_t as_u64() const {
    return static_cast<std::uint64_t>(as_number());
  }

  [[nodiscard]] const std::string& as_string() const {
    if (kind != Kind::kString) throw JsonError("not a string");
    return string;
  }

  [[nodiscard]] bool as_bool() const {
    if (kind != Kind::kBool) throw JsonError("not a bool");
    return boolean;
  }
};

/// Parses one complete JSON document; throws JsonError on malformed input
/// or trailing garbage.
inline JsonValue parse_json(std::string_view text) {
  struct Parser {
    std::string_view text;
    std::size_t pos = 0;

    [[noreturn]] void fail(const std::string& what) const {
      throw JsonError(what + " at offset " + std::to_string(pos));
    }

    void skip_ws() {
      while (pos < text.size() &&
             (text[pos] == ' ' || text[pos] == '\n' || text[pos] == '\t' ||
              text[pos] == '\r')) {
        ++pos;
      }
    }

    char peek() {
      skip_ws();
      if (pos >= text.size()) fail("unexpected end of JSON");
      return text[pos];
    }

    void expect(char c) {
      if (peek() != c) fail(std::string("expected '") + c + "'");
      ++pos;
    }

    bool consume_if(char c) {
      if (peek() == c) {
        ++pos;
        return true;
      }
      return false;
    }

    void match(std::string_view word) {
      skip_ws();
      if (pos + word.size() > text.size() ||
          text.substr(pos, word.size()) != word) {
        fail("expected '" + std::string(word) + "'");
      }
      pos += word.size();
    }

    JsonValue parse_value() {
      const char c = peek();
      if (c == '{') return parse_object();
      if (c == '[') return parse_array();
      if (c == '"') {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string = parse_string();
        return v;
      }
      if (c == 't' || c == 'f') {
        match(c == 't' ? "true" : "false");
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        v.boolean = c == 't';
        return v;
      }
      if (c == 'n') {
        match("null");
        return {};
      }
      return parse_number();
    }

    JsonValue parse_number() {
      skip_ws();
      const std::size_t start = pos;
      while (pos < text.size() &&
             (std::isdigit(static_cast<unsigned char>(text[pos])) != 0 ||
              text[pos] == '-' || text[pos] == '+' || text[pos] == '.' ||
              text[pos] == 'e' || text[pos] == 'E')) {
        ++pos;
      }
      if (pos == start) fail("expected a number");
      JsonValue v;
      v.kind = JsonValue::Kind::kNumber;
      try {
        v.number = std::stod(std::string(text.substr(start, pos - start)));
      } catch (const std::exception&) {
        fail("malformed number");
      }
      return v;
    }

    std::string parse_string() {
      expect('"');
      std::string out;
      while (pos < text.size() && text[pos] != '"') {
        char c = text[pos++];
        if (c != '\\') {
          out += c;
          continue;
        }
        if (pos >= text.size()) fail("dangling escape");
        const char esc = text[pos++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos + 4 > text.size()) fail("truncated \\u escape");
            unsigned code = 0;
            try {
              code = static_cast<unsigned>(
                  std::stoul(std::string(text.substr(pos, 4)), nullptr, 16));
            } catch (const std::exception&) {
              fail("malformed \\u escape");
            }
            pos += 4;
            if (code >= 0x80u) fail("non-ASCII \\u escape unsupported");
            out += static_cast<char>(code);
            break;
          }
          default:
            fail("unknown escape");
        }
      }
      expect('"');
      return out;
    }

    JsonValue parse_object() {
      expect('{');
      JsonValue v;
      v.kind = JsonValue::Kind::kObject;
      if (consume_if('}')) return v;
      do {
        std::string key = parse_string();
        expect(':');
        v.object.emplace(std::move(key), parse_value());
      } while (consume_if(','));
      expect('}');
      return v;
    }

    JsonValue parse_array() {
      expect('[');
      JsonValue v;
      v.kind = JsonValue::Kind::kArray;
      if (consume_if(']')) return v;
      do {
        v.array.push_back(parse_value());
      } while (consume_if(','));
      expect(']');
      return v;
    }
  };

  Parser p{text};
  JsonValue v = p.parse_value();
  p.skip_ws();
  if (p.pos != text.size()) p.fail("trailing garbage after JSON document");
  return v;
}

}  // namespace mg::support
