#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace vod {

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::Str(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

void JsonValue::Append(JsonValue v) { array_.push_back(std::move(v)); }

void JsonValue::Set(const std::string& key, JsonValue v) {
  object_[key] = std::move(v);
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

namespace {

void NumberInto(double d, std::string* out) {
  // JSON has no inf/nan; null is the conventional stand-in.
  if (!std::isfinite(d)) {
    *out += "null";
    return;
  }
  // Shortest round-trip text; integral values within 2^53 in fixed
  // notation, so counters read as integers (100000, not 1e+05).
  char buf[32];
  const bool integral =
      d == std::round(d) && std::fabs(d) < 9.007199254740992e15;
  const std::to_chars_result r =
      integral ? std::to_chars(buf, buf + sizeof(buf), d,
                               std::chars_format::fixed)
               : std::to_chars(buf, buf + sizeof(buf), d);
  out->append(buf, r.ptr);
}

}  // namespace

void JsonValue::DumpTo(std::string* out, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  const std::string pad_in(static_cast<std::size_t>(indent + 1) * 2, ' ');
  switch (kind_) {
    case Kind::kNull: *out += "null"; break;
    case Kind::kBool: *out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: NumberInto(number_, out); break;
    case Kind::kString: AppendJsonString(out, string_); break;
    case Kind::kArray: {
      if (array_.empty()) {
        *out += "[]";
        break;
      }
      *out += "[\n";
      for (std::size_t i = 0; i < array_.size(); ++i) {
        *out += pad_in;
        array_[i].DumpTo(out, indent + 1);
        if (i + 1 < array_.size()) *out += ",";
        *out += "\n";
      }
      *out += pad + "]";
      break;
    }
    case Kind::kObject: {
      if (object_.empty()) {
        *out += "{}";
        break;
      }
      *out += "{\n";
      std::size_t i = 0;
      for (const auto& [key, value] : object_) {
        *out += pad_in;
        AppendJsonString(out, key);
        *out += ": ";
        value.DumpTo(out, indent + 1);
        if (++i < object_.size()) *out += ",";
        *out += "\n";
      }
      *out += pad + "}";
      break;
    }
  }
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(&out, 0);
  out += "\n";
  return out;
}

namespace {

struct Parser {
  const std::string& text;
  std::size_t pos = 0;

  void SkipWs() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\n' || text[pos] == '\t' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  Status Fail(const std::string& what) const {
    return Status::InvalidArgument("json parse error at byte " +
                                   std::to_string(pos) + ": " + what);
  }

  Result<JsonValue> ParseValue() {
    SkipWs();
    if (pos >= text.size()) return Fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') {
      auto s = ParseString();
      if (!s.ok()) return s.status();
      return JsonValue::Str(std::move(s).value());
    }
    if (c == 't' || c == 'f') return ParseKeyword();
    if (c == 'n') return ParseNull();
    return ParseNumber();
  }

  Result<JsonValue> ParseObject() {
    ++pos;  // '{'
    JsonValue obj = JsonValue::Object();
    SkipWs();
    if (pos < text.size() && text[pos] == '}') {
      ++pos;
      return obj;
    }
    while (true) {
      SkipWs();
      if (pos >= text.size() || text[pos] != '"') {
        return Fail("expected object key");
      }
      auto key = ParseString();
      if (!key.ok()) return key.status();
      SkipWs();
      if (pos >= text.size() || text[pos] != ':') return Fail("expected ':'");
      ++pos;
      auto value = ParseValue();
      if (!value.ok()) return value.status();
      obj.Set(key.value(), std::move(value).value());
      SkipWs();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      if (pos < text.size() && text[pos] == '}') {
        ++pos;
        return obj;
      }
      return Fail("expected ',' or '}'");
    }
  }

  Result<JsonValue> ParseArray() {
    ++pos;  // '['
    JsonValue arr = JsonValue::Array();
    SkipWs();
    if (pos < text.size() && text[pos] == ']') {
      ++pos;
      return arr;
    }
    while (true) {
      auto value = ParseValue();
      if (!value.ok()) return value.status();
      arr.Append(std::move(value).value());
      SkipWs();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      if (pos < text.size() && text[pos] == ']') {
        ++pos;
        return arr;
      }
      return Fail("expected ',' or ']'");
    }
  }

  Result<std::string> ParseString() {
    ++pos;  // '"'
    std::string out;
    while (pos < text.size()) {
      const char c = text[pos];
      if (c == '"') {
        ++pos;
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("raw control character in string");
      }
      if (c == '\\') {
        if (pos + 1 >= text.size()) return Fail("dangling escape");
        const char e = text[pos + 1];
        pos += 2;
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            if (pos + 4 > text.size()) return Fail("short \\u escape");
            const std::string hex = text.substr(pos, 4);
            char* end = nullptr;
            const long code = std::strtol(hex.c_str(), &end, 16);
            if (end != hex.c_str() + 4) return Fail("bad \\u escape");
            // ASCII-only decode; the writer never emits higher codepoints.
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else {
              out.push_back('?');
            }
            pos += 4;
            break;
          }
          default:
            return Fail("unknown escape");
        }
        continue;
      }
      out.push_back(c);
      ++pos;
    }
    return Fail("unterminated string");
  }

  Result<JsonValue> ParseKeyword() {
    if (text.compare(pos, 4, "true") == 0) {
      pos += 4;
      return JsonValue::Bool(true);
    }
    if (text.compare(pos, 5, "false") == 0) {
      pos += 5;
      return JsonValue::Bool(false);
    }
    return Fail("unknown keyword");
  }

  Result<JsonValue> ParseNull() {
    if (text.compare(pos, 4, "null") == 0) {
      pos += 4;
      return JsonValue();
    }
    return Fail("unknown keyword");
  }

  Result<JsonValue> ParseNumber() {
    const std::size_t start = pos;
    if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
    bool digits = false;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) != 0 ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '-' || text[pos] == '+')) {
      if (std::isdigit(static_cast<unsigned char>(text[pos])) != 0) {
        digits = true;
      }
      ++pos;
    }
    if (!digits) return Fail("expected a number");
    const std::string tok = text.substr(start, pos - start);
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) return Fail("malformed number");
    return JsonValue::Number(d);
  }
};

}  // namespace

Result<JsonValue> JsonValue::Parse(const std::string& text) {
  Parser p{text};
  auto v = p.ParseValue();
  if (!v.ok()) return v.status();
  p.SkipWs();
  if (p.pos != text.size()) return p.Fail("trailing garbage");
  return v;
}

}  // namespace vod
