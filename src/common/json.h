#ifndef VODB_COMMON_JSON_H_
#define VODB_COMMON_JSON_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace vod {

/// The one JSON document model: BENCH reports, the --metrics document,
/// postmortem dumps and the harnesses' --json tables are built as JsonValue
/// trees and written by Dump(). Numbers are doubles, and object keys are
/// kept sorted (std::map), so a document's text is a function of its
/// content alone: equal documents dump byte-identically.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  static JsonValue Bool(bool b);
  static JsonValue Number(double d);
  static JsonValue Str(std::string s);
  static JsonValue Array();
  static JsonValue Object();

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  // Accessors: preconditions are the matching kind.
  bool AsBool() const { return bool_; }
  double AsNumber() const { return number_; }
  const std::string& AsString() const { return string_; }
  const std::vector<JsonValue>& Items() const { return array_; }
  const std::map<std::string, JsonValue>& Fields() const { return object_; }

  /// Object field lookup; returns nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  void Append(JsonValue v);                     ///< Array push_back.
  void Set(const std::string& key, JsonValue v);  ///< Object insert/replace.

  /// Serializes with 2-space indentation and '\n' line ends. Numbers that
  /// are integral within 2^53 print as integers; other finite numbers print
  /// the shortest text that parses back to the same double (0.1 as "0.1");
  /// inf and NaN print null. Strings go through AppendJsonString.
  std::string Dump() const;

  /// Strict RFC 8259 parser: standard escapes and scientific notation;
  /// rejects a raw byte below 0x20 inside a string and trailing garbage.
  static Result<JsonValue> Parse(const std::string& text);

 private:
  void DumpTo(std::string* out, int indent) const;

  Kind kind_;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Appends `s` to `out` as a quoted JSON string, escaping `"`, `\` and
/// every byte below 0x20. Dump() and the streaming trace exporters
/// (obs/trace_export.h) both write strings through it.
void AppendJsonString(std::string* out, std::string_view s);

}  // namespace vod

#endif  // VODB_COMMON_JSON_H_
