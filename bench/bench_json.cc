#include "bench_json.h"

#include <cmath>
#include <cstdio>

namespace mc {
namespace bench {

void JsonWriter::BeforeValue() {
  if (!needs_comma_.empty() && needs_comma_.back()) out_ << ',';
  if (!needs_comma_.empty()) needs_comma_.back() = true;
}

void JsonWriter::BeginObject() {
  BeforeValue();
  out_ << '{';
  needs_comma_.push_back(false);
}

void JsonWriter::EndObject() {
  needs_comma_.pop_back();
  out_ << '}';
}

void JsonWriter::BeginArray() {
  BeforeValue();
  out_ << '[';
  needs_comma_.push_back(false);
}

void JsonWriter::EndArray() {
  needs_comma_.pop_back();
  out_ << ']';
}

void JsonWriter::Key(std::string_view key) {
  String(key);
  out_ << ':';
  // The value that follows must not emit another comma.
  needs_comma_.back() = false;
}

void JsonWriter::String(std::string_view value) {
  BeforeValue();
  out_ << '"';
  for (char c : value) {
    switch (c) {
      case '"':
        out_ << "\\\"";
        break;
      case '\\':
        out_ << "\\\\";
        break;
      case '\n':
        out_ << "\\n";
        break;
      case '\t':
        out_ << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out_ << buffer;
        } else {
          out_ << c;
        }
    }
  }
  out_ << '"';
}

void JsonWriter::Double(double value) {
  BeforeValue();
  // JSON has no NaN or infinity literal; a non-finite value is "no value".
  if (!std::isfinite(value)) {
    out_ << "null";
    return;
  }
  // 17 significant digits round-trip any double exactly.
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out_ << buffer;
}

void JsonWriter::UInt(uint64_t value) {
  BeforeValue();
  out_ << value;
}

void JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ << (value ? "true" : "false");
}

void JsonWriter::KV(std::string_view key, std::string_view value) {
  Key(key);
  String(value);
}

void JsonWriter::KV(std::string_view key, const char* value) {
  Key(key);
  String(value);
}

void JsonWriter::KV(std::string_view key, double value) {
  Key(key);
  Double(value);
}

void JsonWriter::KV(std::string_view key, uint64_t value) {
  Key(key);
  UInt(value);
}

void JsonWriter::KV(std::string_view key, bool value) {
  Key(key);
  Bool(value);
}

}  // namespace bench
}  // namespace mc
