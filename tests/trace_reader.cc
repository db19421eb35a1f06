#include "trace_reader.h"

#include <algorithm>
#include <cctype>
#include <utility>

#include "common/string_util.h"

namespace ppp::obs {

namespace {

// Minimal JSON reader, sufficient for the trace schema.

/// A parsed JSON value. Objects keep insertion order; lookups are linear,
/// which is fine for the handful of keys a trace event carries.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  common::Result<JsonValue> Parse() {
    PPP_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
  common::Status Error(const std::string& message) const {
    return common::Status::InvalidArgument(
        "JSON error at offset " + std::to_string(pos_) + ": " + message);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  common::Result<JsonValue> ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f') return ParseBool();
    if (c == 'n') return ParseNull();
    return ParseNumber();
  }

  common::Result<JsonValue> ParseObject() {
    JsonValue out;
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    if (Consume('}')) return out;
    while (true) {
      SkipSpace();
      PPP_ASSIGN_OR_RETURN(JsonValue key, ParseString());
      if (!Consume(':')) return Error("expected ':' in object");
      PPP_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      out.object.emplace_back(std::move(key.string), std::move(value));
      if (Consume(',')) continue;
      if (Consume('}')) return out;
      return Error("expected ',' or '}' in object");
    }
  }

  common::Result<JsonValue> ParseArray() {
    JsonValue out;
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    if (Consume(']')) return out;
    while (true) {
      PPP_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      out.array.push_back(std::move(value));
      if (Consume(',')) continue;
      if (Consume(']')) return out;
      return Error("expected ',' or ']' in array");
    }
  }

  common::Result<JsonValue> ParseString() {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Error("expected string");
    }
    ++pos_;
    JsonValue out;
    out.kind = JsonValue::Kind::kString;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.string += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.string += '"';
          break;
        case '\\':
          out.string += '\\';
          break;
        case '/':
          out.string += '/';
          break;
        case 'n':
          out.string += '\n';
          break;
        case 't':
          out.string += '\t';
          break;
        case 'r':
          out.string += '\r';
          break;
        case 'b':
          out.string += '\b';
          break;
        case 'f':
          out.string += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad \\u escape");
            }
          }
          // The exporter only emits \u00xx control escapes; decode those
          // exactly and map anything wider to '?' (never produced here).
          out.string += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    return Error("unterminated string");
  }

  common::Result<JsonValue> ParseBool() {
    JsonValue out;
    out.kind = JsonValue::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      out.boolean = true;
      pos_ += 4;
      return out;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out.boolean = false;
      pos_ += 5;
      return out;
    }
    return Error("expected boolean");
  }

  common::Result<JsonValue> ParseNull() {
    if (text_.compare(pos_, 4, "null") != 0) return Error("expected null");
    pos_ += 4;
    return JsonValue{};
  }

  common::Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected number");
    JsonValue out;
    out.kind = JsonValue::Kind::kNumber;
    try {
      out.number = std::stod(text_.substr(start, pos_ - start));
    } catch (...) {
      return Error("bad number");
    }
    return out;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

common::Result<double> NumberField(const JsonValue& event,
                                   const std::string& key) {
  const JsonValue* v = event.Find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber) {
    return common::Status::InvalidArgument("trace event missing numeric \"" +
                                           key + "\"");
  }
  return v->number;
}

common::Result<std::string> StringField(const JsonValue& event,
                                        const std::string& key) {
  const JsonValue* v = event.Find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kString) {
    return common::Status::InvalidArgument("trace event missing string \"" +
                                           key + "\"");
  }
  return v->string;
}

}  // namespace

common::Result<ParsedTrace> ParseChromeTraceFull(const std::string& json) {
  JsonReader reader(json);
  PPP_ASSIGN_OR_RETURN(JsonValue root, reader.Parse());
  if (root.kind != JsonValue::Kind::kObject) {
    return common::Status::InvalidArgument("trace root must be an object");
  }
  ParsedTrace parsed;
  const JsonValue* other = root.Find("otherData");
  if (other != nullptr && other->kind == JsonValue::Kind::kObject) {
    const JsonValue* dropped = other->Find("droppedEvents");
    if (dropped != nullptr && dropped->kind == JsonValue::Kind::kString) {
      try {
        parsed.dropped_events = std::stoull(dropped->string);
      } catch (...) {
        return common::Status::InvalidArgument(
            "otherData.droppedEvents is not a count: " + dropped->string);
      }
    }
  }
  const JsonValue* trace_events = root.Find("traceEvents");
  if (trace_events == nullptr ||
      trace_events->kind != JsonValue::Kind::kArray) {
    return common::Status::InvalidArgument(
        "trace is missing the \"traceEvents\" array");
  }
  std::vector<SpanEvent> out;
  out.reserve(trace_events->array.size());
  for (const JsonValue& entry : trace_events->array) {
    if (entry.kind != JsonValue::Kind::kObject) {
      return common::Status::InvalidArgument("trace event must be an object");
    }
    std::string phase;
    PPP_ASSIGN_OR_RETURN(phase, StringField(entry, "ph"));
    if (phase != "X") continue;  // Only complete events are spans.
    SpanEvent e;
    PPP_ASSIGN_OR_RETURN(e.name, StringField(entry, "name"));
    PPP_ASSIGN_OR_RETURN(e.cat, StringField(entry, "cat"));
    PPP_ASSIGN_OR_RETURN(e.ts_us, NumberField(entry, "ts"));
    PPP_ASSIGN_OR_RETURN(e.dur_us, NumberField(entry, "dur"));
    PPP_ASSIGN_OR_RETURN(const double tid, NumberField(entry, "tid"));
    e.tid = static_cast<int>(tid);
    const JsonValue* args = entry.Find("args");
    if (args != nullptr) {
      if (args->kind != JsonValue::Kind::kObject) {
        return common::Status::InvalidArgument("event args must be an object");
      }
      for (const auto& [key, value] : args->object) {
        if (value.kind != JsonValue::Kind::kString) {
          return common::Status::InvalidArgument(
              "event arg values must be strings");
        }
        e.args.emplace_back(key, value.string);
      }
    }
    out.push_back(std::move(e));
  }
  parsed.events = std::move(out);
  return parsed;
}

common::Result<std::vector<SpanEvent>> ParseChromeTrace(
    const std::string& json) {
  PPP_ASSIGN_OR_RETURN(ParsedTrace parsed, ParseChromeTraceFull(json));
  return std::move(parsed.events);
}

common::Status ValidateSpanNesting(const std::vector<SpanEvent>& events) {
  // Group per thread, sort by start ascending (longer span first on ties:
  // the parent opened before — or at the same clock reading as — the
  // child), then sweep with a stack of open interval ends.
  std::vector<const SpanEvent*> sorted;
  sorted.reserve(events.size());
  for (const SpanEvent& e : events) sorted.push_back(&e);
  std::sort(sorted.begin(), sorted.end(),
            [](const SpanEvent* a, const SpanEvent* b) {
              if (a->tid != b->tid) return a->tid < b->tid;
              if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
              return a->dur_us > b->dur_us;
            });
  constexpr double kEpsilonUs = 1e-3;  // Float rounding only; same clock.
  int tid = 0;
  std::vector<double> open_ends;
  for (const SpanEvent* e : sorted) {
    if (open_ends.empty() || e->tid != tid) {
      open_ends.clear();
      tid = e->tid;
    }
    const double start = e->ts_us;
    const double end = e->ts_us + e->dur_us;
    while (!open_ends.empty() && open_ends.back() <= start + kEpsilonUs) {
      open_ends.pop_back();
    }
    if (!open_ends.empty() && end > open_ends.back() + kEpsilonUs) {
      return common::Status::Internal(common::StringPrintf(
          "span \"%s\" [%.3f, %.3f] overlaps the end of its enclosing span "
          "(%.3f) on tid %d",
          e->name.c_str(), start, end, open_ends.back(), e->tid));
    }
    open_ends.push_back(end);
  }
  return common::Status::OK();
}

}  // namespace ppp::obs
