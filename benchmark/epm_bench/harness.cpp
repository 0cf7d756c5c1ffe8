#include "harness.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

namespace epmbench {

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

void Digest::mix(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (word >> (8 * i)) & 0xffu;
    hash_ *= 0x100000001b3ull;
  }
}

Digest& Digest::add(std::string_view text) {
  mix(text.size());
  for (const char c : text) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 0x100000001b3ull;
  }
  return *this;
}

std::string hex_digest(std::uint64_t digest) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, digest);
  return buf;
}

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::since_origin_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::size_t Tracer::begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.start_ns = since_origin_ns();
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(std::size_t id) {
  spans_[id].end_ns = since_origin_ns();
  // Scopes close innermost-first, so the id is the top of the open stack.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.end_ns >= 0 && name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-6);
    }
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path,
                               const std::string& label) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file,
               "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
               "\"args\":{\"name\":\"%s\"}}",
               label.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < 0) continue;
    std::fprintf(file,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%" PRId64
                 "}}",
                 span.name, static_cast<double>(span.start_ns) * 1e-3,
                 static_cast<double>(span.end_ns - span.start_ns) * 1e-3, i,
                 span.parent);
  }
  std::fprintf(file, "\n]}\n");
  const bool ok = std::ferror(file) == 0;
  return std::fclose(file) == 0 && ok;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::logic_error("quantile of an empty sample");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  s.median = quantile(values, 0.5);
  s.p25 = quantile(values, 0.25);
  s.p75 = quantile(values, 0.75);
  return s;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

const Json* Json::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Json document() {
    Json value = parse_value();
    skip_space();
    if (pos_ != text_.size()) fail("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("malformed JSON at offset " + std::to_string(pos_) +
                             ": " + what);
  }
  void skip_space() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t')) {
      ++pos_;
    }
  }
  bool consume(char c) {
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!consume(c)) fail("unexpected character");
  }
  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        c = text_[pos_++];
        switch (c) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case '"': case '\\': case '/': break;
          default: fail("unsupported escape");
        }
      }
      out.push_back(c);
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;
    return out;
  }

  Json parse_value() {
    skip_space();
    if (pos_ >= text_.size()) fail("unexpected end");
    Json value;
    const char c = text_[pos_];
    if (c == '{') {
      value.kind = Json::Kind::kObject;
      ++pos_;
      if (consume('}')) return value;
      do {
        skip_space();
        std::string key = parse_string();
        expect(':');
        value.members.emplace_back(std::move(key), parse_value());
      } while (consume(','));
      expect('}');
    } else if (c == '[') {
      value.kind = Json::Kind::kArray;
      ++pos_;
      if (consume(']')) return value;
      do {
        value.items.push_back(parse_value());
      } while (consume(','));
      expect(']');
    } else if (c == '"') {
      value.kind = Json::Kind::kString;
      value.text = parse_string();
    } else if (literal("true")) {
      value.kind = Json::Kind::kBool;
      value.boolean = true;
    } else if (literal("false")) {
      value.kind = Json::Kind::kBool;
    } else if (literal("null")) {
      value.kind = Json::Kind::kNull;
    } else {
      const std::string rest(text_.substr(pos_, 64));
      char* end = nullptr;
      value.kind = Json::Kind::kNumber;
      value.number = std::strtod(rest.c_str(), &end);
      if (end == rest.c_str()) fail("expected a value");
      pos_ += static_cast<std::size_t>(end - rest.c_str());
    }
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json parse_json(std::string_view text) { return JsonParser(text).document(); }

}  // namespace epmbench
