#include "faults/script_text.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace epm::faults {
namespace {

std::string format_double(double value) {
  // Shortest representation that parses back to the exact same double, so
  // to_string() -> parse() round-trips fingerprint-equal even for sampled
  // plans whose times carry full mantissas.
  // A "+" inside scientific notation ("2e+06") would collide with the
  // '+duration' separator on re-parse, so rewrite "e+06" as "e6".
  const auto normalize = [](std::string text) {
    const auto e = text.find("e+");
    if (e != std::string::npos) {
      std::size_t digits = e + 2;
      while (digits + 1 < text.size() && text[digits] == '0') ++digits;
      text = text.substr(0, e + 1) + text.substr(digits);
    }
    return text;
  };
  std::string best;
  for (int precision : {6, 15, 16, 17}) {
    std::ostringstream out;
    out << std::setprecision(precision) << value;
    best = normalize(out.str());
    if (std::strtod(best.c_str(), nullptr) == value) {
      return best;
    }
  }
  return best;
}

/// Parses a full token as a finite double; rejects empty tokens, trailing
/// garbage ("12abc"), inf, and NaN with a message naming the bad token.
double parse_number(const std::string& raw, const char* field,
                    const std::string& entry, const char* noun) {
  const std::string token = trim(raw);
  if (token.empty()) {
    throw std::invalid_argument(std::string(noun) + " has empty " + field +
                                " in '" + entry + "'");
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || errno == ERANGE ||
      !std::isfinite(value)) {
    throw std::invalid_argument(std::string("bad ") + field + " token '" +
                                token + "' in " + noun + " '" + entry + "'");
  }
  return value;
}

}  // namespace

std::string trim(const std::string& s) {
  std::size_t lo = 0;
  std::size_t hi = s.size();
  while (lo < hi && std::isspace(static_cast<unsigned char>(s[lo]))) ++lo;
  while (hi > lo && std::isspace(static_cast<unsigned char>(s[hi - 1]))) --hi;
  return s.substr(lo, hi - lo);
}

std::vector<std::string> script_entries(const std::string& spec) {
  std::vector<std::string> entries;
  std::stringstream stream(spec);
  std::string entry;
  while (std::getline(stream, entry, ';')) {
    entry = trim(entry);
    if (!entry.empty()) entries.push_back(entry);
  }
  return entries;
}

std::string script_head(const std::string& entry, const char* noun) {
  const auto at = entry.find('@');
  if (at == std::string::npos) {
    throw std::invalid_argument(std::string(noun) + " missing '@': '" +
                                entry + "'");
  }
  if (entry.find('@', at + 1) != std::string::npos) {
    throw std::invalid_argument(std::string(noun) + " has duplicate '@': '" +
                                entry + "'");
  }
  return entry.substr(0, at);
}

ScriptTiming script_timing(const std::string& entry, const char* noun) {
  const std::string tail = entry.substr(entry.find('@') + 1);
  const auto plus = tail.find('+');
  if (plus == std::string::npos) {
    throw std::invalid_argument(std::string(noun) + " missing '+duration': '" +
                                entry + "'");
  }
  ScriptTiming timing;
  timing.start_s = parse_number(tail.substr(0, plus), "start", entry, noun);
  std::string rest = tail.substr(plus + 1);
  const auto x = rest.find('x');
  if (x != std::string::npos) {
    timing.severity = parse_number(rest.substr(x + 1), "severity", entry, noun);
    rest = rest.substr(0, x);
  }
  timing.duration_s = parse_number(rest, "duration", entry, noun);
  return timing;
}

std::string format_script_timing(double start_s, double duration_s,
                                 double severity) {
  std::string out = '@' + format_double(start_s) + '+' +
                    format_double(duration_s);
  if (severity != 1.0) out += 'x' + format_double(severity);
  return out;
}

}  // namespace epm::faults
