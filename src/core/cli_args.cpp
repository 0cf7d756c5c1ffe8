#include "core/cli_args.h"

#include <cmath>
#include <string>

#include "core/parallel.h"

namespace epm {
namespace {

bool is_flag(const std::string& arg) { return arg.rfind("--", 0) == 0; }

}  // namespace

CliArgs::CliArgs(int argc, const char* const argv[]) {
  int i = 1;
  if (i < argc && !is_flag(argv[i])) {
    command_ = argv[i];
    ++i;
  }
  while (i < argc) {
    const std::string arg = argv[i];
    if (!is_flag(arg)) throw UsageError("CliArgs: expected --flag, got '" + arg + "'");
    const std::string key = arg.substr(2);
    if (key.empty()) throw UsageError("CliArgs: empty flag name");
    if (i + 1 < argc && !is_flag(argv[i + 1])) {
      values_[key] = argv[i + 1];
      i += 2;
    } else {
      values_[key] = "";  // boolean switch
      ++i;
    }
  }
}

bool CliArgs::has(const std::string& flag) const {
  const bool present = values_.count(flag) > 0;
  if (present) used_.insert(flag);
  return present;
}

std::string CliArgs::get(const std::string& flag, const std::string& fallback) const {
  auto it = values_.find(flag);
  if (it == values_.end()) return fallback;
  used_.insert(flag);
  return it->second;
}

double CliArgs::get(const std::string& flag, double fallback) const {
  auto it = values_.find(flag);
  if (it == values_.end()) return fallback;
  used_.insert(flag);
  std::size_t pos = 0;
  double v = 0.0;
  bool parsed = false;
  try {
    v = std::stod(it->second, &pos);
    parsed = pos == it->second.size() && std::isfinite(v);
  } catch (const std::exception&) {
    // No number at all, or out of range: `parsed` stays false.
  }
  if (!parsed) {
    throw UsageError("CliArgs: --" + flag + " expects a finite number, got '" +
                     it->second + "'");
  }
  return v;
}

std::int64_t CliArgs::get(const std::string& flag, std::int64_t fallback) const {
  auto it = values_.find(flag);
  if (it == values_.end()) return fallback;
  used_.insert(flag);
  std::size_t pos = 0;
  long long v = 0;
  bool parsed = false;
  try {
    v = std::stoll(it->second, &pos);
    parsed = pos == it->second.size();
  } catch (const std::exception&) {
    // No number at all, or out of range: `parsed` stays false.
  }
  if (!parsed) {
    throw UsageError("CliArgs: --" + flag + " expects an integer, got '" + it->second +
                     "'");
  }
  return v;
}

bool CliArgs::get_switch(const std::string& flag) const {
  auto it = values_.find(flag);
  if (it == values_.end()) return false;
  used_.insert(flag);
  if (!it->second.empty()) {
    throw UsageError("CliArgs: --" + flag + " is a switch and takes no value");
  }
  return true;
}

std::size_t CliArgs::threads() const {
  const std::int64_t requested = get("threads", std::int64_t{0});
  if (values_.count("threads") > 0 &&
      (requested < 1 || requested > static_cast<std::int64_t>(kMaxThreads))) {
    throw UsageError("CliArgs: --threads must be an integer in 1.." +
                     std::to_string(kMaxThreads));
  }
  return resolve_thread_count(requested);
}

std::vector<std::string> CliArgs::unused() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    if (used_.count(key) == 0) out.push_back(key);
  }
  return out;
}

}  // namespace epm
