// Strict command-line flags shared by bayescrowd_cli and
// bayescrowd_serve. Each tool declares the flags it accepts as a
// {name, kind} table; ParseFlags rejects anything else before the tool
// does any work, so a typo'd flag or a malformed number can never fall
// back to a default.

#ifndef BAYESCROWD_TOOLS_FLAGS_H_
#define BAYESCROWD_TOOLS_FLAGS_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/string_util.h"

namespace bayescrowd {

/// The type a flag's value must parse as; kBool flags take no value.
enum class FlagKind : std::uint8_t { kString, kInt, kDouble, kBool };

struct FlagSpec {
  const char* name;
  FlagKind kind;
};

/// Parsed flags. Values were type-checked by ParseFlags, so the getters
/// only fall back when a flag is absent.
struct Flags {
  std::map<std::string, std::string> values;

  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    const auto it = values.find(key);
    if (it == values.end()) return fallback;
    double v = fallback;
    ParseDouble(it->second, &v);
    return v;
  }
  int GetInt(const std::string& key, int fallback) const {
    const auto it = values.find(key);
    if (it == values.end()) return fallback;
    int v = fallback;
    ParseInt(it->second, &v);
    return v;
  }
  bool Has(const std::string& key) const { return values.count(key) > 0; }
};

/// Parses argv[first..] against `specs`. On any unknown flag, missing
/// value, or value that does not parse completely as its declared type,
/// prints one diagnostic line prefixed with `command` and returns false.
inline bool ParseFlags(const std::string& command,
                       const std::vector<FlagSpec>& specs, int first,
                       int argc, char** argv, Flags* flags) {
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      std::fprintf(stderr, "%s: unexpected argument '%s'\n", command.c_str(),
                   arg.c_str());
      return false;
    }
    arg = arg.substr(2);
    std::string value;
    const std::size_t eq = arg.find('=');
    const bool inline_value = eq != std::string::npos;
    if (inline_value) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    const auto spec =
        std::find_if(specs.begin(), specs.end(),
                     [&arg](const FlagSpec& f) { return arg == f.name; });
    if (spec == specs.end()) {
      std::fprintf(stderr, "%s: unknown flag '--%s'\n", command.c_str(),
                   arg.c_str());
      return false;
    }
    const FlagKind kind = spec->kind;
    if (kind == FlagKind::kBool) {
      if (inline_value) {
        std::fprintf(stderr, "%s: --%s takes no value\n", command.c_str(),
                     arg.c_str());
        return false;
      }
      flags->values[arg] = "";
      continue;
    }
    if (!inline_value) {
      if (i + 1 >= argc || StartsWith(argv[i + 1], "--")) {
        std::fprintf(stderr, "%s: --%s needs a value\n", command.c_str(),
                     arg.c_str());
        return false;
      }
      value = argv[++i];
    }
    int int_value = 0;
    double double_value = 0.0;
    if (kind == FlagKind::kInt && !ParseInt(value, &int_value)) {
      std::fprintf(stderr, "%s: --%s expects an integer, got '%s'\n",
                   command.c_str(), arg.c_str(), value.c_str());
      return false;
    }
    if (kind == FlagKind::kDouble && !ParseDouble(value, &double_value)) {
      std::fprintf(stderr, "%s: --%s expects a number, got '%s'\n",
                   command.c_str(), arg.c_str(), value.c_str());
      return false;
    }
    flags->values[arg] = value;
  }
  return true;
}

}  // namespace bayescrowd

#endif  // BAYESCROWD_TOOLS_FLAGS_H_
