#include "common/cli.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "common/error.h"
#include "common/parallel.h"
#include "obs/report.h"

namespace dcn {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    DCN_REQUIRE(token.rfind("--", 0) == 0,
                "CLI arguments must look like --key=value, got: " + token);
    const std::string body = token.substr(2);
    const std::size_t eq = body.find('=');
    const std::string key = body.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "true" : body.substr(eq + 1);
    DCN_REQUIRE(values_.emplace(key, value).second,
                "duplicate flag --" + key + ", got: " + token);
  }
}

bool CliArgs::Has(const std::string& key) const { return values_.count(key) > 0; }

std::string CliArgs::GetString(const std::string& key,
                               const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t CliArgs::GetInt(const std::string& key, std::int64_t fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  const char* end = text.data() + text.size();
  std::int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  DCN_REQUIRE(ec == std::errc{} && ptr == end,
              "--" + key + " expects an integer, got: " + text);
  return value;
}

double CliArgs::GetDouble(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  // strtod skips leading blanks; reject them explicitly.
  const std::string& text = it->second;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  DCN_REQUIRE(!text.empty() && !std::isspace(static_cast<unsigned char>(text[0])) &&
                  end == text.c_str() + text.size() && errno != ERANGE &&
                  std::isfinite(value),
              "--" + key + " expects a number, got: " + text);
  return value;
}

void ApplyGlobalFlags(const CliArgs& args) {
  ConfigureThreads(args);
  obs::ConfigureSinks(args);
}

bool CliArgs::GetBool(const std::string& key, bool fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  if (it->second == "true" || it->second == "1") return true;
  if (it->second == "false" || it->second == "0") return false;
  throw InvalidArgument{"--" + key + " expects true/false, got: " + it->second};
}

}  // namespace dcn
