// Fuzz target: pbl::Cli over fuzzer-chosen argument vectors.
//
// The input is split on '\n' into argv tokens; every getter is then
// exercised both on a fixed set of flag names and on names recovered from
// the tokens themselves (so "--k=12junk" stresses get_int("k")).
// Contract under test (util/cli.hpp): the numeric and boolean getters
// either return a fully-parsed value or throw std::invalid_argument —
// never a bare std::out_of_range from the std::sto* family, never UB.
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.hpp"

namespace {

template <typename Fn>
void expect_value_or_invalid_argument(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument&) {
    // the documented failure mode
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  constexpr std::size_t kMaxArgs = 16;
  std::vector<std::string> tokens;
  std::string current;
  for (std::size_t i = 0; i < size && tokens.size() < kMaxArgs; ++i) {
    const char c = static_cast<char>(data[i]);
    if (c == '\n') {
      tokens.push_back(current);
      current.clear();
    } else if (c != '\0') {  // argv strings are NUL-terminated
      current.push_back(c);
    }
  }
  if (!current.empty() && tokens.size() < kMaxArgs) tokens.push_back(current);

  std::vector<const char*> argv;
  argv.push_back("fuzz_cli");
  for (const auto& t : tokens) argv.push_back(t.c_str());

  pbl::Cli cli(static_cast<int>(argv.size()), argv.data());

  std::vector<std::string> names = {"k", "p", "seed", "ks", "verbose"};
  for (const auto& t : tokens) {
    std::string name = t;
    while (name.rfind("--", 0) == 0) name = name.substr(2);
    if (const auto eq = name.find('='); eq != std::string::npos)
      name = name.substr(0, eq);
    if (!name.empty()) names.push_back(name);
  }

  for (const auto& name : names) {
    (void)cli.has(name);
    expect_value_or_invalid_argument([&] { (void)cli.get_int(name, 7); });
    expect_value_or_invalid_argument([&] { (void)cli.get_int64(name, 1); });
    expect_value_or_invalid_argument([&] { (void)cli.get_size(name, 3); });
    expect_value_or_invalid_argument([&] { (void)cli.get_double(name, 0.5); });
    expect_value_or_invalid_argument(
        [&] { (void)cli.get_doubles(name, {1.0, 2.0}); });
    expect_value_or_invalid_argument([&] { (void)cli.get_bool(name, false); });
    (void)cli.get_string(name, "default");
  }
  (void)cli.usage();
  (void)cli.unqueried();
  return 0;
}
