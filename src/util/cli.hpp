// Minimal command-line flag parsing for the bench and example binaries.
//
// Usage:
//   pbl::Cli cli(argc, argv);
//   const int k = cli.get_int("k", 7);
//   const double p = cli.get_double("p", 0.01);
// Flags are given as --name=value or --name value; --help prints all
// registered flags and exits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace pbl {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// True if a bare flag (e.g. --verbose) or any valued flag was passed.
  /// Counts as a read for unqueried().
  bool has(const std::string& name) const;

  /// Numeric getters parse the full value: trailing garbage, overflow or
  /// an empty/non-numeric value throws std::invalid_argument naming the
  /// flag (rather than stoi's silent prefix parse or bare exception).
  int get_int(const std::string& name, int def);
  std::int64_t get_int64(const std::string& name, std::int64_t def);
  /// As get_int64, but a negative value throws too (a count or size).
  std::size_t get_size(const std::string& name, std::size_t def);
  double get_double(const std::string& name, double def);
  std::string get_string(const std::string& name, std::string def);
  /// true/1/yes, false/0/no, or a bare flag (true); any other value
  /// throws std::invalid_argument naming the flag.
  bool get_bool(const std::string& name, bool def);

  /// Comma-separated list of doubles, e.g. --ks=7,20,100.
  std::vector<double> get_doubles(const std::string& name,
                                  std::vector<double> def);

  /// Prints "--flag (default=...)" lines for all flags queried so far.
  std::string usage() const;

  /// Arguments that were passed but never read, as typed: flags no
  /// getter or has() asked for ("--grace-round" for a misspelt name),
  /// then every argument that is neither a flag nor a flag's value
  /// ("-k=3", "sessions=3").
  std::vector<std::string> unqueried() const;

  const std::string& program() const { return program_; }

 private:
  std::optional<std::string> raw(const std::string& name) const;
  void record(const std::string& name, const std::string& def);

  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> strays_;  ///< arguments not starting with "--"
  std::map<std::string, std::string> defaults_seen_;
  mutable std::set<std::string> queried_;
};

}  // namespace pbl
