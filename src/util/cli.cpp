#include "util/cli.hpp"

#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace pbl {

Cli::Cli(int argc, const char* const* argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      strays_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

bool Cli::has(const std::string& name) const {
  queried_.insert(name);
  return values_.count(name) != 0;
}

namespace {

// std::stoi and friends accept trailing garbage ("12abc" -> 12) and throw
// bare std::invalid_argument/std::out_of_range with no context — both
// bite in scripted bench runs (and were surfaced by the CLI fuzz target).
// Require full consumption and name the offending flag.
template <typename T, typename Parse>
T parse_full(const std::string& name, const std::string& value, Parse parse,
             const char* what) {
  std::size_t pos = 0;
  T out;
  try {
    out = parse(value, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + name + ": expected " + what +
                                ", got '" + value + "'");
  }
  if (pos != value.size())
    throw std::invalid_argument("--" + name + ": trailing characters in '" +
                                value + "'");
  return out;
}

int parse_int(const std::string& name, const std::string& value) {
  return parse_full<int>(
      name, value,
      [](const std::string& v, std::size_t* pos) { return std::stoi(v, pos); },
      "an integer");
}

std::int64_t parse_int64(const std::string& name, const std::string& value) {
  return parse_full<std::int64_t>(
      name, value,
      [](const std::string& v, std::size_t* pos) { return std::stoll(v, pos); },
      "an integer");
}

double parse_double(const std::string& name, const std::string& value) {
  return parse_full<double>(
      name, value,
      [](const std::string& v, std::size_t* pos) { return std::stod(v, pos); },
      "a number");
}

}  // namespace

std::optional<std::string> Cli::raw(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

void Cli::record(const std::string& name, const std::string& def) {
  defaults_seen_.emplace(name, def);
  queried_.insert(name);
}

int Cli::get_int(const std::string& name, int def) {
  record(name, std::to_string(def));
  const auto v = raw(name);
  return v ? parse_int(name, *v) : def;
}

std::int64_t Cli::get_int64(const std::string& name, std::int64_t def) {
  record(name, std::to_string(def));
  const auto v = raw(name);
  return v ? parse_int64(name, *v) : def;
}

std::size_t Cli::get_size(const std::string& name, std::size_t def) {
  record(name, std::to_string(def));
  const auto v = raw(name);
  if (!v) return def;
  const std::int64_t n = parse_int64(name, *v);
  if (n < 0)
    throw std::invalid_argument("--" + name +
                                ": expected a non-negative integer, got '" +
                                *v + "'");
  return static_cast<std::size_t>(n);
}

double Cli::get_double(const std::string& name, double def) {
  std::ostringstream os;
  os << def;
  record(name, os.str());
  const auto v = raw(name);
  return v ? parse_double(name, *v) : def;
}

std::string Cli::get_string(const std::string& name, std::string def) {
  record(name, def);
  const auto v = raw(name);
  return v ? *v : def;
}

bool Cli::get_bool(const std::string& name, bool def) {
  record(name, def ? "true" : "false");
  const auto v = raw(name);
  if (!v) return def;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw std::invalid_argument("--" + name +
                              ": expected true/false/1/0/yes/no, got '" + *v +
                              "'");
}

std::vector<double> Cli::get_doubles(const std::string& name,
                                     std::vector<double> def) {
  {
    std::ostringstream os;
    for (std::size_t i = 0; i < def.size(); ++i)
      os << (i ? "," : "") << def[i];
    record(name, os.str());
  }
  const auto v = raw(name);
  if (!v) return def;
  std::vector<double> out;
  std::stringstream ss(*v);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(parse_double(name, item));
  }
  return out;
}

std::string Cli::usage() const {
  std::ostringstream os;
  os << "usage: " << program_ << " [flags]\n";
  for (const auto& [name, def] : defaults_seen_)
    os << "  --" << name << " (default=" << def << ")\n";
  return os.str();
}

std::vector<std::string> Cli::unqueried() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : values_)
    if (queried_.count(name) == 0) out.push_back("--" + name);
  out.insert(out.end(), strays_.begin(), strays_.end());
  return out;
}

}  // namespace pbl
