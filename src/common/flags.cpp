#include "common/flags.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <system_error>
#include <thread>

namespace nocsim {

Flags::Flags(int argc, char** argv) : program_(argc > 0 ? argv[0] : "bench") {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "%s: positional arguments are not accepted: '%s'\n",
                   program_.c_str(), arg.c_str());
      std::exit(2);
    }
    arg = arg.substr(2);
    if (arg == "help") {
      help_requested_ = true;
      continue;
    }
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare boolean flag
    }
  }
}

std::optional<std::string> Flags::raw(const std::string& name) {
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  consumed_[name] = true;
  return it->second;
}

void Flags::note(const std::string& name, const std::string& def, const std::string& desc) {
  help_lines_.push_back("  --" + name + " (default " + def + "): " + desc);
}

void Flags::bad_value(const std::string& name, const std::string& value) const {
  std::fprintf(stderr, "%s: bad value for --%s: %s\n", program_.c_str(), name.c_str(),
               value.c_str());
  std::exit(2);
}

namespace {

/// Parse all of `s` as a T; nullopt if any character is left over, the
/// text is not a number (leading spaces and '+' included) or out of range.
template <typename T>
std::optional<T> parse_whole(const std::string& s) {
  T out{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, out);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return out;
}

}  // namespace

template <typename T>
T Flags::get_at_least(const std::string& name, T def, T min, const std::string& desc) {
  note(name, std::to_string(def), desc);
  const auto v = raw(name);
  if (!v) return def;
  const auto parsed = parse_whole<T>(*v);
  if (!parsed || *parsed < min) bad_value(name, *v);
  return *parsed;
}

int Flags::get_int(const std::string& name, int def, const std::string& desc, int min) {
  return get_at_least(name, def, min, desc);
}

Cycle Flags::get_cycles(const std::string& name, Cycle def, Cycle min,
                        const std::string& desc) {
  return get_at_least(name, def, min, desc);
}

double Flags::get_double(const std::string& name, double def, const std::string& desc) {
  note(name, std::to_string(def), desc);
  const auto v = raw(name);
  if (!v) return def;
  const auto parsed = parse_whole<double>(*v);
  if (!parsed) bad_value(name, *v);
  return *parsed;
}

bool Flags::get_bool(const std::string& name, bool def, const std::string& desc) {
  note(name, def ? "true" : "false", desc);
  const auto v = raw(name);
  if (!v) return def;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  bad_value(name, *v);
}

std::string Flags::get_string(const std::string& name, const std::string& def,
                              const std::string& desc) {
  note(name, def.empty() ? "\"\"" : def, desc);
  const auto v = raw(name);
  return v ? *v : def;
}

bool Flags::finish() {
  if (help_requested_) {
    std::fprintf(stderr, "Usage: %s [flags]\n", program_.c_str());
    for (const auto& line : help_lines_) std::fprintf(stderr, "%s\n", line.c_str());
    return true;
  }
  for (const auto& [name, value] : values_) {
    if (!consumed_.count(name)) {
      std::fprintf(stderr, "%s: unknown flag --%s (use --help)\n", program_.c_str(),
                   name.c_str());
      std::exit(2);
    }
    (void)value;
  }
  return false;
}

std::string Flags::program_name() const {
  const auto slash = program_.find_last_of('/');
  return slash == std::string::npos ? program_ : program_.substr(slash + 1);
}

int get_jobs(Flags& flags) {
  const int n = flags.get_int(
      "jobs", 0, "worker threads for parallel sweep execution (0 = all hardware threads)", 0);
  if (n > 0) return n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? static_cast<int>(hw) : 1;
}

int get_shards(Flags& flags) {
  return flags.get_int(
      "shards", 1, "intra-run worker tiles per simulation (results identical for any value)", 1);
}

}  // namespace nocsim
