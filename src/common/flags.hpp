// Tiny command-line flag parser for bench and example binaries.
//
// Accepted syntax: --name=value, --name value, and bare --flag (bool true).
// Unknown flags abort with a usage message listing registered flags, so every
// bench is self-documenting via --help. A value that does not parse in full
// (`--cycles banana`, `--rate 0.5x`, `--profile maybe`) exits with status 2.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace nocsim {

class Flags {
 public:
  Flags(int argc, char** argv);

  /// Register + read a flag; `desc` appears in --help output.
  /// An int of at least `min`, else a bad value (exit 2): a count of zero
  /// or a negative size never reaches the program. No integer flag takes a
  /// negative value, hence the default bound.
  int get_int(const std::string& name, int def, const std::string& desc, int min = 0);
  /// A cycle count: an integer of at least `min`, else a bad value (exit 2),
  /// so a negative count never wraps to ~2^64 cycles.
  Cycle get_cycles(const std::string& name, Cycle def, Cycle min, const std::string& desc);
  double get_double(const std::string& name, double def, const std::string& desc);
  bool get_bool(const std::string& name, bool def, const std::string& desc);
  std::string get_string(const std::string& name, const std::string& def,
                         const std::string& desc);

  /// Call after all get_*() registrations: handles --help and rejects
  /// unknown flags. Returns true if the program should exit (help printed).
  bool finish();

  /// Basename of argv[0] — the conventional stem for per-run record files.
  [[nodiscard]] std::string program_name() const;

  /// Print "bad value for --name: value" and exit 2, like an unknown flag.
  /// Also for values that parse but are out of range.
  [[noreturn]] void bad_value(const std::string& name, const std::string& value) const;

 private:
  std::optional<std::string> raw(const std::string& name);
  /// The value of flag `name` as a T of at least `min`, else a bad value.
  template <typename T>
  T get_at_least(const std::string& name, T def, T min, const std::string& desc);
  void note(const std::string& name, const std::string& def, const std::string& desc);

  std::string program_;
  std::map<std::string, std::string> values_;
  std::map<std::string, bool> consumed_;
  std::vector<std::string> help_lines_;
  bool help_requested_ = false;
};

/// The standard `--jobs` flag shared by every sweep-driving binary: worker
/// threads for parallel sweep execution. 0 (the default) means "all
/// hardware threads"; the returned value is always >= 1.
int get_jobs(Flags& flags);

/// The standard `--shards` flag for binaries that run whole simulations:
/// row-strip tiles (worker threads) *inside* each simulation. Results are
/// byte-identical for every value; 1 (the default) runs on the calling
/// thread alone, and a value below 1 is a bad value. Composes with --jobs —
/// total threads ~= jobs * shards.
int get_shards(Flags& flags);

}  // namespace nocsim
