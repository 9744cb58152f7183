// nocsim-lint — repo-native determinism & shard-safety linter.
//
// The simulator's headline guarantee is that metrics are a pure function of
// (config, seed): bit-identical across --jobs values, --shards values,
// machines, and reruns. That guarantee rests on coding discipline no
// compiler enforces — never iterate an unordered container in a
// metrics-visible path, never draw entropy outside the seeded Rng, never
// write another tile's state from a phase body. This tool machine-checks
// those invariants at the token level (no libclang dependency) and runs as
// a tier-1 ctest, so a violation fails the build instead of waiting for a
// reviewer to notice a figure stopped reproducing.
//
// It runs in two passes. Pass 1 walks every input file and builds a
// cross-file symbol table from the annotation vocabulary in
// src/common/shard_annotations.hpp: which members are NOCSIM_TILE_LOCAL /
// NOCSIM_SHARED_READONLY / NOCSIM_HALO_ONLY / NOCSIM_PHASE_OWNED, and
// which variables are ShardTeam instances. Pass 2 re-walks each file and
// applies the rules, consulting the table — so a phase body in
// simulator.cpp is checked against annotations declared in simulator.hpp.
// The table is keyed by symbol name (this is a token-level analyzer, not a
// C++ front end): two members of the same name in different classes must
// carry the same annotation, and the linter reports a conflict otherwise.
//
// Rules (see --list-rules):
//   unordered-iter    iteration over an unordered container (order is
//                     hash/allocation dependent and may leak into metrics)
//   unordered-member  unordered container declared in sim-state code
//                     (src/noc, src/sim, src/core, src/cpu, src/telemetry,
//                     bench)
//   raw-entropy       rand()/rand_r()/std::random_device/std::mt19937/
//                     std::shuffle/... — all randomness must flow through
//                     src/common/rng.hpp
//   wallclock         time()/clock()/std::chrono::*_clock::now() — wall time
//                     must never influence simulated behaviour
//   raw-timing        any std::chrono mention in sim-state code outside the
//                     sanctioned profiler (src/telemetry/profiler.*): host
//                     timing must flow through PhaseProfiler so it stays
//                     segregated from simulated state
//   pointer-sort      sort/min_element/... comparator keyed on raw pointer
//                     values (allocation-order dependent)
//   narrow-cast       C-style cast to a narrow integer type in sim-state
//                     code without an adjacent NOCSIM_CHECK bounds guard
//   mutable-global    mutable namespace-scope variable in sim-state code
//                     (cross-run state that survives Simulator construction)
//   iostream-in-hot-path  std::cout/cerr/clog touched in per-cycle code
//                     (src/noc, src/core): stream I/O in the router/core loop
//                     wrecks throughput; route output through a telemetry
//                     sink (src/telemetry) instead
//   shard-unsafe-write  a NOCSIM_PHASE body writes shared-read-only or
//                     unclassified member state; cross-tile effects must go
//                     through a NOCSIM_HALO_ONLY outbox
//   unannotated-phase ShardTeam::run body with no NOCSIM_PHASE declaration
//   cross-tile-index  NOCSIM_TILE_LOCAL array indexed by a neighbor-derived
//                     node id with no ownership guard (owns()/tile_of())
//   alloc-in-phase    new/malloc/make_unique/resize/reserve inside a phase
//                     body: phases must be steady-state allocation-free
//   lock-in-hot-path  blocking synchronization (mutex/lock_guard/...) in
//                     per-cycle code or a phase body: the sharded loop
//                     synchronizes via spin barriers and halo outboxes only
//   flit-payload-in-hot-path  cold FlitPayload field (addr/enqueue_cycle/
//                     hops/deflections/packet_len/kind) read inside a
//                     NOCSIM_PHASE body: arbitration must stream the hot
//                     header lane; the cold lane moves once, through a
//                     payload-lane access, when a flit actually moves
//   bad-directive     malformed nocsim-lint control comment or annotation
//
// Suppression: a finding is silenced only by an inline directive
//     // nocsim-lint: allow(<rule>[, <rule>...]): <reason>
// on the same line or the line directly above. The reason is mandatory;
// an empty reason or unknown rule name is itself a finding.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

const std::set<std::string>& known_rules() {
  static const std::set<std::string> rules = {
      "unordered-iter", "unordered-member", "raw-entropy",
      "wallclock",      "raw-timing",       "pointer-sort",     "narrow-cast",
      "mutable-global", "iostream-in-hot-path", "bad-directive",
      "shard-unsafe-write", "unannotated-phase", "cross-tile-index",
      "alloc-in-phase", "lock-in-hot-path", "flit-payload-in-hot-path",
  };
  return rules;
}

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

struct Allow {
  std::set<std::string> rules;
  std::string reason;
};

// Per-file view after lexical preprocessing: `code` mirrors the original
// byte-for-byte except comments, string/char literals, and preprocessor
// directives are blanked to spaces (so offsets and line numbers survive);
// `raw` keeps the unmodified source at the same offsets (so string
// payloads — NOCSIM_PHASE("name") — stay readable); `comment_text` holds
// each line's comment payload for directive parsing.
struct Stripped {
  std::string code;                       // '\n'-joined blanked source
  std::string raw;                        // original source, same offsets
  std::vector<std::string> comment_text;  // per line, 0-based
  std::vector<std::size_t> line_offset;   // offset of each line start in code
};

bool is_ident(char c) { return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_'; }

Stripped strip(const std::string& src) {
  Stripped out;
  out.code.reserve(src.size());
  out.raw = src;
  out.comment_text.emplace_back();
  out.line_offset.push_back(0);

  enum class St { Code, LineComment, BlockComment, String, Char, RawString, Preproc };
  St st = St::Code;
  std::string raw_delim;  // for R"delim( ... )delim"
  bool preproc_continues = false;

  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    if (c == '\n') {
      if (st == St::LineComment) st = St::Code;
      if (st == St::Preproc) {
        if (!preproc_continues) st = St::Code;
        preproc_continues = false;
      }
      out.code.push_back('\n');
      out.comment_text.emplace_back();
      out.line_offset.push_back(out.code.size());
      continue;
    }
    switch (st) {
      case St::Code:
        if (c == '/' && next == '/') {
          st = St::LineComment;
          out.code.append("  ");
          ++i;
        } else if (c == '/' && next == '*') {
          st = St::BlockComment;
          out.code.append("  ");
          ++i;
        } else if (c == '"' && i > 0 && src[i - 1] == 'R') {
          // Raw string literal R"delim( — capture the delimiter.
          raw_delim.clear();
          std::size_t j = i + 1;
          while (j < src.size() && src[j] != '(') raw_delim.push_back(src[j++]);
          st = St::RawString;
          out.code.push_back(' ');
        } else if (c == '"') {
          st = St::String;
          out.code.push_back(' ');
        } else if (c == '\'' && !(i > 0 && is_ident(src[i - 1]))) {
          // Skip digit separators (1'000'000): only enter char-literal state
          // when the quote does not follow an identifier character.
          st = St::Char;
          out.code.push_back(' ');
        } else if (c == '#') {
          st = St::Preproc;
          out.code.push_back(' ');
        } else {
          out.code.push_back(c);
        }
        break;
      case St::LineComment:
        out.comment_text.back().push_back(c);
        out.code.push_back(' ');
        break;
      case St::BlockComment:
        if (c == '*' && next == '/') {
          st = St::Code;
          out.code.append("  ");
          ++i;
        } else {
          out.comment_text.back().push_back(c);
          out.code.push_back(' ');
        }
        break;
      case St::String:
        if (c == '\\') {
          out.code.append("  ");
          ++i;
          if (next == '\n') {
            out.code.back() = '\n';
            out.comment_text.emplace_back();
            out.line_offset.push_back(out.code.size());
          }
        } else {
          if (c == '"') st = St::Code;
          out.code.push_back(' ');
        }
        break;
      case St::Char:
        if (c == '\\') {
          out.code.append("  ");
          ++i;
        } else {
          if (c == '\'') st = St::Code;
          out.code.push_back(' ');
        }
        break;
      case St::RawString: {
        const std::string closer = ")" + raw_delim + "\"";
        if (src.compare(i, closer.size(), closer) == 0) {
          for (std::size_t k = 0; k < closer.size(); ++k) out.code.push_back(' ');
          i += closer.size() - 1;
          st = St::Code;
        } else {
          out.code.push_back(' ');
        }
        break;
      }
      case St::Preproc:
        preproc_continues = (c == '\\' && next == '\n');
        out.code.push_back(' ');
        break;
    }
  }
  return out;
}

int line_of(const Stripped& s, std::size_t offset) {
  auto it = std::upper_bound(s.line_offset.begin(), s.line_offset.end(), offset);
  return static_cast<int>(it - s.line_offset.begin());  // 1-based
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

// Parse "nocsim-lint: allow(rule, rule): reason" directives out of comment
// text. Returns the per-line allow map (1-based line -> Allow); malformed
// directives are reported as bad-directive findings.
std::map<int, Allow> parse_directives(const Stripped& s, const std::string& file,
                                      std::vector<Finding>& findings) {
  std::map<int, Allow> allows;
  for (std::size_t ln = 0; ln < s.comment_text.size(); ++ln) {
    const std::string& text = s.comment_text[ln];
    const std::size_t tag = text.find("nocsim-lint:");
    if (tag == std::string::npos) continue;
    const int line = static_cast<int>(ln) + 1;
    const std::size_t open = text.find("allow(", tag);
    const std::size_t close = open == std::string::npos ? std::string::npos : text.find(')', open);
    if (open == std::string::npos || close == std::string::npos) {
      findings.push_back({file, line, "bad-directive",
                          "expected 'nocsim-lint: allow(<rule>[, <rule>...]): <reason>'"});
      continue;
    }
    Allow allow;
    std::stringstream list(text.substr(open + 6, close - open - 6));
    std::string rule;
    bool ok = true;
    while (std::getline(list, rule, ',')) {
      rule = trim(rule);
      if (rule.empty()) continue;
      if (known_rules().count(rule) == 0) {
        findings.push_back({file, line, "bad-directive", "unknown rule '" + rule + "'"});
        ok = false;
      }
      allow.rules.insert(rule);
    }
    const std::size_t colon = text.find(':', close);
    allow.reason = colon == std::string::npos ? "" : trim(text.substr(colon + 1));
    if (allow.reason.empty()) {
      findings.push_back(
          {file, line, "bad-directive",
           "suppression needs a reason: 'allow(<rule>): <why order/entropy cannot leak>'"});
      ok = false;
    }
    if (ok && !allow.rules.empty()) allows[line] = allow;
  }
  return allows;
}

bool word_at(const std::string& code, std::size_t pos, const std::string& word) {
  if (code.compare(pos, word.size(), word) != 0) return false;
  if (pos > 0 && is_ident(code[pos - 1])) return false;
  const std::size_t end = pos + word.size();
  return end >= code.size() || !is_ident(code[end]);
}

std::size_t skip_ws(const std::string& code, std::size_t pos) {
  while (pos < code.size() && std::isspace(static_cast<unsigned char>(code[pos])) != 0) ++pos;
  return pos;
}

// Last non-whitespace offset strictly before `pos`, or npos.
std::size_t prev_nonspace(const std::string& code, std::size_t pos) {
  while (pos > 0) {
    --pos;
    if (std::isspace(static_cast<unsigned char>(code[pos])) == 0) return pos;
  }
  return std::string::npos;
}

// Identifier whose last character sits at or before `pos` after skipping
// whitespace backwards; empty if the preceding token is not an identifier.
std::string ident_ending_before(const std::string& code, std::size_t pos) {
  const std::size_t last = prev_nonspace(code, pos);
  if (last == std::string::npos || !is_ident(code[last])) return "";
  std::size_t b = last;
  while (b > 0 && is_ident(code[b - 1])) --b;
  return code.substr(b, last - b + 1);
}

// Matches `<...>` starting at `pos` (which must point at '<'); returns the
// offset just past the matching '>', or npos if unbalanced.
std::size_t match_template_args(const std::string& code, std::size_t pos) {
  int depth = 0;
  for (std::size_t i = pos; i < code.size(); ++i) {
    if (code[i] == '<') ++depth;
    if (code[i] == '>') {
      --depth;
      if (depth == 0) return i + 1;
    }
    if (code[i] == ';') return std::string::npos;  // statement ended, not a template
  }
  return std::string::npos;
}

// Matches a bracket pair ending at `pos` (which must point at `close`);
// returns the offset of the matching `open`, or npos.
std::size_t match_delim_backward(const std::string& code, std::size_t pos, char open,
                                 char close) {
  int depth = 0;
  for (std::size_t i = pos + 1; i-- > 0;) {
    if (code[i] == close) ++depth;
    if (code[i] == open) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return std::string::npos;
}

// Matches a bracket pair starting at `pos` (which must point at `open`);
// returns the offset of the matching `close`, or npos.
std::size_t match_delim(const std::string& code, std::size_t pos, char open, char close) {
  int depth = 0;
  for (std::size_t i = pos; i < code.size(); ++i) {
    if (code[i] == open) ++depth;
    if (code[i] == close) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return std::string::npos;
}

// --- cross-file symbol table ------------------------------------------------
// Built in pass 1 from the annotation macros; consulted by the shard rules
// in pass 2. Name-keyed: the analyzer has no notion of which class a member
// belongs to, so annotation kinds must be consistent per name repo-wide.
struct SymbolTable {
  std::map<std::string, std::string> annotated;     // name -> tile-local|shared-readonly|halo-only
  std::map<std::string, std::string> phase_owner;   // name -> owning phase
  std::set<std::string> team_vars;                  // ShardTeam instances
};

// A NOCSIM_PHASE region: the innermost brace block containing the marker.
struct PhaseRegion {
  std::size_t begin = 0;  // offset just past '{'
  std::size_t end = 0;    // offset of matching '}'
  std::string name;       // phase name from the string literal
};

// String literal payload of the first "..." in `raw` after `from` but
// before `until`; empty if none.
std::string quoted_arg(const std::string& raw, std::size_t from, std::size_t until) {
  const std::size_t q0 = raw.find('"', from);
  if (q0 == std::string::npos || q0 >= until) return "";
  const std::size_t q1 = raw.find('"', q0 + 1);
  if (q1 == std::string::npos || q1 > until) return "";
  return raw.substr(q0 + 1, q1 - q0 - 1);
}

void collect_symbols(const std::string& file, const Stripped& s, SymbolTable& syms,
                     std::vector<Finding>& findings) {
  const std::string& code = s.code;

  struct Marker {
    const char* macro;
    const char* kind;
  };
  static const Marker markers[] = {
      {"NOCSIM_TILE_LOCAL", "tile-local"},
      {"NOCSIM_SHARED_READONLY", "shared-readonly"},
      {"NOCSIM_HALO_ONLY", "halo-only"},
  };
  for (const Marker& m : markers) {
    const std::string tok = m.macro;
    for (std::size_t pos = code.find(tok); pos != std::string::npos;
         pos = code.find(tok, pos + 1)) {
      if (!word_at(code, pos, tok)) continue;
      const std::string name = ident_ending_before(code, pos);
      if (name.empty()) {
        findings.push_back({file, line_of(s, pos), "bad-directive",
                            std::string(m.macro) + " must trail the declarator name "
                            "(`type name_ " + m.macro + ";`)"});
        continue;
      }
      auto it = syms.annotated.find(name);
      if (it != syms.annotated.end() && it->second != m.kind) {
        findings.push_back({file, line_of(s, pos), "bad-directive",
                            "conflicting annotation for '" + name + "': already " + it->second +
                            "; the symbol table is name-keyed, so same-named members must "
                            "agree (or be renamed)"});
        continue;
      }
      syms.annotated[name] = m.kind;
    }
  }

  // NOCSIM_PHASE_OWNED("phase") — member writable only by the named phase.
  for (std::size_t pos = code.find("NOCSIM_PHASE_OWNED"); pos != std::string::npos;
       pos = code.find("NOCSIM_PHASE_OWNED", pos + 1)) {
    if (!word_at(code, pos, "NOCSIM_PHASE_OWNED")) continue;
    const std::size_t open = skip_ws(code, pos + std::string("NOCSIM_PHASE_OWNED").size());
    const std::size_t close = open < code.size() && code[open] == '('
                                  ? match_delim(code, open, '(', ')')
                                  : std::string::npos;
    const std::string phase =
        close == std::string::npos ? "" : quoted_arg(s.raw, open, close);
    const std::string name = ident_ending_before(code, pos);
    if (name.empty() || phase.empty()) {
      findings.push_back({file, line_of(s, pos), "bad-directive",
                          "NOCSIM_PHASE_OWNED must trail the declarator name and take a "
                          "string literal phase (`type name_ NOCSIM_PHASE_OWNED(\"route\");`)"});
      continue;
    }
    auto it = syms.phase_owner.find(name);
    if (it != syms.phase_owner.end() && it->second != phase) {
      findings.push_back({file, line_of(s, pos), "bad-directive",
                          "conflicting phase owner for '" + name + "': already '" + it->second +
                          "'"});
      continue;
    }
    syms.phase_owner[name] = phase;
  }

  // ShardTeam variables: `ShardTeam name`, `ShardTeam& name`, or a smart
  // pointer (`unique_ptr<ShardTeam> name`). Constructor/operator
  // declarations are filtered by the keyword list and the
  // must-be-an-identifier requirement.
  static const std::set<std::string> not_a_var = {
      "operator", "const", "final", "override", "public", "private", "protected",
      "delete",   "default", "noexcept", "explicit", "return", "new",
  };
  for (std::size_t pos = code.find("ShardTeam"); pos != std::string::npos;
       pos = code.find("ShardTeam", pos + 1)) {
    if (!word_at(code, pos, "ShardTeam")) continue;
    std::size_t p = skip_ws(code, pos + std::string("ShardTeam").size());
    while (p < code.size() && (code[p] == '>' || code[p] == '&' || code[p] == '*'))
      p = skip_ws(code, p + 1);
    std::size_t e = p;
    while (e < code.size() && is_ident(code[e])) ++e;
    if (e == p) continue;
    const std::string name = code.substr(p, e - p);
    if (not_a_var.count(name) != 0 || (std::isdigit(static_cast<unsigned char>(name[0])) != 0))
      continue;
    syms.team_vars.insert(name);
  }
}

// Phase regions of one file: for every NOCSIM_PHASE marker, the innermost
// enclosing brace block. Brace pairs are precomputed with a simple stack
// (the code view has balanced braces: strings/comments are blanked).
std::vector<PhaseRegion> find_phase_regions(const std::string& file, const Stripped& s,
                                            std::vector<Finding>& findings) {
  const std::string& code = s.code;
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i] == '{') stack.push_back(i);
    if (code[i] == '}' && !stack.empty()) {
      pairs.emplace_back(stack.back(), i);
      stack.pop_back();
    }
  }

  std::vector<PhaseRegion> regions;
  for (std::size_t pos = code.find("NOCSIM_PHASE"); pos != std::string::npos;
       pos = code.find("NOCSIM_PHASE", pos + 1)) {
    if (!word_at(code, pos, "NOCSIM_PHASE")) continue;  // also skips _OWNED/_SELECT/...
    const std::size_t open = skip_ws(code, pos + std::string("NOCSIM_PHASE").size());
    const std::size_t close = open < code.size() && code[open] == '('
                                  ? match_delim(code, open, '(', ')')
                                  : std::string::npos;
    const std::string name =
        close == std::string::npos ? "" : quoted_arg(s.raw, open, close);
    if (name.empty()) {
      findings.push_back({file, line_of(s, pos), "bad-directive",
                          "NOCSIM_PHASE needs a string literal phase name"});
      continue;
    }
    // Innermost enclosing pair = the one with the largest opening offset.
    const std::pair<std::size_t, std::size_t>* best = nullptr;
    for (const auto& pr : pairs) {
      if (pr.first < pos && pos < pr.second && (best == nullptr || pr.first > best->first))
        best = &pr;
    }
    if (best == nullptr) {
      findings.push_back({file, line_of(s, pos), "bad-directive",
                          "NOCSIM_PHASE must appear inside a block (a phase body)"});
      continue;
    }
    regions.push_back({best->first + 1, best->second, name});
  }
  return regions;
}

struct RuleContext {
  const std::string& file;
  const Stripped& s;
  bool sim_state = false;  // src/{noc,sim,core,cpu,telemetry}, bench (or --sim-state)
  bool hot_path = false;   // src/noc, src/core (or --hot-path)
  bool timing_impl = false;  // src/telemetry/profiler.* — the sanctioned clock home
  const SymbolTable* syms = nullptr;
  const std::vector<PhaseRegion>* regions = nullptr;
  std::vector<Finding>& findings;

  void add(std::size_t offset, const std::string& rule, const std::string& message) const {
    findings.push_back({file, line_of(s, offset), rule, message});
  }
};

// --- unordered-member + unordered-iter ------------------------------------
void check_unordered(const RuleContext& ctx) {
  const std::string& code = ctx.s.code;
  std::vector<std::string> names;  // variables/aliases with unordered type
  for (std::size_t pos = code.find("unordered_"); pos != std::string::npos;
       pos = code.find("unordered_", pos + 1)) {
    if (pos > 0 && is_ident(code[pos - 1])) continue;
    static const char* kinds[] = {"unordered_multimap", "unordered_multiset", "unordered_map",
                                  "unordered_set"};
    std::size_t after = std::string::npos;
    for (const char* k : kinds) {
      if (word_at(code, pos, k)) {
        after = pos + std::string(k).size();
        break;
      }
    }
    if (after == std::string::npos) continue;
    std::size_t lt = skip_ws(code, after);
    if (lt >= code.size() || code[lt] != '<') continue;  // e.g. bare mention, no decl
    const std::size_t past = match_template_args(code, lt);
    if (past == std::string::npos) continue;

    if (ctx.sim_state) {
      ctx.add(pos, "unordered-member",
              "unordered container in sim state: iteration order is hash/allocation "
              "dependent; use std::map / index-keyed storage, or prove order cannot "
              "leak and suppress with allow(unordered-member)");
    }

    // Record the declared name (``unordered_map<...> name``) or the alias
    // name (``using Name = std::unordered_map<...>``) for the iteration rule.
    std::size_t name_begin = skip_ws(code, past);
    while (name_begin < code.size() && (code[name_begin] == '&' || code[name_begin] == '*'))
      name_begin = skip_ws(code, name_begin + 1);
    std::size_t name_end = name_begin;
    while (name_end < code.size() && is_ident(code[name_end])) ++name_end;
    if (name_end > name_begin) {
      names.push_back(code.substr(name_begin, name_end - name_begin));
    } else {
      // using Alias = std::unordered_map<...>;
      const std::size_t stmt = code.rfind(';', pos);
      const std::size_t from = stmt == std::string::npos ? 0 : stmt + 1;
      const std::size_t using_kw = code.find("using", from);
      const std::size_t eq = code.find('=', from);
      if (using_kw != std::string::npos && eq != std::string::npos && using_kw < eq && eq < pos) {
        std::size_t b = skip_ws(code, using_kw + 5);
        std::size_t e = b;
        while (e < code.size() && is_ident(code[e])) ++e;
        if (e > b) names.push_back(code.substr(b, e - b));
      }
    }
    pos = past - 1;
  }

  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  for (const std::string& name : names) {
    for (std::size_t pos = code.find(name); pos != std::string::npos;
         pos = code.find(name, pos + 1)) {
      if (!word_at(code, pos, name)) continue;
      const std::size_t after = skip_ws(code, pos + name.size());
      // `name.begin()` / `.cbegin()` / `.rbegin()` — iterator walk.
      if (after < code.size() && code[after] == '.') {
        const std::size_t call = skip_ws(code, after + 1);
        for (const char* it : {"begin", "cbegin", "rbegin", "crbegin"}) {
          if (word_at(code, call, it)) {
            ctx.add(pos, "unordered-iter",
                    "iterating unordered container '" + name +
                        "': visit order is nondeterministic; iterate a sorted copy "
                        "of the keys or switch to std::map");
          }
        }
      }
      // `for (... : name)` — range-for.
      const std::size_t stmt = code.find_last_of(";{}", pos);
      const std::size_t from = stmt == std::string::npos ? 0 : stmt + 1;
      const std::size_t colon = code.rfind(':', pos);
      if (colon != std::string::npos && colon > from && colon + 1 < code.size() &&
          code[colon + 1] != ':' && code[colon - 1] != ':' &&
          skip_ws(code, colon + 1) == pos) {
        const std::size_t for_kw = code.find("for", from);
        if (for_kw != std::string::npos && for_kw < colon && word_at(code, for_kw, "for")) {
          ctx.add(pos, "unordered-iter",
                  "range-for over unordered container '" + name +
                      "': visit order is nondeterministic; iterate a sorted copy of "
                      "the keys or switch to std::map");
        }
      }
    }
  }
}

// --- raw-entropy + wallclock ----------------------------------------------
void check_entropy_and_clocks(const RuleContext& ctx) {
  const std::string& code = ctx.s.code;
  struct Banned {
    const char* token;
    const char* rule;
    bool needs_call;  // must be followed by '('
    const char* message;
  };
  static const Banned banned[] = {
      {"rand", "raw-entropy", true, "rand() bypasses the seeded Rng; draw from nocsim::Rng"},
      {"srand", "raw-entropy", true, "srand() bypasses the seeded Rng; seed nocsim::Rng instead"},
      {"rand_r", "raw-entropy", true, "rand_r() bypasses the seeded Rng; draw from nocsim::Rng"},
      {"random_device", "raw-entropy", false,
       "std::random_device is nondeterministic; derive streams via Rng::fork"},
      {"mt19937", "raw-entropy", false,
       "std::mt19937 streams are not pinned cross-platform; use nocsim::Rng"},
      {"mt19937_64", "raw-entropy", false,
       "std::mt19937_64 streams are not pinned cross-platform; use nocsim::Rng"},
      {"default_random_engine", "raw-entropy", false,
       "std::default_random_engine is implementation-defined; use nocsim::Rng"},
      {"drand48", "raw-entropy", true, "drand48() bypasses the seeded Rng; use nocsim::Rng"},
      {"shuffle", "raw-entropy", false,
       "std::shuffle's use of the URBG is unspecified, so orders differ across "
       "standard libraries; use an Rng-driven Fisher-Yates (src/common/rng.hpp)"},
      {"random_shuffle", "raw-entropy", false,
       "std::random_shuffle draws from an unspecified source (removed in C++17); "
       "use an Rng-driven Fisher-Yates (src/common/rng.hpp)"},
      {"time", "wallclock", true,
       "time() reads the wall clock; simulated behaviour must depend only on (config, seed)"},
      {"clock", "wallclock", true,
       "clock() reads the wall clock; simulated behaviour must depend only on (config, seed)"},
  };
  for (const Banned& b : banned) {
    // The profiler is the one sanctioned wall-clock reader (see raw-timing).
    if (ctx.timing_impl && std::string(b.rule) == "wallclock") continue;
    const std::string tok = b.token;
    for (std::size_t pos = code.find(tok); pos != std::string::npos;
         pos = code.find(tok, pos + 1)) {
      if (!word_at(code, pos, tok)) continue;
      // Member access (`x.time(...)`) is not the libc symbol.
      if (pos > 0 && (code[pos - 1] == '.' || (pos > 1 && code[pos - 1] == '>' &&
                                               code[pos - 2] == '-'))) {
        continue;
      }
      if (b.needs_call) {
        const std::size_t after = skip_ws(code, pos + tok.size());
        if (after >= code.size() || code[after] != '(') continue;
      }
      ctx.add(pos, b.rule, b.message);
    }
  }
  // std::chrono::{steady,system,high_resolution,...}_clock::now()
  if (!ctx.timing_impl) {
    for (std::size_t pos = code.find("_clock"); pos != std::string::npos;
         pos = code.find("_clock", pos + 6)) {
      const std::size_t after = pos + 6;
      if (after < code.size() && is_ident(code[after])) continue;
      const std::size_t now = skip_ws(code, after);
      if (code.compare(now, 5, "::now") == 0) {
        ctx.add(pos, "wallclock",
                "chrono clock read: wall time must never influence simulated behaviour "
                "(timing *reports* must be suppressed with a reason)");
      }
    }
  }
}

// --- raw-timing ------------------------------------------------------------
// In sim-state code, ANY std::chrono mention — not just clock reads — is a
// smell: ad-hoc duration math next to simulated state invites wall time into
// results and scatters timing code the profiler already centralizes. The
// sanctioned home (src/telemetry/profiler.*) is exempt; everything else needs
// an explicit allow with a reason.
void check_raw_timing(const RuleContext& ctx) {
  if (!ctx.sim_state || ctx.timing_impl) return;
  const std::string& code = ctx.s.code;
  for (std::size_t pos = code.find("chrono"); pos != std::string::npos;
       pos = code.find("chrono", pos + 6)) {
    if (!word_at(code, pos, "chrono")) continue;
    ctx.add(pos, "raw-timing",
            "raw std::chrono in sim-state code: host timing belongs in "
            "PhaseProfiler (src/telemetry/profiler.hpp); measure via ProfScope, or "
            "suppress with allow(raw-timing) and a reason");
  }
}

// --- pointer-sort ----------------------------------------------------------
void check_pointer_sort(const RuleContext& ctx) {
  const std::string& code = ctx.s.code;
  static const char* algos[] = {"sort",        "stable_sort", "partial_sort", "nth_element",
                                "min_element", "max_element", "minmax_element"};
  for (const char* algo : algos) {
    const std::string tok = algo;
    for (std::size_t pos = code.find(tok); pos != std::string::npos;
         pos = code.find(tok, pos + 1)) {
      if (!word_at(code, pos, tok)) continue;
      const std::size_t open = skip_ws(code, pos + tok.size());
      if (open >= code.size() || code[open] != '(') continue;
      // Look for a comparator lambda within this call whose parameters are
      // both raw pointers: sorting on addresses is allocation-order
      // dependent and breaks run-to-run determinism.
      const std::size_t window_end = std::min(code.size(), open + 400);
      std::size_t lam = code.find("](", open);
      if (lam == std::string::npos || lam > window_end) continue;
      const std::size_t params_begin = lam + 2;
      const std::size_t params_end = code.find(')', params_begin);
      if (params_end == std::string::npos) continue;
      const std::string params = code.substr(params_begin, params_end - params_begin);
      std::stringstream list(params);
      std::string param;
      std::vector<std::string> pointer_names;
      int total = 0;
      while (std::getline(list, param, ',')) {
        ++total;
        if (param.find('*') == std::string::npos) continue;
        // Parameter name = trailing identifier.
        std::size_t e = param.find_last_not_of(" \t\n");
        if (e == std::string::npos) continue;
        std::size_t b = e;
        while (b > 0 && is_ident(param[b - 1])) --b;
        if (is_ident(param[e])) pointer_names.push_back(param.substr(b, e - b + 1));
      }
      if (total < 2 || static_cast<int>(pointer_names.size()) != total) continue;
      // Pointer params are fine when the body compares *through* them
      // (a->id < b->id); only a bare `a < b` orders by address. Scan the
      // lambda body for a relational operator applied to the bare names.
      const std::size_t body_begin = code.find('{', params_end);
      if (body_begin == std::string::npos) continue;
      const std::size_t body_end = code.find('}', body_begin);
      const std::string body = code.substr(
          body_begin, body_end == std::string::npos ? 200 : body_end - body_begin);
      bool bare_compare = false;
      for (const std::string& lhs : pointer_names) {
        for (std::size_t p = body.find(lhs); p != std::string::npos && !bare_compare;
             p = body.find(lhs, p + 1)) {
          const bool lb = p == 0 || !is_ident(body[p - 1]);
          std::size_t after = p + lhs.size();
          if (!lb || (after < body.size() && is_ident(body[after]))) continue;
          after = skip_ws(body, after);
          if (after >= body.size() || (body[after] != '<' && body[after] != '>')) continue;
          std::size_t rhs = after + 1;
          if (rhs < body.size() && body[rhs] == '=') ++rhs;
          rhs = skip_ws(body, rhs);
          for (const std::string& name : pointer_names) {
            if (name == lhs) continue;
            if (body.compare(rhs, name.size(), name) == 0 &&
                (rhs + name.size() >= body.size() || !is_ident(body[rhs + name.size()]))) {
              bare_compare = true;
            }
          }
        }
      }
      if (bare_compare) {
        ctx.add(pos, "pointer-sort",
                "comparator keyed on raw pointer values: ordering follows allocation "
                "addresses, which differ run to run; compare a stable id instead");
      }
    }
  }
}

// --- narrow-cast -----------------------------------------------------------
void check_narrow_cast(const RuleContext& ctx) {
  if (!ctx.sim_state) return;
  const std::string& code = ctx.s.code;
  static const char* narrow[] = {"int8_t",  "uint8_t", "int16_t", "uint16_t",
                                 "int32_t", "uint32_t", "short",  "char"};
  for (std::size_t pos = code.find('('); pos != std::string::npos;
       pos = code.find('(', pos + 1)) {
    std::size_t p = skip_ws(code, pos + 1);
    if (code.compare(p, 5, "std::") == 0) p = skip_ws(code, p + 5);
    std::size_t matched_end = std::string::npos;
    for (const char* t : narrow) {
      if (word_at(code, p, t)) {
        matched_end = p + std::string(t).size();
        break;
      }
    }
    if (matched_end == std::string::npos) continue;
    const std::size_t close = skip_ws(code, matched_end);
    if (close >= code.size() || code[close] != ')') continue;
    // `(uint16_t)expr` — C-style cast if followed by an operand. A ')' or
    // ',' or ';' next means this was a parameter list or type context.
    const std::size_t operand = skip_ws(code, close + 1);
    if (operand >= code.size()) continue;
    const char c = code[operand];
    if (!is_ident(c) && c != '(' && c != '*' && c != '-' && c != '+') continue;
    // sizeof(uint16_t) etc. — look back at the identifier preceding '('.
    std::size_t back = pos;
    while (back > 0 && std::isspace(static_cast<unsigned char>(code[back - 1])) != 0) --back;
    std::size_t id_begin = back;
    while (id_begin > 0 && is_ident(code[id_begin - 1])) --id_begin;
    const std::string prev_word = code.substr(id_begin, back - id_begin);
    if (prev_word == "sizeof" || prev_word == "alignof" || prev_word == "decltype" ||
        prev_word == "static_cast" || prev_word == "reinterpret_cast") {
      continue;
    }
    // A NOCSIM_CHECK on the same line is taken as the bounds guard.
    const int line = line_of(ctx.s, pos);
    const std::size_t line_begin = ctx.s.line_offset[static_cast<std::size_t>(line) - 1];
    const std::size_t line_end = code.find('\n', line_begin);
    const std::string line_text = code.substr(line_begin, line_end - line_begin);
    if (line_text.find("NOCSIM_CHECK") != std::string::npos ||
        line_text.find("NOCSIM_DCHECK") != std::string::npos) {
      continue;
    }
    ctx.add(pos, "narrow-cast",
            "C-style narrowing cast in sim state silently truncates; use static_cast "
            "with a NOCSIM_CHECK bounds guard");
  }
}

// --- iostream-in-hot-path --------------------------------------------------
void check_iostream_hot_path(const RuleContext& ctx) {
  if (!ctx.hot_path) return;
  const std::string& code = ctx.s.code;
  // The router/core per-cycle loop must never touch a stream: one formatted
  // write per flit turns a ~10 Mcycle/s simulation into console I/O. All
  // observability flows through the FlitEventSink / TelemetryHub seams
  // (src/telemetry), which buffer in memory and write at end of run.
  for (const char* stream : {"cout", "cerr", "clog"}) {
    const std::string tok = stream;
    for (std::size_t pos = code.find(tok); pos != std::string::npos;
         pos = code.find(tok, pos + 1)) {
      if (!word_at(code, pos, tok)) continue;
      // Member access (`x.cout`) is not the std stream.
      if (pos > 0 && (code[pos - 1] == '.' ||
                      (pos > 1 && code[pos - 1] == '>' && code[pos - 2] == '-'))) {
        continue;
      }
      ctx.add(pos, "iostream-in-hot-path",
              "std::" + tok +
                  " in per-cycle code: stream I/O in the router/core loop wrecks "
                  "throughput; buffer through a telemetry sink (src/telemetry) and "
                  "write after the run");
    }
  }
}

// --- mutable-global --------------------------------------------------------
void check_mutable_global(const RuleContext& ctx) {
  if (!ctx.sim_state) return;
  const std::string& code = ctx.s.code;
  // Coarse scope tracking: classify each '{' by the statement text before it.
  std::vector<char> stack;  // 'n' namespace, 't' type, 'b' block/function
  std::size_t stmt_begin = 0;
  auto contains_word = [](const std::string& chunk, const char* w) {
    const std::string word = w;
    for (std::size_t p = chunk.find(word); p != std::string::npos; p = chunk.find(word, p + 1)) {
      const bool l = p == 0 || !is_ident(chunk[p - 1]);
      const bool r = p + word.size() >= chunk.size() || !is_ident(chunk[p + word.size()]);
      if (l && r) return true;
    }
    return false;
  };
  for (std::size_t i = 0; i < code.size(); ++i) {
    const char c = code[i];
    if (c == '{') {
      const std::string chunk = code.substr(stmt_begin, i - stmt_begin);
      char kind = 'b';
      if (contains_word(chunk, "namespace")) {
        kind = 'n';
      } else if (chunk.find('=') == std::string::npos &&
                 (contains_word(chunk, "class") || contains_word(chunk, "struct") ||
                  contains_word(chunk, "union") || contains_word(chunk, "enum"))) {
        kind = 't';
      }
      stack.push_back(kind);
      stmt_begin = i + 1;
    } else if (c == '}') {
      if (!stack.empty()) stack.pop_back();
      stmt_begin = i + 1;
    } else if (c == ';') {
      const bool ns_scope =
          std::all_of(stack.begin(), stack.end(), [](char k) { return k == 'n'; });
      if (ns_scope) {
        const std::string chunk = trim(code.substr(stmt_begin, i - stmt_begin));
        bool skip = chunk.empty();
        for (const char* kw : {"const", "constexpr", "consteval", "constinit", "using",
                               "typedef", "extern", "template", "friend", "static_assert",
                               "namespace", "class", "struct", "union", "enum", "return",
                               "operator", "concept", "requires"}) {
          if (contains_word(chunk, kw)) skip = true;
        }
        if (!skip) {
          // Function declaration/definition if '(' appears before any '='.
          const std::size_t paren = chunk.find('(');
          const std::size_t eq = chunk.find('=');
          if (paren != std::string::npos && (eq == std::string::npos || paren < eq)) skip = true;
          // Need at least "type name": two identifiers.
          if (!skip) {
            int idents = 0;
            bool in_id = false;
            for (std::size_t k = 0; k < (eq == std::string::npos ? chunk.size() : eq); ++k) {
              const bool id = is_ident(chunk[k]);
              if (id && !in_id) ++idents;
              in_id = id;
            }
            if (idents < 2) skip = true;
          }
          if (!skip) {
            ctx.add(stmt_begin + (code[stmt_begin] == '\n' ? 1 : 0), "mutable-global",
                    "mutable namespace-scope state in sim code survives across runs and "
                    "threads; make it const/constexpr or move it into the Simulator");
          }
        }
      }
      stmt_begin = i + 1;
    }
  }
}

// --- shard-safety rules (pass 2, table-driven) -----------------------------

// True when the occurrence at `pos` is accessed through another object
// (`x.name` / `p->name`); `this->name` still counts as a self access.
bool is_foreign_member_access(const std::string& code, std::size_t pos) {
  const std::size_t prev = prev_nonspace(code, pos);
  if (prev == std::string::npos) return false;
  if (code[prev] == '.') return true;
  if (code[prev] == '>' && prev > 0 && code[prev - 1] == '-') {
    std::size_t arrow = prev - 1;
    return ident_ending_before(code, arrow) != "this";
  }
  return false;
}

// Mutating member functions: a call to one of these through an annotated
// name is treated as a write. Atomic read-modify-writes count too: every
// bitmap word belongs to one tile, so a shared word updated by several
// tiles is cross-tile state like any other (see DESIGN.md).
const std::set<std::string>& mutator_methods() {
  static const std::set<std::string> m = {
      "push_back", "emplace_back", "push_front", "emplace_front", "pop_back",
      "pop_front", "clear",        "erase",      "insert",        "emplace",
      "assign",    "resize",       "reserve",    "shrink_to_fit", "fill",
      "swap",      "store",        "exchange",   "reset",         "push",
      "pop",       "fetch_or",     "fetch_and",  "fetch_xor",     "fetch_add",
      "fetch_sub",
  };
  return m;
}

// True when the '(' at `open` is the argument list of a std::atomic_ref<T>
// construction: `std::atomic_ref<T>(x).fetch_or(...)` writes x.
bool opens_atomic_ref(const std::string& code, std::size_t open) {
  const std::size_t gt = prev_nonspace(code, open);
  if (gt == std::string::npos || code[gt] != '>') return false;
  const std::size_t lt = match_delim_backward(code, gt, '<', '>');
  return lt != std::string::npos && ident_ending_before(code, lt) == "atomic_ref";
}

// Classify the expression starting at an identifier occurrence: walk the
// postfix chain (indexing, member access) and decide whether it ends in a
// mutation. Returns a non-empty description for writes.
std::string classify_write(const std::string& code, std::size_t pos, const std::string& name) {
  // Prefix ++x_ / --x_.
  const std::size_t prev = prev_nonspace(code, pos);
  if (prev != std::string::npos && prev > 0 &&
      ((code[prev] == '+' && code[prev - 1] == '+') ||
       (code[prev] == '-' && code[prev - 1] == '-'))) {
    return "increment of '" + name + "'";
  }
  std::size_t p = pos + name.size();
  // Inside std::atomic_ref<T>( ... ): the chain continues past the ')'.
  bool in_atomic_ref = prev != std::string::npos && code[prev] == '(' &&
                       opens_atomic_ref(code, prev);
  for (;;) {
    p = skip_ws(code, p);
    if (p >= code.size()) return "";
    if (in_atomic_ref && code[p] == ')') {
      in_atomic_ref = false;
      ++p;
      continue;
    }
    if (code[p] == '[') {
      const std::size_t close = match_delim(code, p, '[', ']');
      if (close == std::string::npos) return "";
      p = close + 1;
      continue;
    }
    const bool dot = code[p] == '.';
    const bool arrow = code[p] == '-' && p + 1 < code.size() && code[p + 1] == '>';
    if (dot || arrow) {
      std::size_t q = skip_ws(code, p + (dot ? 1 : 2));
      std::size_t e = q;
      while (e < code.size() && is_ident(code[e])) ++e;
      if (e == q) return "";
      const std::string member = code.substr(q, e - q);
      const std::size_t after = skip_ws(code, e);
      if (after < code.size() && code[after] == '(') {
        if (mutator_methods().count(member) != 0) {
          return "call to '" + member + "' on '" + name + "'";
        }
        return "";  // non-mutating call ends the chain (getter, size(), ...)
      }
      p = e;  // field access — keep walking
      continue;
    }
    break;
  }
  // Terminal operator after the postfix chain.
  const char c = code[p];
  const char n = p + 1 < code.size() ? code[p + 1] : '\0';
  const char n2 = p + 2 < code.size() ? code[p + 2] : '\0';
  if (c == '=' && n != '=') return "assignment to '" + name + "'";
  if ((c == '+' || c == '-' || c == '*' || c == '/' || c == '%' || c == '&' || c == '|' ||
       c == '^') &&
      n == '=') {
    return "compound assignment to '" + name + "'";
  }
  if (((c == '<' && n == '<') || (c == '>' && n == '>')) && n2 == '=') {
    return "compound assignment to '" + name + "'";
  }
  if ((c == '+' && n == '+') || (c == '-' && n == '-')) return "increment of '" + name + "'";
  return "";
}

// shard-unsafe-write: inside a phase region, a write to shared-read-only
// state, to phase-owned state from the wrong phase, or to a
// member-convention name (`foo_`) the symbol table does not classify.
// Tile-local and halo-only writes are legal here — their *index* discipline
// is enforced by cross-tile-index and the runtime shadow checker.
void check_shard_unsafe_write(const RuleContext& ctx) {
  const std::string& code = ctx.s.code;
  for (const PhaseRegion& region : *ctx.regions) {
    for (std::size_t i = region.begin; i < region.end;) {
      if (!is_ident(code[i])) {
        ++i;
        continue;
      }
      std::size_t e = i;
      while (e < region.end && is_ident(code[e])) ++e;
      const std::string name = code.substr(i, e - i);
      const std::size_t begin = i;
      i = e;
      if (std::isdigit(static_cast<unsigned char>(name[0])) != 0) continue;
      if (is_foreign_member_access(code, begin)) continue;

      auto ann = ctx.syms->annotated.find(name);
      auto owned = ctx.syms->phase_owner.find(name);
      const bool member_convention = name.size() > 1 && name.back() == '_';
      if (ann == ctx.syms->annotated.end() && owned == ctx.syms->phase_owner.end() &&
          !member_convention) {
        continue;
      }
      const std::string write = classify_write(code, begin, name);
      if (write.empty()) continue;

      if (ann != ctx.syms->annotated.end()) {
        if (ann->second == "shared-readonly") {
          ctx.add(begin, "shard-unsafe-write",
                  write + " inside phase '" + region.name +
                      "': the symbol is NOCSIM_SHARED_READONLY — only serial sections "
                      "may write it; route cross-tile effects through a halo outbox");
        }
        continue;  // tile-local / halo-only writes are the sanctioned paths
      }
      if (owned != ctx.syms->phase_owner.end()) {
        if (owned->second != region.name) {
          ctx.add(begin, "shard-unsafe-write",
                  write + " inside phase '" + region.name + "': the symbol is owned by phase '" +
                      owned->second + "' (NOCSIM_PHASE_OWNED)");
        }
        continue;
      }
      ctx.add(begin, "shard-unsafe-write",
              write + " inside phase '" + region.name +
                  "': the member is not classified; annotate it NOCSIM_TILE_LOCAL / "
                  "NOCSIM_SHARED_READONLY / NOCSIM_HALO_ONLY so ownership is checkable");
    }
  }
}

// unannotated-phase: a ShardTeam::run call whose body lambda carries no
// NOCSIM_PHASE declaration. Phase names are what attribute writes (both in
// the static table and the runtime shadow checker), so an anonymous phase
// is unauditable.
void check_unannotated_phase(const RuleContext& ctx) {
  const std::string& code = ctx.s.code;
  for (std::size_t pos = code.find("run"); pos != std::string::npos;
       pos = code.find("run", pos + 1)) {
    if (!word_at(code, pos, "run")) continue;
    const std::size_t prev = prev_nonspace(code, pos);
    if (prev == std::string::npos) continue;
    std::size_t obj_end;
    if (code[prev] == '.') {
      obj_end = prev;
    } else if (code[prev] == '>' && prev > 0 && code[prev - 1] == '-') {
      obj_end = prev - 1;
    } else {
      continue;
    }
    const std::string obj = ident_ending_before(code, obj_end);
    if (obj.empty() || ctx.syms->team_vars.count(obj) == 0) continue;
    const std::size_t open = skip_ws(code, pos + 3);
    if (open >= code.size() || code[open] != '(') continue;
    const std::size_t close = match_delim(code, open, '(', ')');
    if (close == std::string::npos) continue;
    const std::size_t body_open = code.find('{', open);
    if (body_open == std::string::npos || body_open > close) {
      ctx.add(pos, "unannotated-phase",
              "ShardTeam::run('" + obj + "') without a visible phase body: pass a "
              "lambda and declare it with NOCSIM_PHASE(\"name\", plan, tile)");
      continue;
    }
    const std::size_t body_close = match_delim(code, body_open, '{', '}');
    const std::size_t limit = body_close == std::string::npos ? close : body_close;
    bool has_phase = false;
    for (std::size_t p = code.find("NOCSIM_PHASE", body_open);
         p != std::string::npos && p < limit; p = code.find("NOCSIM_PHASE", p + 1)) {
      if (word_at(code, p, "NOCSIM_PHASE")) {
        has_phase = true;
        break;
      }
    }
    if (!has_phase) {
      ctx.add(pos, "unannotated-phase",
              "ShardTeam::run('" + obj + "') body has no NOCSIM_PHASE declaration: "
              "writes inside it cannot be attributed to a phase; add "
              "NOCSIM_PHASE(\"name\", plan, tile) at the top of the lambda");
    }
  }
}

// cross-tile-index: inside a phase region, a NOCSIM_TILE_LOCAL array
// indexed by a neighbor-derived node id (directly, or via a local assigned
// from neighbor()/nbr) with no ownership guard nearby. A neighbor of an
// owned node may belong to the next tile; per-node writes to it must go
// through a halo outbox after an owns()/tile_of() test.
void check_cross_tile_index(const RuleContext& ctx) {
  const std::string& code = ctx.s.code;
  auto mentions_neighbor = [&](const std::string& text) {
    for (const char* w : {"neighbor", "neighbors", "nbr", "nbrs"}) {
      const std::string word = w;
      for (std::size_t p = text.find(word); p != std::string::npos;
           p = text.find(word, p + 1)) {
        const bool l = p == 0 || !is_ident(text[p - 1]);
        const bool r = p + word.size() >= text.size() || !is_ident(text[p + word.size()]);
        if (l && r) return true;
      }
    }
    return false;
  };
  for (const PhaseRegion& region : *ctx.regions) {
    for (const auto& [name, kind] : ctx.syms->annotated) {
      if (kind != "tile-local") continue;
      for (std::size_t pos = code.find(name, region.begin);
           pos != std::string::npos && pos < region.end; pos = code.find(name, pos + 1)) {
        if (!word_at(code, pos, name)) continue;
        if (is_foreign_member_access(code, pos)) continue;
        const std::size_t open = skip_ws(code, pos + name.size());
        if (open >= code.size() || code[open] != '[') continue;
        const std::size_t close = match_delim(code, open, '[', ']');
        if (close == std::string::npos || close > region.end) continue;
        const std::string idx = trim(code.substr(open + 1, close - open - 1));

        bool tainted = mentions_neighbor(idx);
        if (!tainted && !idx.empty() &&
            std::all_of(idx.begin(), idx.end(), [](char ch) { return is_ident(ch); })) {
          // A plain local index: tainted if it was assigned from neighbor()
          // earlier in this region.
          for (std::size_t p = code.find(idx, region.begin);
               p != std::string::npos && p < pos; p = code.find(idx, p + 1)) {
            if (!word_at(code, p, idx)) continue;
            const std::size_t eq = skip_ws(code, p + idx.size());
            if (eq >= code.size() || code[eq] != '=' ||
                (eq + 1 < code.size() && code[eq + 1] == '=')) {
              continue;
            }
            const std::size_t semi = code.find(';', eq);
            if (semi == std::string::npos) continue;
            if (mentions_neighbor(code.substr(eq + 1, semi - eq - 1))) {
              tainted = true;
              break;
            }
          }
        }
        if (!tainted) continue;

        // Guard window: the preceding few lines inside the region. An
        // owns()/tile_of() test or a halo-outbox mention means the code is
        // doing exactly the sanctioned dance.
        const int line = line_of(ctx.s, pos);
        const std::size_t guard_line = static_cast<std::size_t>(std::max(1, line - 3)) - 1;
        const std::size_t guard_begin =
            std::max(region.begin, ctx.s.line_offset[guard_line]);
        const std::size_t guard_end = std::min(region.end, close);
        const std::string guard = code.substr(guard_begin, guard_end - guard_begin);
        bool guarded = guard.find("owns(") != std::string::npos ||
                       guard.find("tile_of(") != std::string::npos;
        if (!guarded) {
          for (const auto& [hname, hkind] : ctx.syms->annotated) {
            if (hkind == "halo-only" && guard.find(hname) != std::string::npos) {
              guarded = true;
              break;
            }
          }
        }
        if (guarded) continue;
        ctx.add(pos, "cross-tile-index",
                "'" + name + "' (NOCSIM_TILE_LOCAL) indexed by the neighbor-derived '" +
                    idx + "' with no ownership guard: a neighbor may live on another "
                    "tile; test plan->owns()/tile_of() and stage the write in a "
                    "NOCSIM_HALO_ONLY outbox");
      }
    }
  }
}

// alloc-in-phase: phases run once per simulated cycle; an allocation there
// is both a throughput bug and a determinism hazard (allocator state is
// shared across tiles). Buffers must be pre-sized in the constructor or
// shard_begin; amortized push_back into pre-reserved tile-local/halo
// containers is the one allowed growth.
void check_alloc_in_phase(const RuleContext& ctx) {
  const std::string& code = ctx.s.code;
  for (const PhaseRegion& region : *ctx.regions) {
    auto in_region_find = [&](const std::string& tok, std::size_t from) {
      const std::size_t p = code.find(tok, from);
      return p != std::string::npos && p < region.end ? p : std::string::npos;
    };
    // Allocation keywords and functions.
    struct AllocTok {
      const char* token;
      bool needs_call;
    };
    static const AllocTok toks[] = {
        {"new", false},          {"malloc", true},      {"calloc", true},
        {"realloc", true},       {"aligned_alloc", true}, {"make_unique", false},
        {"make_shared", false},
    };
    for (const AllocTok& t : toks) {
      for (std::size_t pos = in_region_find(t.token, region.begin); pos != std::string::npos;
           pos = in_region_find(t.token, pos + 1)) {
        if (!word_at(code, pos, t.token)) continue;
        if (is_foreign_member_access(code, pos)) continue;
        if (ident_ending_before(code, pos) == "operator") continue;
        if (t.needs_call) {
          const std::size_t after = skip_ws(code, pos + std::string(t.token).size());
          if (after >= code.size() || code[after] != '(') continue;
        }
        ctx.add(pos, "alloc-in-phase",
                std::string("'") + t.token + "' inside phase '" + region.name +
                    "': phases run every simulated cycle and must be steady-state "
                    "allocation-free; pre-size in the constructor or shard_begin");
      }
    }
    // Capacity-changing member calls on any object.
    for (const char* grow : {"resize", "reserve", "shrink_to_fit"}) {
      for (std::size_t pos = in_region_find(grow, region.begin); pos != std::string::npos;
           pos = in_region_find(grow, pos + 1)) {
        if (!word_at(code, pos, grow)) continue;
        const std::size_t prev = prev_nonspace(code, pos);
        if (prev == std::string::npos) continue;
        const bool member = code[prev] == '.' ||
                            (code[prev] == '>' && prev > 0 && code[prev - 1] == '-');
        if (!member) continue;
        const std::size_t after = skip_ws(code, pos + std::string(grow).size());
        if (after >= code.size() || code[after] != '(') continue;
        ctx.add(pos, "alloc-in-phase",
                std::string("'") + grow + "' inside phase '" + region.name +
                    "': phases run every simulated cycle and must be steady-state "
                    "allocation-free; pre-size in the constructor or shard_begin");
      }
    }
  }
}

// flit-payload-in-hot-path: a cold FlitPayload field read inside a
// NOCSIM_PHASE body. The hot/cold flit split (src/noc/flit.hpp) exists so
// the per-cycle arbitration loops stream compact FlitHeader lanes; touching
// addr/enqueue_cycle/hops/deflections/packet_len/kind there drags the cold
// lane back into the loop's working set. The sanctioned pattern is reading
// through a payload lane (an identifier containing "pay"), which is how the
// single per-move payload copy is written — anything else either belongs at
// injection/ejection or needs an allow() with a reason.
void check_flit_payload_in_phase(const RuleContext& ctx) {
  const std::string& code = ctx.s.code;
  static const char* cold_fields[] = {"addr",        "enqueue_cycle", "hops",
                                      "deflections", "packet_len",    "kind"};
  for (const PhaseRegion& region : *ctx.regions) {
    for (const char* f : cold_fields) {
      const std::string field = f;
      for (std::size_t pos = code.find(field, region.begin);
           pos != std::string::npos && pos < region.end; pos = code.find(field, pos + 1)) {
        if (!word_at(code, pos, field)) continue;
        // Member access only: `.field` or `->field`.
        const std::size_t prev = prev_nonspace(code, pos);
        if (prev == std::string::npos) continue;
        std::size_t chain_end;
        if (code[prev] == '.') {
          chain_end = prev;
        } else if (code[prev] == '>' && prev > 0 && code[prev - 1] == '-') {
          chain_end = prev - 1;
        } else {
          continue;
        }
        // `x.kind(...)` is a method call, not the cold field.
        const std::size_t after = skip_ws(code, pos + field.size());
        if (after < code.size() && code[after] == '(') continue;
        // Walk the postfix chain backwards (`pay_[slot].addr`, `w->hops`):
        // any link through a payload lane is the sanctioned single move.
        bool through_payload = false;
        std::size_t p = chain_end;
        for (;;) {
          const std::size_t q = prev_nonspace(code, p);
          if (q == std::string::npos) break;
          if (code[q] == ']') {
            const std::size_t open = match_delim_backward(code, q, '[', ']');
            if (open == std::string::npos) break;
            p = open;
            continue;
          }
          if (!is_ident(code[q])) break;
          std::size_t b = q;
          while (b > 0 && is_ident(code[b - 1])) --b;
          const std::string link = code.substr(b, q - b + 1);
          if (link.find("pay") != std::string::npos) {
            through_payload = true;
            break;
          }
          const std::size_t before = prev_nonspace(code, b);
          if (before != std::string::npos && code[before] == '.') {
            p = before;
            continue;
          }
          if (before != std::string::npos && code[before] == '>' && before > 0 &&
              code[before - 1] == '-') {
            p = before - 1;
            continue;
          }
          break;
        }
        if (through_payload) continue;
        ctx.add(pos, "flit-payload-in-hot-path",
                "cold payload field '." + field + "' read inside phase '" + region.name +
                    "': per-cycle arbitration streams FlitHeader lanes only; move the "
                    "access to injection/ejection, or read it through the payload lane "
                    "at the single point where the flit moves");
      }
    }
  }
}

// lock-in-hot-path: blocking synchronization in per-cycle code (hot-path
// files) or inside any phase body. The sharded loop's only sanctioned
// synchronization is the spin barrier between phases and halo outboxes;
// a lock inside a phase serializes tiles at best and deadlocks the barrier
// protocol at worst.
void check_lock_in_hot_path(const RuleContext& ctx) {
  const std::string& code = ctx.s.code;
  static const char* locky[] = {
      "mutex",          "timed_mutex",     "recursive_mutex", "shared_mutex",
      "lock_guard",     "unique_lock",     "scoped_lock",     "shared_lock",
      "condition_variable", "condition_variable_any", "pthread_mutex_t",
      "pthread_mutex_lock", "pthread_rwlock_t", "pthread_spin_lock",
  };
  auto in_phase_region = [&](std::size_t pos) -> const PhaseRegion* {
    const PhaseRegion* best = nullptr;
    for (const PhaseRegion& r : *ctx.regions) {
      if (r.begin <= pos && pos < r.end && (best == nullptr || r.begin > best->begin)) best = &r;
    }
    return best;
  };
  for (const char* t : locky) {
    const std::string tok = t;
    for (std::size_t pos = code.find(tok); pos != std::string::npos;
         pos = code.find(tok, pos + 1)) {
      if (!word_at(code, pos, tok)) continue;
      if (is_foreign_member_access(code, pos)) continue;
      const PhaseRegion* region = in_phase_region(pos);
      if (!ctx.hot_path && region == nullptr) continue;
      const std::string where =
          region != nullptr ? "phase '" + region->name + "'" : "per-cycle code";
      ctx.add(pos, "lock-in-hot-path",
              "'" + tok + "' in " + where +
                  ": the sharded loop synchronizes via spin barriers and halo outboxes "
                  "only; a lock here serializes tiles and can deadlock the phase "
                  "protocol");
    }
  }
}

// ---------------------------------------------------------------------------
bool path_is_sim_state(const std::string& generic_path) {
  for (const char* dir :
       {"src/noc/", "src/sim/", "src/core/", "src/cpu/", "src/telemetry/", "bench/"}) {
    if (generic_path.find(dir) != std::string::npos) return true;
  }
  return false;
}

// The per-cycle simulation kernel: router pipelines and core models. The
// sim/telemetry layers may stream (end-of-run export, progress reporting);
// these two may not.
bool path_is_hot_path(const std::string& generic_path) {
  for (const char* dir : {"src/noc/", "src/core/"}) {
    if (generic_path.find(dir) != std::string::npos) return true;
  }
  return false;
}

// rng.hpp is the one sanctioned randomness implementation; it may mention
// banned identifiers in its own implementation and documentation.
bool path_is_entropy_impl(const std::string& generic_path) {
  return generic_path.find("src/common/rng.hpp") != std::string::npos;
}

// profiler.{hpp,cpp} is the one sanctioned host-timing implementation (the
// raw-timing rule's counterpart to rng.hpp): it may read chrono clocks.
bool path_is_profiler_impl(const std::string& generic_path) {
  return generic_path.find("src/telemetry/profiler.") != std::string::npos;
}

// Loaded state for one input file, shared by both passes.
struct FileData {
  fs::path path;
  std::string display;
  Stripped s;
  std::map<int, Allow> allows;
  std::vector<Finding> findings;  // pre-suppression
  bool sim_state = false;
  bool hot_path = false;
};

void analyze_file(FileData& fd, const SymbolTable& syms) {
  std::vector<PhaseRegion> regions = find_phase_regions(fd.display, fd.s, fd.findings);
  RuleContext ctx{fd.display, fd.s,      fd.sim_state, fd.hot_path,
                  path_is_profiler_impl(fd.display),
                  &syms,      &regions,  fd.findings};
  check_unordered(ctx);
  if (!path_is_entropy_impl(fd.display)) check_entropy_and_clocks(ctx);
  check_raw_timing(ctx);
  check_pointer_sort(ctx);
  check_narrow_cast(ctx);
  check_iostream_hot_path(ctx);
  check_mutable_global(ctx);
  check_shard_unsafe_write(ctx);
  check_unannotated_phase(ctx);
  check_cross_tile_index(ctx);
  check_alloc_in_phase(ctx);
  check_lock_in_hot_path(ctx);
  check_flit_payload_in_phase(ctx);
}

// Apply suppressions: an allow covers its own line and the next line.
void apply_suppressions(const FileData& fd, std::vector<Finding>& out) {
  for (const Finding& f : fd.findings) {
    if (f.rule != "bad-directive") {
      auto covered = [&](int line) {
        auto it = fd.allows.find(line);
        return it != fd.allows.end() && it->second.rules.count(f.rule) != 0;
      };
      if (covered(f.line) || covered(f.line - 1)) continue;
    }
    out.push_back(f);
  }
}

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc" || ext == ".cxx";
}

void usage() {
  std::fprintf(stderr,
               "usage: nocsim_lint [--sim-state] [--hot-path] [--list-rules] <file-or-dir>...\n"
               "  --sim-state   treat all inputs as sim-state code (fixture testing)\n"
               "  --hot-path    treat all inputs as per-cycle code (fixture testing)\n"
               "  --list-rules  print rule names and exit\n"
               "exit status: 0 clean, 1 findings, 2 usage/IO error\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool force_sim_state = false;
  bool force_hot_path = false;
  std::vector<fs::path> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--sim-state") {
      force_sim_state = true;
    } else if (arg == "--hot-path") {
      force_hot_path = true;
    } else if (arg == "--list-rules") {
      for (const std::string& r : known_rules()) std::printf("%s\n", r.c_str());
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      usage();
      return 2;
    } else {
      inputs.emplace_back(arg);
    }
  }
  if (inputs.empty()) {
    usage();
    return 2;
  }

  std::vector<fs::path> files;
  for (const fs::path& p : inputs) {
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(p, ec)) {
        if (entry.is_regular_file() && lintable(entry.path())) files.push_back(entry.path());
      }
    } else if (fs::is_regular_file(p, ec)) {
      files.push_back(p);
    } else {
      std::fprintf(stderr, "nocsim-lint: no such file or directory: %s\n", p.string().c_str());
      return 2;
    }
  }
  std::sort(files.begin(), files.end());

  // Pass 1: load every file, parse directives, build the cross-file symbol
  // table. Pass 2: run the rules with the completed table, so annotations
  // in one translation unit govern phase bodies in another.
  std::vector<FileData> data;
  data.reserve(files.size());
  SymbolTable syms;
  for (const fs::path& f : files) {
    std::ifstream in(f, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "nocsim-lint: cannot read %s\n", f.string().c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    FileData fd;
    fd.path = f;
    fd.display = f.generic_string();
    fd.s = strip(buf.str());
    fd.allows = parse_directives(fd.s, fd.display, fd.findings);
    fd.sim_state = force_sim_state || path_is_sim_state(fd.display);
    fd.hot_path = force_hot_path || path_is_hot_path(fd.display);
    collect_symbols(fd.display, fd.s, syms, fd.findings);
    data.push_back(std::move(fd));
  }

  std::vector<Finding> findings;
  for (FileData& fd : data) {
    analyze_file(fd, syms);
    apply_suppressions(fd, findings);
  }

  for (const Finding& f : findings) {
    std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(), f.message.c_str());
  }
  std::printf("nocsim-lint: %zu file(s), %zu finding(s)\n", files.size(), findings.size());
  return findings.empty() ? 0 : 1;
}
