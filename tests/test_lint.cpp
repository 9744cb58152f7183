// Tests for tools/nocsim_lint: each fixture under tests/lint_fixtures/ must
// trigger exactly its rule, the clean/suppressed fixtures must pass, and the
// allow(...) directive grammar must be enforced. The linter is part of the
// tier-1 gate, so its own behaviour is pinned here the same way the
// simulator's is.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

namespace {

#ifndef NOCSIM_LINT_BIN
#error "NOCSIM_LINT_BIN must be defined by the build"
#endif
#ifndef NOCSIM_LINT_FIXTURE_DIR
#error "NOCSIM_LINT_FIXTURE_DIR must be defined by the build"
#endif

struct LintRun {
  int exit_code = -1;
  std::string output;
};

/// Runs the lint binary with raw arguments and captures stdout+stderr and
/// the exit status.
LintRun run_lint_cmd(const std::string& args) {
  const std::string cmd = std::string(NOCSIM_LINT_BIN) + " " + args + " 2>&1";
  LintRun run;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  std::array<char, 4096> buf{};
  std::size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) run.output.append(buf.data(), n);
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

/// Runs the lint binary on a set of fixtures in one invocation (one shared
/// symbol table — the cross-TU path).
LintRun run_lint_files(const std::vector<std::string>& fixtures, bool sim_state = true,
                       bool hot_path = false) {
  std::string args = std::string(sim_state ? "--sim-state " : "") + (hot_path ? "--hot-path " : "");
  for (const std::string& f : fixtures) args += NOCSIM_LINT_FIXTURE_DIR "/" + f + " ";
  return run_lint_cmd(args);
}

/// Runs the lint binary on one fixture (as sim-state code).
LintRun run_lint(const std::string& fixture, bool sim_state = true, bool hot_path = false) {
  return run_lint_files({fixture}, sim_state, hot_path);
}

int count_rule(const std::string& output, const std::string& rule) {
  const std::string tag = "[" + rule + "]";
  int count = 0;
  for (std::size_t p = output.find(tag); p != std::string::npos; p = output.find(tag, p + 1))
    ++count;
  return count;
}

TEST(Lint, RangeForAndIteratorOverUnorderedContainersTrigger) {
  const LintRun run = run_lint("trigger_unordered_iter.cpp", /*sim_state=*/false);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(count_rule(run.output, "unordered-iter"), 2) << run.output;
}

TEST(Lint, UnorderedMemberInSimStateTriggers) {
  const LintRun run = run_lint("trigger_unordered_member.cpp");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(count_rule(run.output, "unordered-member"), 1) << run.output;
}

TEST(Lint, UnorderedMemberOutsideSimStateIsAllowed) {
  // The declaration rule is scoped to sim-state code; elsewhere only
  // *iteration* is a hazard.
  const LintRun run = run_lint("trigger_unordered_member.cpp", /*sim_state=*/false);
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(Lint, RawEntropySourcesTrigger) {
  const LintRun run = run_lint("trigger_raw_entropy.cpp", /*sim_state=*/false);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(count_rule(run.output, "raw-entropy"), 3) << run.output;
}

TEST(Lint, WallClockReadsTrigger) {
  const LintRun run = run_lint("trigger_wallclock.cpp", /*sim_state=*/false);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // time(nullptr) + two chrono ::now() reads.
  EXPECT_EQ(count_rule(run.output, "wallclock"), 3) << run.output;
}

TEST(Lint, RawTimingInSimStateTriggers) {
  const LintRun run = run_lint("trigger_raw_timing.cpp");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // Four chrono mentions: the duration member, the parameter type, and the
  // duration_cast's two type arguments. None are clock reads, so the
  // wallclock rule must stay silent — the rules are independent.
  EXPECT_EQ(count_rule(run.output, "raw-timing"), 4) << run.output;
  EXPECT_EQ(count_rule(run.output, "wallclock"), 0) << run.output;
}

TEST(Lint, RawTimingOutsideSimStateIsAllowed) {
  // Host-side tools and tests may use chrono freely; the rule guards the
  // simulation layers only.
  const LintRun run = run_lint("trigger_raw_timing.cpp", /*sim_state=*/false);
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(Lint, PointerKeyedComparatorTriggers) {
  const LintRun run = run_lint("trigger_pointer_sort.cpp", /*sim_state=*/false);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(count_rule(run.output, "pointer-sort"), 1) << run.output;
}

TEST(Lint, CStyleNarrowingCastInSimStateTriggers) {
  const LintRun run = run_lint("trigger_narrow_cast.cpp");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(count_rule(run.output, "narrow-cast"), 1) << run.output;
}

TEST(Lint, MutableNamespaceScopeStateTriggers) {
  const LintRun run = run_lint("trigger_mutable_global.cpp");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(count_rule(run.output, "mutable-global"), 2) << run.output;
}

TEST(Lint, IostreamInHotPathTriggers) {
  const LintRun run =
      run_lint("trigger_iostream_hot_path.cpp", /*sim_state=*/false, /*hot_path=*/true);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // cout + cerr + clog; the allow()-suppressed cerr must not count.
  EXPECT_EQ(count_rule(run.output, "iostream-in-hot-path"), 3) << run.output;
}

TEST(Lint, IostreamOutsideHotPathIsAllowed) {
  // Stream I/O is fine in sim/bench/telemetry code — the rule is scoped to
  // the per-cycle router/core loop.
  const LintRun run =
      run_lint("trigger_iostream_hot_path.cpp", /*sim_state=*/false, /*hot_path=*/false);
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(Lint, MalformedDirectivesTrigger) {
  const LintRun run = run_lint("trigger_bad_directive.cpp", /*sim_state=*/false);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // Missing reason + unknown rule name. The allow(raw-entropy) with no
  // reason must NOT suppress the rand() finding it sits above.
  EXPECT_EQ(count_rule(run.output, "bad-directive"), 2) << run.output;
  EXPECT_EQ(count_rule(run.output, "raw-entropy"), 1) << run.output;
}

TEST(Lint, RawEntropyShuffleFamilyTriggers) {
  const LintRun run = run_lint("trigger_raw_entropy_shuffle.cpp", /*sim_state=*/false);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // std::shuffle + std::random_shuffle + rand_r.
  EXPECT_EQ(count_rule(run.output, "raw-entropy"), 3) << run.output;
}

TEST(Lint, ShardUnsafeWriteUsesTheCrossFileSymbolTable) {
  // The annotations live in shard_state.hpp, the writes in the .cpp: one
  // shared invocation must classify each write precisely.
  const LintRun run = run_lint_files({"shard_state.hpp", "trigger_shard_unsafe_write.cpp"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(count_rule(run.output, "shard-unsafe-write"), 3) << run.output;
  EXPECT_NE(run.output.find("NOCSIM_SHARED_READONLY"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("owned by phase 'finish'"), std::string::npos) << run.output;
  // The tile-local write (credits_) is the sanctioned path: no finding.
  EXPECT_EQ(run.output.find("credits_"), std::string::npos) << run.output;
}

TEST(Lint, ShardUnsafeWriteWithoutTheTableFallsBackToUnclassified) {
  // Linting the .cpp alone demonstrates why the table is cross-file: every
  // member write degrades to the "not classified" finding, including the
  // tile-local one that the header would have legalized.
  const LintRun run = run_lint("trigger_shard_unsafe_write.cpp");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(count_rule(run.output, "shard-unsafe-write"), 4) << run.output;
  EXPECT_NE(run.output.find("credits_"), std::string::npos) << run.output;
}

TEST(Lint, AtomicRmwOnSharedStateTriggers) {
  // fetch_or/fetch_and are writes like any other: on a shared word, through
  // std::atomic_ref or a std::atomic member, they are cross-tile writes.
  const LintRun run = run_lint("trigger_atomic_rmw.cpp");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(count_rule(run.output, "shard-unsafe-write"), 2) << run.output;
  EXPECT_NE(run.output.find("call to 'fetch_or' on 'shared_words_'"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("call to 'fetch_and' on 'pending_'"), std::string::npos)
      << run.output;
  EXPECT_EQ(run.output.find("tile_words_"), std::string::npos) << run.output;
}

TEST(Lint, UnannotatedPhaseTriggers) {
  const LintRun run = run_lint("trigger_unannotated_phase.cpp");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // Only the phase-less body; the NOCSIM_PHASE-carrying one is clean.
  EXPECT_EQ(count_rule(run.output, "unannotated-phase"), 1) << run.output;
}

TEST(Lint, CrossTileIndexTriggers) {
  const LintRun run = run_lint("trigger_cross_tile_index.cpp");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // Direct neighbor(t) index + the tainted local; the owns()-guarded write
  // must not count.
  EXPECT_EQ(count_rule(run.output, "cross-tile-index"), 2) << run.output;
}

TEST(Lint, AllocInPhaseTriggers) {
  const LintRun run = run_lint("trigger_alloc_in_phase.cpp");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // new + malloc + make_unique + resize; the serial reserve() is clean.
  EXPECT_EQ(count_rule(run.output, "alloc-in-phase"), 4) << run.output;
}

TEST(Lint, LockInsidePhaseTriggersEverywhere) {
  const LintRun run = run_lint("trigger_lock_in_hot_path.cpp", /*sim_state=*/false);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // Only the mutex inside the phase body; serial code may lock here.
  EXPECT_EQ(count_rule(run.output, "lock-in-hot-path"), 1) << run.output;
}

TEST(Lint, LockInHotPathFilesTriggersInSerialCodeToo) {
  const LintRun run =
      run_lint("trigger_lock_in_hot_path.cpp", /*sim_state=*/false, /*hot_path=*/true);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(count_rule(run.output, "lock-in-hot-path"), 2) << run.output;
}

TEST(Lint, FlitPayloadReadInsidePhaseTriggers) {
  const LintRun run = run_lint("trigger_flit_payload_hot_path.cpp");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // .addr + ->hops + .kind inside the phase; the header-lane reads, the
  // payload-lane access, and the serial cold read must not count.
  EXPECT_EQ(count_rule(run.output, "flit-payload-in-hot-path"), 3) << run.output;
  EXPECT_NE(run.output.find("phase 'route'"), std::string::npos) << run.output;
}

TEST(Lint, CleanShardedFixturePasses) {
  const LintRun run = run_lint("clean_sharded.cpp");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("0 finding(s)"), std::string::npos) << run.output;
}

TEST(Lint, ShardRuleSuppressionsSuppress) {
  const LintRun run = run_lint("suppressed_sharded.cpp");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("0 finding(s)"), std::string::npos) << run.output;
}

TEST(Lint, ListRulesIncludesTheShardRules) {
  const LintRun run = run_lint_cmd("--list-rules");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  for (const char* rule : {"shard-unsafe-write", "unannotated-phase", "cross-tile-index",
                           "alloc-in-phase", "lock-in-hot-path", "flit-payload-in-hot-path",
                           "raw-timing"}) {
    EXPECT_NE(run.output.find(rule), std::string::npos) << rule << "\n" << run.output;
  }
}

TEST(Lint, CleanFixturePasses) {
  const LintRun run = run_lint("clean.cpp");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("0 finding(s)"), std::string::npos) << run.output;
}

TEST(Lint, WellFormedAllowDirectivesSuppress) {
  const LintRun run = run_lint("suppressed.cpp");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("0 finding(s)"), std::string::npos) << run.output;
}

TEST(Lint, WholeTreeIsClean) {
  // The same invariant the lint.nocsim ctest enforces, kept here too so a
  // plain `test_lint` binary run catches tree regressions.
  const std::string cmd = std::string(NOCSIM_LINT_BIN) + " " + NOCSIM_LINT_SOURCE_DIR "/src " +
                          NOCSIM_LINT_SOURCE_DIR "/bench 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  std::array<char, 4096> buf{};
  std::size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) output.append(buf.data(), n);
  const int status = pclose(pipe);
  EXPECT_EQ(WIFEXITED(status) ? WEXITSTATUS(status) : -1, 0) << output;
}

}  // namespace
