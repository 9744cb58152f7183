#include "common/flags.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

namespace nocsim {
namespace {

std::vector<char*> argv_of(std::vector<std::string>& storage) {
  std::vector<char*> out;
  for (auto& s : storage) out.push_back(s.data());
  return out;
}

TEST(Flags, EqualsSyntax) {
  std::vector<std::string> args = {"prog", "--cycles=5000", "--rate=0.25"};
  auto argv = argv_of(args);
  Flags f(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(f.get_int("cycles", 1, "x"), 5000);
  EXPECT_DOUBLE_EQ(f.get_double("rate", 0.0, "x"), 0.25);
  EXPECT_FALSE(f.finish());
}

TEST(Flags, SpaceSyntaxAndDefaults) {
  std::vector<std::string> args = {"prog", "--size", "8"};
  auto argv = argv_of(args);
  Flags f(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(f.get_int("size", 4, "x"), 8);
  EXPECT_EQ(f.get_int("missing", 42, "x"), 42);
  EXPECT_EQ(f.get_string("name", "default", "x"), "default");
  EXPECT_FALSE(f.finish());
}

TEST(Flags, BareBooleanFlag) {
  std::vector<std::string> args = {"prog", "--verbose", "--also=false"};
  auto argv = argv_of(args);
  Flags f(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(f.get_bool("verbose", false, "x"));
  EXPECT_FALSE(f.get_bool("also", true, "x"));
  EXPECT_FALSE(f.finish());
}

TEST(Flags, HelpShortCircuits) {
  std::vector<std::string> args = {"prog", "--help"};
  auto argv = argv_of(args);
  Flags f(static_cast<int>(argv.size()), argv.data());
  f.get_int("cycles", 1, "run length");
  EXPECT_TRUE(f.finish());
}

TEST(Flags, UnknownFlagExits) {
  std::vector<std::string> args = {"prog", "--bogus=1"};
  auto argv = argv_of(args);
  Flags f(static_cast<int>(argv.size()), argv.data());
  f.get_int("cycles", 1, "x");
  EXPECT_EXIT(f.finish(), ::testing::ExitedWithCode(2), "unknown flag");
}

// A malformed value must not escape as an exception (or parse in part):
// it exits 2 naming the flag, like an unknown flag does.
void read_flag(const std::string& kind, const std::string& value) {
  std::vector<std::string> args = {"prog", "--x", value};
  auto argv = argv_of(args);
  Flags f(static_cast<int>(argv.size()), argv.data());
  if (kind == "int") (void)f.get_int("x", 1, "x");
  if (kind == "double") (void)f.get_double("x", 1.0, "x");
  if (kind == "bool") (void)f.get_bool("x", false, "x");
}

TEST(FlagsDeathTest, MalformedIntExits) {
  EXPECT_EXIT(read_flag("int", "banana"), ::testing::ExitedWithCode(2),
              "bad value for --x: banana");
  EXPECT_EXIT(read_flag("int", "12abc"), ::testing::ExitedWithCode(2), "bad value for --x");
  EXPECT_EXIT(read_flag("int", "1e3"), ::testing::ExitedWithCode(2), "bad value for --x");
  EXPECT_EXIT(read_flag("int", "99999999999999999999"), ::testing::ExitedWithCode(2),
              "bad value for --x");
}

// An integer outside [min, INT_MAX] is a bad value too: a count of zero or
// a negative size never reaches the program.
TEST(FlagsDeathTest, IntOutOfRangeExits) {
  const auto read_int = [](const std::string& value, int min) {
    std::vector<std::string> args = {"prog", "--x", value};
    auto argv = argv_of(args);
    Flags f(static_cast<int>(argv.size()), argv.data());
    (void)f.get_int("x", 1, "x", min);
  };
  EXPECT_EXIT(read_int("0", 1), ::testing::ExitedWithCode(2), "bad value for --x: 0");
  EXPECT_EXIT(read_int("-1", 0), ::testing::ExitedWithCode(2), "bad value for --x: -1");
  EXPECT_EXIT(read_int("2147483648", 0), ::testing::ExitedWithCode(2),
              "bad value for --x: 2147483648");
  EXPECT_EXIT(
      {
        read_int("2147483647", 1);
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(FlagsDeathTest, MalformedDoubleExits) {
  EXPECT_EXIT(read_flag("double", "fast"), ::testing::ExitedWithCode(2),
              "bad value for --x: fast");
  EXPECT_EXIT(read_flag("double", "0.5x"), ::testing::ExitedWithCode(2), "bad value for --x");
}

TEST(FlagsDeathTest, MalformedBoolExits) {
  EXPECT_EXIT(read_flag("bool", "maybe"), ::testing::ExitedWithCode(2),
              "bad value for --x: maybe");
  EXPECT_EXIT(read_flag("bool", "on"), ::testing::ExitedWithCode(2), "bad value for --x");
}

TEST(Flags, WellFormedValuesParse) {
  std::vector<std::string> args = {"prog", "--a=-7", "--b=1e-3", "--c=no", "--d=0", "--e=yes"};
  auto argv = argv_of(args);
  Flags f(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(f.get_int("a", 0, "x", -7), -7);
  EXPECT_DOUBLE_EQ(f.get_double("b", 0.0, "x"), 1e-3);
  EXPECT_FALSE(f.get_bool("c", true, "x"));
  EXPECT_FALSE(f.get_bool("d", true, "x"));
  EXPECT_TRUE(f.get_bool("e", false, "x"));
  EXPECT_FALSE(f.finish());
}

}  // namespace
}  // namespace nocsim
