#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/table.hpp"

namespace pbl {
namespace {

TEST(Table, HeaderAndAlignment) {
  Table t({"R", "value"});
  t.add_row({1LL, 2.5});
  t.add_row({1000000LL, 3.25});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("#"), std::string::npos);
  EXPECT_NE(out.find("R"), std::string::npos);
  EXPECT_NE(out.find("value"), std::string::npos);
  EXPECT_NE(out.find("1000000"), std::string::npos);
  EXPECT_NE(out.find("3.25"), std::string::npos);
}

TEST(Table, RejectsWrongWidth) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({1LL}), std::invalid_argument);
}

TEST(Table, StringCells) {
  Table t({"name", "x"});
  t.add_row({std::string("layered"), 1.0});
  EXPECT_NE(t.to_string().find("layered"), std::string::npos);
}

TEST(Table, PrecisionControl) {
  Table t({"x"});
  t.set_precision(3);
  t.add_row({1.23456789});
  EXPECT_NE(t.to_string().find("1.23"), std::string::npos);
  EXPECT_EQ(t.to_string().find("1.2345"), std::string::npos);
}

namespace {
Cli make_cli(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data());
}
}  // namespace

TEST(Cli, EqualsSyntax) {
  auto cli = make_cli({"--k=7", "--p=0.01"});
  EXPECT_EQ(cli.get_int("k", 0), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("p", 0.0), 0.01);
}

TEST(Cli, SpaceSyntax) {
  auto cli = make_cli({"--k", "20"});
  EXPECT_EQ(cli.get_int("k", 0), 20);
}

TEST(Cli, DefaultsWhenAbsent) {
  auto cli = make_cli({});
  EXPECT_EQ(cli.get_int("k", 7), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("p", 0.5), 0.5);
  EXPECT_EQ(cli.get_string("mode", "np"), "np");
  EXPECT_FALSE(cli.get_bool("verbose", false));
}

TEST(Cli, BareFlagIsTrue) {
  auto cli = make_cli({"--verbose"});
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_TRUE(cli.has("verbose"));
}

TEST(Cli, DoubleListParsing) {
  auto cli = make_cli({"--ks=7,20,100"});
  const auto ks = cli.get_doubles("ks", {});
  ASSERT_EQ(ks.size(), 3u);
  EXPECT_DOUBLE_EQ(ks[0], 7.0);
  EXPECT_DOUBLE_EQ(ks[2], 100.0);
}

TEST(Cli, DoubleListDefault) {
  auto cli = make_cli({});
  const auto ks = cli.get_doubles("ks", {1.0, 2.0});
  ASSERT_EQ(ks.size(), 2u);
}

TEST(Cli, Int64Values) {
  auto cli = make_cli({"--R=1000000"});
  EXPECT_EQ(cli.get_int64("R", 0), 1000000);
}

TEST(Cli, SizeValues) {
  auto cli = make_cli({"--n=12"});
  EXPECT_EQ(cli.get_size("n", 0), 12u);
  EXPECT_EQ(cli.get_size("absent", 5), 5u);
}

TEST(Cli, SizeRejectsNegativeAndTrailingCharacters) {
  auto cli = make_cli({"--receivers=-1", "--k=12x"});
  EXPECT_THROW(cli.get_size("receivers", 2), std::invalid_argument);
  EXPECT_THROW(cli.get_size("k", 8), std::invalid_argument);
}

TEST(Cli, BoolAcceptsOnlyBooleanSpellings) {
  auto cli = make_cli({"--a=yes", "--b=0", "--c=no", "--d=1", "--e=maybe"});
  EXPECT_TRUE(cli.get_bool("a", false));
  EXPECT_FALSE(cli.get_bool("b", true));
  EXPECT_FALSE(cli.get_bool("c", true));
  EXPECT_TRUE(cli.get_bool("d", false));
  EXPECT_THROW(cli.get_bool("e", false), std::invalid_argument);
}

TEST(Cli, UnqueriedListsOnlyFlagsNeverRead) {
  auto cli = make_cli({"--grace-round=1", "--k=7", "--resume"});
  cli.get_int("k", 8);
  cli.get_int("grace-rounds", 3);
  EXPECT_TRUE(cli.has("resume"));
  EXPECT_EQ(cli.unqueried(), std::vector<std::string>{"--grace-round"});
}

TEST(Cli, UnqueriedListsStrayArgumentsAsTyped) {
  auto cli = make_cli({"-k=300", "--k", "7", "sessions=3", "--resume"});
  EXPECT_EQ(cli.get_int("k", 8), 7);
  EXPECT_TRUE(cli.has("resume"));
  EXPECT_EQ(cli.unqueried(),
            (std::vector<std::string>{"-k=300", "sessions=3"}));
}

TEST(Cli, UsageListsQueriedFlags) {
  auto cli = make_cli({});
  cli.get_int("k", 7);
  cli.get_double("p", 0.01);
  const std::string u = cli.usage();
  EXPECT_NE(u.find("--k"), std::string::npos);
  EXPECT_NE(u.find("--p"), std::string::npos);
}

}  // namespace
}  // namespace pbl
