#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "common/cli.h"
#include "common/error.h"
#include "common/table.h"

namespace dcn {
namespace {

TEST(TableTest, RendersAlignedColumns) {
  Table table{{"name", "value"}};
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "22"});
  std::ostringstream out;
  table.Print(out, "demo");
  const std::string text = out.str();
  EXPECT_NE(text.find("== demo =="), std::string::npos);
  EXPECT_NE(text.find("| alpha |"), std::string::npos);
  EXPECT_NE(text.find("value"), std::string::npos);
  EXPECT_EQ(table.RowCount(), 2u);
}

TEST(TableTest, RowWidthMismatchThrows) {
  Table table{{"a", "b"}};
  EXPECT_THROW(table.AddRow({"only-one"}), InvalidArgument);
  EXPECT_THROW(Table{std::vector<std::string>{}}, InvalidArgument);
}

TEST(TableTest, CellFormatting) {
  EXPECT_EQ(Table::Cell(std::int64_t{-7}), "-7");
  EXPECT_EQ(Table::Cell(std::uint64_t{12345}), "12345");
  EXPECT_EQ(Table::Cell(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Percent(0.1234, 1), "12.3%");
}

TEST(CliArgsTest, ParsesKeysFlagsAndTypes) {
  const char* argv[] = {"prog", "--n=8", "--ratio=0.25", "--verbose",
                        "--name=abccc", "--flag=false"};
  CliArgs args{6, argv};
  EXPECT_TRUE(args.Has("n"));
  EXPECT_FALSE(args.Has("missing"));
  EXPECT_EQ(args.GetInt("n", 0), 8);
  EXPECT_EQ(args.GetInt("missing", 42), 42);
  EXPECT_DOUBLE_EQ(args.GetDouble("ratio", 0), 0.25);
  EXPECT_TRUE(args.GetBool("verbose", false));
  EXPECT_FALSE(args.GetBool("flag", true));
  EXPECT_EQ(args.GetString("name", ""), "abccc");
}

TEST(CliArgsTest, RejectsMalformedTokensAndValues) {
  const char* bad[] = {"prog", "positional"};
  EXPECT_THROW((CliArgs{2, bad}), InvalidArgument);

  const char* argv[] = {"prog", "--n=notanint", "--b=maybe"};
  CliArgs args{3, argv};
  EXPECT_THROW(args.GetInt("n", 0), InvalidArgument);
  EXPECT_THROW(args.GetBool("b", false), InvalidArgument);
}

TEST(CliArgsTest, NumbersMustBeWholeValues) {
  const char* argv[] = {"prog", "--pairs=64abc", "--plus=+4", "--blank= 4",
                        "--empty=", "--huge=9223372036854775808",
                        "--ratio=0.5x", "--lead= 0.5", "--inf=inf",
                        "--nan=nan", "--over=1e999", "--neg=-3",
                        "--max=9223372036854775807", "--sci=2.5e-3"};
  CliArgs args{14, argv};
  for (const char* key : {"pairs", "plus", "blank", "empty", "huge", "ratio"}) {
    EXPECT_THROW(args.GetInt(key, 0), InvalidArgument) << key;
  }
  for (const char* key : {"pairs", "ratio", "lead", "empty", "inf", "nan", "over"}) {
    EXPECT_THROW(args.GetDouble(key, 0.0), InvalidArgument) << key;
  }
  EXPECT_EQ(args.GetInt("neg", 0), -3);
  EXPECT_EQ(args.GetInt("max", 0), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(args.GetDouble("neg", 0.0), -3.0);
  EXPECT_EQ(args.GetDouble("sci", 0.0), 2.5e-3);
}

TEST(CliArgsTest, RejectsDuplicateFlags) {
  const char* twice[] = {"prog", "--k=2", "--k=3"};
  EXPECT_THROW((CliArgs{3, twice}), InvalidArgument);
  const char* bare_twice[] = {"prog", "--verbose", "--verbose"};
  EXPECT_THROW((CliArgs{3, bare_twice}), InvalidArgument);
  const char* mixed[] = {"prog", "--verbose", "--verbose=false"};
  EXPECT_THROW((CliArgs{3, mixed}), InvalidArgument);
}

}  // namespace
}  // namespace dcn
