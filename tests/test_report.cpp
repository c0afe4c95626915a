// Tests for the report/table utilities and the logger.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "harness/report.h"
#include "sim/logger.h"

namespace dcp {
namespace {

TEST(TableTest, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(3.0, 0), "3");
  EXPECT_EQ(Table::num(-1.5, 1), "-1.5");
}

TEST(TableTest, BytesHumanUnits) {
  EXPECT_EQ(Table::bytes_human(512), "512B");
  EXPECT_EQ(Table::bytes_human(2048), "2.00KB");
  EXPECT_EQ(Table::bytes_human(3 * 1024 * 1024), "3.00MB");
  EXPECT_EQ(Table::bytes_human(5ull * 1024 * 1024 * 1024), "5.00GB");
}

TEST(TableTest, PrintsAlignedColumns) {
  Table t({"A", "LongHeader"});
  t.add_row({"x", "1"});
  t.add_row({"yyyy", "22"});
  char buf[512] = {};
  std::FILE* mem = fmemopen(buf, sizeof(buf), "w");
  ASSERT_NE(mem, nullptr);
  t.print(mem);
  std::fclose(mem);
  const std::string out(buf);
  EXPECT_NE(out.find("LongHeader"), std::string::npos);
  EXPECT_NE(out.find("yyyy"), std::string::npos);
  // Header, separator, two rows — all padded to identical widths.
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (true) {
    const std::size_t nl = out.find('\n', pos);
    if (nl == std::string::npos) break;
    lines.push_back(out.substr(pos, nl - pos));
    pos = nl + 1;
  }
  ASSERT_EQ(lines.size(), 4u);
  for (const auto& l : lines) EXPECT_EQ(l.size(), lines[0].size());
}

TEST(TableTest, PrintWritesStr) {
  Table t({"A", "LongHeader"});
  t.add_row({"x", "1"});
  t.add_row({"yyyy"});  // a short row pads its missing cells
  const std::string expected =
      "| A   | LongHeader|\n"
      "|-----|-----------|\n"
      "| x   | 1         |\n"
      "| yyyy|           |\n";
  EXPECT_EQ(t.str(), expected);
  char buf[512] = {};
  std::FILE* mem = fmemopen(buf, sizeof(buf), "w");
  ASSERT_NE(mem, nullptr);
  t.print(mem);
  std::fclose(mem);
  EXPECT_EQ(std::string(buf), expected);
}

TEST(FullScaleFlag, ReadsEnvironment) {
  unsetenv("DCP_FULL_SCALE");
  EXPECT_FALSE(full_scale());
  setenv("DCP_FULL_SCALE", "1", 1);
  EXPECT_TRUE(full_scale());
  setenv("DCP_FULL_SCALE", "0", 1);
  EXPECT_FALSE(full_scale());
  unsetenv("DCP_FULL_SCALE");
}

TEST(LoggerTest, LevelGatesOutput) {
  char buf[512] = {};
  std::FILE* mem = fmemopen(buf, sizeof(buf), "w");
  ASSERT_NE(mem, nullptr);
  Logger log(LogLevel::kWarn, mem);
  log.debug(microseconds(1), "comp", "hidden");
  log.warn(microseconds(2), "comp", "visible");
  std::fflush(mem);
  std::fclose(mem);
  const std::string out(buf);
  EXPECT_EQ(out.find("hidden"), std::string::npos);
  EXPECT_NE(out.find("visible"), std::string::npos);
  EXPECT_NE(out.find("WARN"), std::string::npos);
}

TEST(LoggerTest, OffSilencesEverything) {
  char buf[256] = {};
  std::FILE* mem = fmemopen(buf, sizeof(buf), "w");
  Logger log(LogLevel::kOff, mem);
  log.error(0, "comp", "nope");
  std::fflush(mem);
  std::fclose(mem);
  EXPECT_EQ(std::string(buf), "");
}

TEST(LoggerTest, EnabledPredicate) {
  Logger log(LogLevel::kInfo);
  EXPECT_FALSE(log.enabled(LogLevel::kDebug));
  EXPECT_TRUE(log.enabled(LogLevel::kInfo));
  EXPECT_TRUE(log.enabled(LogLevel::kError));
  log.set_level(LogLevel::kTrace);
  EXPECT_TRUE(log.enabled(LogLevel::kTrace));
}

}  // namespace
}  // namespace dcp
