#pragma once
// Plain-text table/series printing so every bench binary emits the same
// rows the paper's tables and figures report.

#include <cstdio>
#include <string>
#include <vector>

namespace dcp {

class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }
  /// The rendered table: a header row, a rule, then one row per add_row,
  /// every column padded to its widest cell.
  std::string str() const;
  void print(std::FILE* out = stdout) const { std::fputs(str().c_str(), out); }

  static std::string num(double v, int precision = 2);
  static std::string bytes_human(std::uint64_t b);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints "== <title> ==" banners so bench output is self-describing.
void banner(const std::string& title, std::FILE* out = stdout);

/// True when DCP_FULL_SCALE=1: benches run at paper scale instead of the
/// fast default.
bool full_scale();

}  // namespace dcp
