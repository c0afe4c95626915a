#include "harness/report.h"

#include <algorithm>
#include <cstdlib>

namespace dcp {

std::string Table::str() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < width.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  std::string out;
  auto line = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < width.size(); ++c) {
      const bool has = c < cells.size();
      out += "| ";
      if (has) out += cells[c];
      out.append(width[c] - (has ? cells[c].size() : 0), ' ');
    }
    out += "|\n";
  };
  line(headers_);
  for (std::size_t c = 0; c < width.size(); ++c) {
    out += '|';
    out.append(width[c] + 1, '-');
  }
  out += "|\n";
  for (const auto& row : rows_) line(row);
  return out;
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::bytes_human(std::uint64_t b) {
  char buf[64];
  if (b >= 1024ull * 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.2fGB", static_cast<double>(b) / (1024.0 * 1024 * 1024));
  } else if (b >= 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.2fMB", static_cast<double>(b) / (1024.0 * 1024));
  } else if (b >= 1024) {
    std::snprintf(buf, sizeof(buf), "%.2fKB", static_cast<double>(b) / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%lluB", static_cast<unsigned long long>(b));
  }
  return buf;
}

void banner(const std::string& title, std::FILE* out) {
  std::fprintf(out, "\n== %s ==\n", title.c_str());
}

bool full_scale() {
  const char* v = std::getenv("DCP_FULL_SCALE");
  return v != nullptr && v[0] == '1';
}

}  // namespace dcp
