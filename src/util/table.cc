#include "util/table.h"

#include <cstdio>

#include "util/status.h"

namespace glint {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  GLINT_CHECK(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::ToString() const {
  std::vector<size_t> widths(headers_.size(), 0);
  for (size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (row[i].size() > widths[i]) widths[i] = row[i].size();
    }
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line = "|";
    for (size_t i = 0; i < row.size(); ++i) {
      line += " " + row[i] + std::string(widths[i] - row[i].size(), ' ') + " |";
    }
    return line + "\n";
  };
  std::string sep = "+";
  for (size_t w : widths) sep += std::string(w + 2, '-') + "+";
  sep += "\n";

  std::string out = sep + render_row(headers_) + sep;
  for (const auto& row : rows_) out += render_row(row);
  out += sep;
  return out;
}

void TablePrinter::Print() const { std::fputs(ToString().c_str(), stdout); }

}  // namespace glint
