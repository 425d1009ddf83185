#pragma once

#include <string>
#include <vector>

namespace glint {

/// ASCII table printer used by the benchmark harness to render the paper's
/// tables and figure data series in the terminal.
class TablePrinter {
 public:
  /// Creates a table with the given column headers.
  explicit TablePrinter(std::vector<std::string> headers);

  /// Appends a row; the number of cells must match the header count.
  void AddRow(std::vector<std::string> cells);

  /// Renders the table with aligned columns and separators.
  std::string ToString() const;

  /// Prints to stdout.
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace glint
