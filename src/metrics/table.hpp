// ASCII / CSV table formatting for experiment reports.
//
// Every bench binary renders its paper-figure reproduction through this
// formatter so outputs are uniform and machine-diffable.
#pragma once

#include <string>
#include <vector>

namespace e2e::metrics {

class Table {
 public:
  explicit Table(std::string title = {}) : title_(std::move(title)) {}

  Table& header(std::vector<std::string> cols) {
    header_ = std::move(cols);
    return *this;
  }

  Table& row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
    return *this;
  }

  /// Renders an aligned ASCII table.
  [[nodiscard]] std::string to_string() const;

  /// Renders RFC-4180-ish CSV (no quoting of embedded commas needed for our
  /// numeric outputs; commas in cells are replaced by ';').
  [[nodiscard]] std::string to_csv() const;

  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }

  /// Formats a double with `prec` decimals.
  static std::string num(double v, int prec = 1);

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace e2e::metrics
