#include "scenarios/summary.hpp"

#include <cstdio>
#include <map>

namespace tp::scenarios {

void Header(const std::string& experiment, const std::string& paper_summary) {
  std::printf(
      "\n================================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("paper: %s\n", paper_summary.c_str());
  std::printf(
      "================================================================================\n");
}

void Table::Print() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      if (row[c].size() > widths[c]) {
        widths[c] = row[c].size();
      }
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(widths[c]), c < row.size() ? row[c].c_str() : "");
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::size_t total = 0;
  for (std::size_t w : widths) {
    total += w + 2;
  }
  std::printf("%s\n", std::string(total, '-').c_str());
  for (const auto& row : rows_) {
    print_row(row);
  }
}

std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

void PrintSweepResults(const std::vector<runner::SweepCellResult>& results) {
  Table t({"cell", "M (mb)", "M0 (mb)", "n", "verdict"});
  for (const runner::SweepCellResult& r : results) {
    t.AddRow({r.cell.Name(), Fmt("%.1f", r.leakage.MilliBits()),
              Fmt("%.1f", r.leakage.M0MilliBits()), std::to_string(r.leakage.samples),
              r.leakage.leak ? "CHANNEL" : "no channel"});
  }
  t.Print();
}

void PrintPerSymbolMeans(const mi::Observations& obs, const std::string& symbol_header,
                         const std::string& value_header,
                         const std::function<std::string(int)>& symbol_label,
                         const std::function<std::string(double)>& value_format) {
  std::map<int, std::pair<double, std::size_t>> per_symbol;
  for (std::size_t i = 0; i < obs.size(); ++i) {
    auto& [sum, n] = per_symbol[obs.inputs()[i]];
    sum += obs.outputs()[i];
    ++n;
  }
  Table t({symbol_header, value_header, "samples"});
  for (const auto& [sym, acc] : per_symbol) {
    double mean = acc.first / static_cast<double>(acc.second);
    t.AddRow({symbol_label ? symbol_label(sym) : std::to_string(sym),
              value_format ? value_format(mean) : Fmt("%.2f", mean),
              std::to_string(acc.second)});
  }
  t.Print();
}

}  // namespace tp::scenarios
