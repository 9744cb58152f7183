// Minimal CSV emission and parsing for bench binaries and telemetry.
//
// Every figure/table bench prints `# comment` header lines (context, the
// paper's qualitative claim) followed by one CSV header row and data rows,
// so output is both human-readable and trivially consumed by plotting tools.
// CsvReader parses exactly that dialect back (cells never contain commas,
// quotes, or newlines), so telemetry files round-trip losslessly.
#pragma once

#include <cstdio>
#include <initializer_list>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

namespace nocsim {

/// `v` printed with %.17g: 17 significant digits always round-trip an IEEE
/// binary64, so a reader recovers the exact double (and can recompute a
/// controller decision from it bit for bit).
inline std::string format_exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  /// A '#'-prefixed free-text line (ignored by CSV parsers with comment='#').
  void comment(const std::string& text) { out_ << "# " << text << '\n'; }

  void header(std::initializer_list<std::string> cols) {
    write_row(std::vector<std::string>(cols));
  }

  template <typename... Ts>
  void row(const Ts&... values) {
    std::vector<std::string> cells;
    cells.reserve(sizeof...(values));
    (cells.push_back(to_cell(values)), ...);
    write_row(cells);
  }

 private:
  template <typename T>
  static std::string to_cell(const T& v) {
    std::ostringstream ss;
    ss << v;
    return ss.str();
  }

  void write_row(const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i) out_ << ',';
      out_ << cells[i];
    }
    out_ << '\n';
  }

  std::ostream& out_;
};

/// Parsed view of a CsvWriter-dialect file: leading '#' comments, one header
/// row, then data rows. Cells are kept verbatim (no numeric conversion).
struct CsvTable {
  std::vector<std::string> comments;
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  [[nodiscard]] std::size_t column(const std::string& name) const {
    for (std::size_t i = 0; i < header.size(); ++i) {
      if (header[i] == name) return i;
    }
    return header.size();  // one-past-end = not found
  }
};

class CsvReader {
 public:
  static CsvTable read(std::istream& in) {
    CsvTable table;
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      if (line[0] == '#') {
        const std::size_t begin = line.size() > 1 && line[1] == ' ' ? 2 : 1;
        table.comments.push_back(line.substr(begin));
        continue;
      }
      std::vector<std::string> cells;
      std::size_t pos = 0;
      while (true) {
        const std::size_t comma = line.find(',', pos);
        cells.push_back(line.substr(pos, comma - pos));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
      if (table.header.empty()) {
        table.header = std::move(cells);
      } else {
        table.rows.push_back(std::move(cells));
      }
    }
    return table;
  }
};

}  // namespace nocsim
