#include "workload/trace_io.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "core/require.h"

namespace epm::workload {
namespace {

std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> out;
  std::string cell;
  std::istringstream is(line);
  while (std::getline(is, cell, sep)) out.push_back(cell);
  return out;
}

double parse_number(const std::string& cell) {
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(cell, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument("trace_io: non-numeric cell '" + cell + "'");
  }
  require(pos == cell.size(),
          [&] { return "trace_io: trailing junk in cell '" + cell + "'"; });
  return v;
}

}  // namespace

void write_csv(std::ostream& out, const std::vector<NamedSeries>& columns) {
  require(!columns.empty(), "write_csv: no columns");
  const auto& first = columns.front().series;
  for (const auto& col : columns) {
    require(col.series.size() == first.size() &&
                std::abs(col.series.start_s() - first.start_s()) < 1e-9 &&
                std::abs(col.series.step_s() - first.step_s()) < 1e-9,
            "write_csv: series timing mismatch");
    require(col.name.find(',') == std::string::npos, "write_csv: comma in column name");
  }
  out << "time_s";
  for (const auto& col : columns) out << ',' << col.name;
  out << '\n';
  out.precision(10);
  for (std::size_t i = 0; i < first.size(); ++i) {
    out << first.time_at(i);
    for (const auto& col : columns) out << ',' << col.series[i];
    out << '\n';
  }
}

void write_csv_file(const std::string& path, const std::vector<NamedSeries>& columns) {
  std::ofstream f(path);
  require(f.good(), [&] { return "write_csv_file: cannot open " + path; });
  write_csv(f, columns);
  require(f.good(), [&] { return "write_csv_file: write failed for " + path; });
}

std::vector<NamedSeries> read_csv(std::istream& in) {
  std::string line;
  require(static_cast<bool>(std::getline(in, line)), "read_csv: empty input");
  const auto header = split(line, ',');
  require(header.size() >= 2 && header.front() == "time_s",
          "read_csv: header must be time_s,<name>...");

  std::vector<double> times;
  std::vector<std::vector<double>> cols(header.size() - 1);
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto cells = split(line, ',');
    require(cells.size() == header.size(), "read_csv: ragged row");
    times.push_back(parse_number(cells[0]));
    for (std::size_t c = 1; c < cells.size(); ++c) {
      cols[c - 1].push_back(parse_number(cells[c]));
    }
  }
  require(!times.empty(), "read_csv: no data rows");

  double step = 1.0;
  if (times.size() >= 2) {
    step = times[1] - times[0];
    require(step > 0.0, "read_csv: time column not increasing");
    for (std::size_t i = 2; i < times.size(); ++i) {
      require(std::abs((times[i] - times[i - 1]) - step) < 1e-6 * step + 1e-9,
              "read_csv: non-uniform time step");
    }
  }

  std::vector<NamedSeries> out;
  out.reserve(cols.size());
  for (std::size_t c = 0; c < cols.size(); ++c) {
    out.push_back(NamedSeries{header[c + 1], TimeSeries(times[0], step, std::move(cols[c]))});
  }
  return out;
}

std::vector<NamedSeries> read_csv_file(const std::string& path) {
  std::ifstream f(path);
  require(f.good(), [&] { return "read_csv_file: cannot open " + path; });
  return read_csv(f);
}

}  // namespace epm::workload
