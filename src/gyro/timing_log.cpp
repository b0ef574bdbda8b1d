#include "gyro/timing_log.hpp"

#include <cmath>
#include <fstream>

#include "util/error.hpp"
#include "util/format.hpp"
#include "util/strings.hpp"

namespace xg::gyro {

std::vector<TimingRow> timing_rows(const mpi::RunResult& result,
                                   const std::vector<std::string>& phases) {
  std::vector<TimingRow> rows;
  rows.reserve(phases.size());
  for (const auto& phase : phases) {
    TimingRow row;
    row.phase = phase;
    for (const auto& r : result.ranks) {
      const auto it = r.phases.find(phase);
      if (it == r.phases.end()) continue;
      row.comm_s = std::max(row.comm_s, it->second.comm_s);
      row.compute_s = std::max(row.compute_s, it->second.compute_s);
      row.total_s =
          std::max(row.total_s, it->second.comm_s + it->second.compute_s);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string render_timing_log(const std::vector<TimingRow>& rows,
                              double makespan_s) {
  std::string out = "# xgyro timing v1\n# phase comm compute total\n";
  for (const auto& r : rows) {
    out += strprintf("%s %.17e %.17e %.17e\n", r.phase.c_str(), r.comm_s,
                     r.compute_s, r.total_s);
  }
  out += strprintf("# makespan %.17e\n", makespan_s);
  return out;
}

void write_timing_log(const std::string& path,
                      const std::vector<TimingRow>& rows, double makespan_s) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) throw Error(strprintf("cannot open '%s' for writing", path.c_str()));
  f << render_timing_log(rows, makespan_s);
  if (!f) throw Error(strprintf("short write to '%s'", path.c_str()));
}

std::vector<TimingRow> parse_timing_log(const std::string& text,
                                        double* makespan_out) {
  std::vector<TimingRow> rows;
  bool saw_header = false;
  int lineno = 0;
  // parse_double accepts strtod's "nan"/"inf" spellings; a timing log with
  // non-finite seconds is corrupt, so reject them here with the line number.
  const auto finite = [&](double v, const char* what) {
    if (!std::isfinite(v)) {
      throw InputError(strprintf("timing log line %d: non-finite %s value",
                                 lineno, what));
    }
    return v;
  };
  for (const auto& raw : split(text, '\n')) {
    ++lineno;
    const auto line = trim(raw);
    if (line.empty()) continue;
    if (starts_with(line, "#")) {
      if (line.find("xgyro timing v1") != std::string_view::npos) {
        saw_header = true;
      }
      const auto fields = split_ws(line);
      if (fields.size() == 3 && fields[1] == "makespan" && makespan_out) {
        *makespan_out = finite(parse_double(fields[2], "makespan"), "makespan");
      }
      continue;
    }
    const auto fields = split_ws(line);
    if (fields.size() != 4) {
      throw InputError(strprintf(
          "timing log line %d: expected 'phase comm compute total', got '%s'",
          lineno, std::string(line).c_str()));
    }
    TimingRow row;
    row.phase = fields[0];
    row.comm_s = finite(parse_double(fields[1], "comm"), "comm");
    row.compute_s = finite(parse_double(fields[2], "compute"), "compute");
    row.total_s = finite(parse_double(fields[3], "total"), "total");
    rows.push_back(std::move(row));
  }
  if (!saw_header) {
    throw InputError("timing log: missing '# xgyro timing v1' header");
  }
  return rows;
}

std::vector<TimingRow> load_timing_log(const std::string& path,
                                       double* makespan_out) {
  const auto text = read_text_file(path);
  if (!text) throw Error(strprintf("cannot open timing log '%s'", path.c_str()));
  return parse_timing_log(*text, makespan_out);
}

}  // namespace xg::gyro
