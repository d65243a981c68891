#include "green/serve/request_stream.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>

#include "green/common/rng.h"
#include "green/common/stringutil.h"

namespace green {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Bursts repeat this many times across the trace; each period opens with
/// the spiked window so the very first seconds already stress admission.
constexpr int kBurstPeriods = 4;

double InstantRate(const TraceSpec& spec, double t) {
  switch (spec.kind) {
    case TraceSpec::Kind::kConstant:
      return spec.rate_rps;
    case TraceSpec::Kind::kDiurnal: {
      // One compressed day: trough at t=0, peak mid-trace. The 0.75
      // amplitude keeps the trough strictly positive so inter-arrival
      // sampling never divides by zero.
      const double phase =
          0.5 * (1.0 - std::cos(2.0 * kPi * t / spec.duration_seconds));
      return spec.rate_rps * (0.25 + 1.5 * phase);
    }
    case TraceSpec::Kind::kBurst: {
      const double period = spec.duration_seconds / kBurstPeriods;
      const double offset = std::fmod(t, period);
      const double burst_rate = spec.burst_rate_rps > 0.0
                                    ? spec.burst_rate_rps
                                    : 10.0 * spec.rate_rps;
      return offset < spec.burst_fraction * period ? burst_rate
                                                   : spec.rate_rps;
    }
  }
  return spec.rate_rps;
}

}  // namespace

const char* TraceKindName(TraceSpec::Kind kind) {
  switch (kind) {
    case TraceSpec::Kind::kConstant:
      return "constant";
    case TraceSpec::Kind::kDiurnal:
      return "diurnal";
    case TraceSpec::Kind::kBurst:
      return "burst";
  }
  return "?";
}

std::vector<ServeRequest> GenerateTrace(const TraceSpec& spec,
                                        size_t num_rows) {
  std::vector<ServeRequest> out;
  if (num_rows == 0 || spec.duration_seconds <= 0.0 ||
      spec.rate_rps <= 0.0) {
    return out;
  }
  Rng rng(spec.seed);
  double t = 0.0;
  while (true) {
    // Nonhomogeneous Poisson via per-step rate evaluation: the gap is
    // exponential at the instantaneous rate where the previous arrival
    // landed. Adequate for profiles that vary slowly relative to 1/rate.
    const double rate = std::max(InstantRate(spec, t), 1e-9);
    const double u = rng.NextDouble();
    t += -std::log1p(-u) / rate;
    if (t >= spec.duration_seconds) break;
    ServeRequest request;
    request.arrival_seconds = t;
    request.row = static_cast<size_t>(rng.NextBounded(num_rows));
    out.push_back(request);
  }
  return out;
}

Result<std::vector<ServeRequest>> LoadTraceCsv(const std::string& path,
                                               size_t num_rows) {
  if (num_rows == 0) {
    return Status::InvalidArgument("trace: served dataset has no rows");
  }
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IoError("trace: cannot open '" + path + "'");
  }
  std::vector<ServeRequest> out;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string trimmed(Trim(line));
    if (trimmed.empty() || trimmed[0] == '#') continue;
    const char* begin = trimmed.c_str();
    char* end = nullptr;
    errno = 0;
    const double arrival = std::strtod(begin, &end);
    if (end == begin || errno == ERANGE || !std::isfinite(arrival) ||
        arrival < 0.0) {
      return Status::InvalidArgument(
          StrFormat("trace: bad arrival time at %s:%zu", path.c_str(),
                    line_number));
    }
    ServeRequest request;
    request.arrival_seconds = arrival;
    request.row = out.size() % num_rows;
    while (*end == ' ' || *end == '\t') ++end;
    if (*end == ',') {
      const char* row_begin = end + 1;
      errno = 0;
      const long long row = std::strtoll(row_begin, &end, 10);
      if (end == row_begin || errno == ERANGE || row < 0) {
        return Status::InvalidArgument(
            StrFormat("trace: bad row index at %s:%zu", path.c_str(),
                      line_number));
      }
      request.row = static_cast<size_t>(row) % num_rows;
    }
    while (*end == ' ' || *end == '\t') ++end;
    if (*end != '\0') {
      return Status::InvalidArgument(
          StrFormat("trace: trailing characters at %s:%zu", path.c_str(),
                    line_number));
    }
    out.push_back(request);
  }
  // A path that opens but cannot be read (a directory) ends the loop
  // with badbit set, not at end of file.
  if (in.bad()) return Status::IoError("trace: read failed: " + path);
  std::stable_sort(out.begin(), out.end(),
                   [](const ServeRequest& a, const ServeRequest& b) {
                     return a.arrival_seconds < b.arrival_seconds;
                   });
  return out;
}

}  // namespace green
