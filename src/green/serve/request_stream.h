#ifndef GREEN_SERVE_REQUEST_STREAM_H_
#define GREEN_SERVE_REQUEST_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "green/common/status.h"

namespace green {

/// One inference request in an open-loop arrival stream: the client sends
/// at `arrival_seconds` (virtual time) regardless of how the server is
/// doing — exactly the regime where overload, shedding, and deadline
/// machinery matter. `row` indexes the served dataset's feature rows.
struct ServeRequest {
  double arrival_seconds = 0.0;
  size_t row = 0;
};

/// Shape of a synthetic arrival trace. All three kinds draw Poisson
/// arrivals whose instantaneous rate follows the named profile, so the
/// stream is bursty at small timescales even when the rate is flat.
struct TraceSpec {
  enum class Kind {
    kConstant = 0,  ///< Flat rate_rps for the whole duration.
    kDiurnal = 1,   ///< One sinusoidal "day": rate in [0.25, 1.75] x mean.
    kBurst = 2,     ///< Base rate with periodic spikes at burst_rate_rps.
  };

  Kind kind = Kind::kConstant;
  double duration_seconds = 60.0;
  double rate_rps = 10.0;        ///< Mean arrival rate (requests/second).
  double burst_rate_rps = 0.0;   ///< Spike rate; <= 0 means 10 x rate_rps.
  double burst_fraction = 0.1;   ///< Fraction of each burst period spiked.
  uint64_t seed = 42;
};

const char* TraceKindName(TraceSpec::Kind kind);

/// Deterministic synthetic trace: arrivals sorted by time, rows drawn
/// uniformly from [0, num_rows). Same spec + seed => identical trace.
std::vector<ServeRequest> GenerateTrace(const TraceSpec& spec,
                                        size_t num_rows);

/// Loads a trace from CSV: one request per line, `arrival_seconds[,row]`.
/// Lines starting with '#' are comments. Rows are reduced modulo
/// `num_rows`; when the column is absent the line index is used. The
/// result is sorted by arrival time.
Result<std::vector<ServeRequest>> LoadTraceCsv(const std::string& path,
                                               size_t num_rows);

}  // namespace green

#endif  // GREEN_SERVE_REQUEST_STREAM_H_
