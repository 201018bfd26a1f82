// Tagged records: the unit of multi-series ingestion. Real deployments
// of ASAP smooth hundreds of metrics per host across a fleet, not one
// series (§2: dashboards "ingest and process raw data from time series
// databases"); every point therefore carries the id of the series it
// belongs to, in the style of Akumuli's per-ParamId query pipeline.

#ifndef ASAP_STREAM_RECORD_H_
#define ASAP_STREAM_RECORD_H_

#include <cstdint>
#include <limits>
#include <vector>

namespace asap {
namespace stream {

/// Identifies one logical time series within a fleet (e.g. one metric
/// on one host). Ids are an implementation detail of the SeriesCatalog
/// (stream/catalog.h), which assigns them densely in intern order —
/// user-facing APIs speak series *names*; nothing outside the catalog
/// should ever mint an id by hand. The width is load-bearing on the
/// wire: binary record frames encode ids as u32 (statically asserted
/// in net/protocol.h).
using SeriesId = uint32_t;

/// One tagged raw point.
///
/// `ts` is the point's timestamp in application-defined ticks (a
/// collector might use milliseconds since epoch; tests use small
/// integers). 0 is the unstamped default: sources that predate
/// timestamps leave it alone, and the engine's arrival-order mode
/// (StreamingOptions::pane_width_ticks == 0) never reads it. Wire
/// input without a timestamp (text lines with two tokens, 0xA5
/// frames) is stamped by the receiving FrameDecoder's stamp clock —
/// or 0 when none is installed.
struct Record {
  SeriesId series_id = 0;
  double value = 0.0;
  int64_t ts = 0;
};

inline bool operator==(const Record& a, const Record& b) {
  return a.series_id == b.series_id && a.value == b.value && a.ts == b.ts;
}

/// Series id of the in-band *low-mark* control record a MultiSource
/// may append after a batch's data records (see MultiSource::NextBatch):
/// {kLowMarkId, 0.0, mark} promises that no record older than `mark`
/// follows. The SeriesCatalog never hands this id out, so the control
/// record cannot be mistaken for a series' point.
inline constexpr SeriesId kLowMarkId = std::numeric_limits<SeriesId>::max();

/// "No low mark": the value that releases nothing (no timestamp is
/// older than it), used wherever a mark is optional.
inline constexpr int64_t kNoLowMark = std::numeric_limits<int64_t>::min();

/// A batch of tagged points, in ingestion order. Per-series order
/// within and across batches is the series' stream order; records of
/// different series may interleave arbitrarily.
using RecordBatch = std::vector<Record>;

}  // namespace stream
}  // namespace asap

#endif  // ASAP_STREAM_RECORD_H_
