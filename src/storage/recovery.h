// Recovery: rebuilding the live fleet from the durable tier.
//
// DurableStore::Open already does the storage-level half (manifest
// load, WAL tail replay, torn-tail truncation). This header is the
// engine-level half: pushing the recovered pane history back through
// the SeriesCatalog + ShardedEngine ingest surface so dashboards see
// the fleet exactly where it left off.
//
// Every recovered pane replays through the live refresh cadence
// (StreamingAsap::RestorePanes), so published frames, snapshot rings
// and frame counters come out bitwise identical to a process that
// never crashed (the crash-recovery property tests pin this). Cost:
// one window search per refresh interval of history.

#ifndef ASAP_STORAGE_RECOVERY_H_
#define ASAP_STORAGE_RECOVERY_H_

#include <cstdint>

#include "common/result.h"
#include "storage/store.h"
#include "stream/sharded_engine.h"

namespace asap {
namespace storage {

/// How recovered panes replay. kFaithful, the one fidelity, replays
/// the live refresh cadence (see above).
enum class ReplayFidelity {
  kFaithful,
};

/// What ReplayIntoEngine restored.
struct EngineReplayReport {
  uint64_t series_restored = 0;
  uint64_t panes_restored = 0;
  /// Series skipped: name no longer valid for the catalog, or the
  /// engine already holds points for it (restore is boot-time only).
  uint64_t series_skipped = 0;
};

/// Replays every series in `store` into `engine` (which must be
/// between runs — typically freshly created). Series register in the
/// catalog by name; pane means flow through
/// ShardedEngine::RestoreSeries. Never fails on per-series oddities
/// (they are counted as skipped); only infrastructure errors (chunk
/// IO) surface as a non-OK status.
Result<EngineReplayReport> ReplayIntoEngine(const DurableStore& store,
                                            stream::ShardedEngine* engine,
                                            ReplayFidelity fidelity);

}  // namespace storage
}  // namespace asap

#endif  // ASAP_STORAGE_RECOVERY_H_
