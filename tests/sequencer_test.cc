// Property tests for the per-shard reordering sequencer: across
// random seeds, emitted order is sorted by (ts, arrival), late counts
// match an independent replay of the late rule exactly, and the
// emitted multiset equals the accepted records — so the sequencer is
// a pure reorder-or-drop stage, never a mutate stage. Low marks only
// release earlier: late-free input emits the same sequence with and
// without them. A live-bytes counting allocator pins that in-order
// traffic keeps memory bounded by the horizon.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "stream/sequencer.h"

// --- Global live-byte counting -----------------------------------------------
//
// Every allocation carries a 16-byte header holding its size (16 keeps
// the returned pointer max_align_t-aligned), so deallocation can
// subtract exactly what allocation added. Counting is process-wide;
// the memory test reads it around the calls under test.

namespace {
std::atomic<int64_t> g_live_bytes{0};
constexpr size_t kHeaderBytes = 16;

void* CountedAlloc(std::size_t size) {
  void* raw = std::malloc(size + kHeaderBytes);
  if (raw == nullptr) {
    throw std::bad_alloc();
  }
  *static_cast<std::size_t*>(raw) = size;
  g_live_bytes.fetch_add(static_cast<int64_t>(size), std::memory_order_relaxed);
  return static_cast<char*>(raw) + kHeaderBytes;
}

void CountedFree(void* p) noexcept {
  if (p == nullptr) {
    return;
  }
  void* raw = static_cast<char*>(p) - kHeaderBytes;
  g_live_bytes.fetch_sub(
      static_cast<int64_t>(*static_cast<std::size_t*>(raw)),
      std::memory_order_relaxed);
  std::free(raw);
}
}  // namespace

// GCC pairs call sites that inlined the *default* operator new with
// these replacements and warns about malloc/free mismatch; with both
// sides globally replaced the pairing is correct.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }

namespace asap {
namespace stream {
namespace {

TEST(SequencerTest, HoldsRecordsInsideTheHorizonUntilFlush) {
  Sequencer seq(100);
  const RecordBatch input = {{1, 1.0, 10}, {1, 2.0, 30}, {1, 3.0, 20}};
  RecordBatch out;
  // Watermark 30, floor -70: everything is inside the horizon.
  EXPECT_EQ(seq.Push(input.data(), input.size(), &out), 0u);
  EXPECT_EQ(seq.buffered(), 3u);
  EXPECT_EQ(seq.Flush(&out), 3u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].ts, 10);
  EXPECT_EQ(out[1].ts, 20);
  EXPECT_EQ(out[2].ts, 30);
}

TEST(SequencerTest, ReleasesRecordsThatAgePastTheHorizon) {
  Sequencer seq(10);
  RecordBatch out;
  const Record early{1, 1.0, 0};
  seq.Push(&early, 1, &out);
  EXPECT_TRUE(out.empty());  // watermark 0, floor -10
  const Record later{1, 2.0, 25};
  seq.Push(&later, 1, &out);
  // Watermark 25, floor 15: ts 0 is released, ts 25 still staged.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].ts, 0);
  EXPECT_EQ(seq.buffered(), 1u);
}

TEST(SequencerTest, DropsLateRecordsAndCountsPerSeries) {
  Sequencer seq(10);
  RecordBatch out;
  const Record head{1, 1.0, 100};
  seq.Push(&head, 1, &out);
  // Floor is 90: ts 50 and 89 are late, ts 90 is on time.
  const RecordBatch tail = {{2, 2.0, 50}, {3, 3.0, 89}, {2, 4.0, 90}};
  seq.Push(tail.data(), tail.size(), &out);
  EXPECT_EQ(seq.late_dropped(), 2u);
  EXPECT_EQ(seq.late_by_series().at(2), 1u);
  EXPECT_EQ(seq.late_by_series().at(3), 1u);
  // ts 90 sits exactly at the floor (watermark - horizon), so it was
  // released by the Push itself; only ts 100 waits for Flush.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].ts, 90);
  RecordBatch rest;
  seq.Flush(&rest);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].ts, 100);
}

TEST(SequencerTest, LateRuleFollowsArrivalOrderWithinABatch) {
  // The watermark advances per record in arrival order: {100, 50}
  // drops the 50 (it arrives behind a newer record), but {50, 100} —
  // the same timestamps in order — drops nothing. In-order input is
  // never late, whatever its span.
  Sequencer backwards(10);
  const RecordBatch reversed = {{1, 1.0, 100}, {1, 2.0, 50}};
  RecordBatch out;
  backwards.Push(reversed.data(), reversed.size(), &out);
  EXPECT_EQ(backwards.late_dropped(), 1u);
  RecordBatch rest;
  backwards.Flush(&rest);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].ts, 100);

  Sequencer forwards(10);
  const RecordBatch in_order = {{1, 2.0, 50}, {1, 1.0, 100}};
  out.clear();
  forwards.Push(in_order.data(), in_order.size(), &out);
  forwards.Flush(&out);
  EXPECT_EQ(forwards.late_dropped(), 0u);
  EXPECT_EQ(out.size(), 2u);
}

TEST(SequencerTest, LowMarkReleasesBeforeTheHorizon) {
  Sequencer seq(100);
  const RecordBatch input = {{1, 1.0, 10}, {1, 2.0, 30}, {1, 3.0, 20}};
  RecordBatch out;
  // Watermark 30 puts the horizon floor at -70, but the mark promises
  // nothing older than 25 follows: ts 10 and 20 go now.
  EXPECT_EQ(seq.Push(input.data(), input.size(), &out, 25), 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].ts, 10);
  EXPECT_EQ(out[1].ts, 20);
  EXPECT_EQ(seq.released_floor(), 24);
  EXPECT_EQ(seq.buffered(), 1u);
  // A mark-only push (no records) releases what it covers.
  EXPECT_EQ(seq.Push(nullptr, 0, &out, 31), 1u);
  EXPECT_EQ(out.back().ts, 30);
  EXPECT_EQ(seq.buffered(), 0u);
}

TEST(SequencerTest, FloorNeverDropsBelowTheHorizonOrBackwards) {
  Sequencer seq(10);
  RecordBatch out;
  const Record head{1, 1.0, 100};
  // A mark behind the horizon floor changes nothing: floor 90.
  seq.Push(&head, 1, &out, 5);
  EXPECT_EQ(seq.released_floor(), 90);
  seq.Push(nullptr, 0, &out, 96);
  EXPECT_EQ(seq.released_floor(), 95);
  // An older mark never lowers the floor already released.
  seq.Push(nullptr, 0, &out, 50);
  EXPECT_EQ(seq.released_floor(), 95);
  seq.Push(nullptr, 0, &out);
  EXPECT_EQ(seq.released_floor(), 95);
  EXPECT_TRUE(out.empty());  // ts 100 is still above every floor
  EXPECT_EQ(seq.late_dropped(), 0u);
}

TEST(SequencerTest, RecordAtTheReleasedFloorIsOnTimeBelowIsLate) {
  Sequencer seq(100);
  RecordBatch out;
  const Record first{1, 1.0, 50};
  seq.Push(&first, 1, &out, 41);  // floor 40, well above 50 - 100
  EXPECT_EQ(seq.released_floor(), 40);
  EXPECT_TRUE(out.empty());
  // Exactly at the floor: accepted, and released at once.
  const Record at_floor{2, 2.0, 40};
  EXPECT_EQ(seq.Push(&at_floor, 1, &out), 1u);
  EXPECT_EQ(out.back(), at_floor);
  // One tick below it: late, though well inside the horizon.
  const RecordBatch below = {{3, 3.0, 39}, {3, 4.0, 0}, {2, 5.0, 39}};
  EXPECT_EQ(seq.Push(below.data(), below.size(), &out), 0u);
  EXPECT_EQ(seq.late_dropped(), 3u);
  EXPECT_EQ(seq.late_by_series().at(3), 2u);
  EXPECT_EQ(seq.late_by_series().at(2), 1u);
  EXPECT_EQ(seq.buffered(), 1u);
}

TEST(SequencerTest, InOrderTrafficKeepsLiveHeapBoundedByTheHorizon) {
  // Steady in-order traffic extends one run forever, so the run is
  // never fully consumed: only compacting its consumed prefix keeps
  // memory at the staged records' worth instead of everything ever
  // pushed (~134 MB here).
  constexpr int64_t kHorizon = 20000;
  constexpr size_t kBatch = 2048;
  constexpr size_t kBatches = 2048;  // 4.2M records
  const int64_t item_bytes = sizeof(Record) + sizeof(uint64_t);

  Sequencer seq(kHorizon);
  RecordBatch batch(kBatch);
  RecordBatch out;
  out.reserve(2 * kBatch);
  const int64_t base = g_live_bytes.load();
  int64_t peak = 0;
  int64_t ts = 0;
  for (size_t b = 0; b < kBatches; ++b) {
    for (Record& r : batch) {
      r = Record{static_cast<SeriesId>(ts % 128), 1.0, ts};
      ++ts;
    }
    out.clear();
    seq.Push(batch.data(), batch.size(), &out);
    peak = std::max(peak, g_live_bytes.load() - base);
  }
  EXPECT_EQ(seq.late_dropped(), 0u);
  EXPECT_LE(seq.buffered(), static_cast<size_t>(kHorizon) + 1);
  // Staged items are ~0.6 MB; runs may hold twice that plus vector
  // growth slack and the batch-sized scratch. 16x is far below the
  // unbounded ~134 MB.
  EXPECT_LT(peak, 16 * kHorizon * item_bytes)
      << "live heap grew with records pushed, not with the horizon";
}

// ---------------------------------------------------------------------
// Seeded property: random timestamps within and beyond the horizon,
// pushed in random batch splits, checked against an independent
// replay of the sequencer's contract.

class SequencerProperty : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, SequencerProperty,
                         ::testing::Range<uint64_t>(1, 25));

TEST_P(SequencerProperty, EmitsSortedDropsExactlyTheLateOnes) {
  Pcg32 rng(GetParam() * 0x9e3779b97f4a7c15ULL + 12345);
  const int64_t horizon = 20 + static_cast<int64_t>(rng.NextBounded(80));
  Sequencer seq(horizon);

  // A drifting clock with jitter occasionally far enough back to be
  // late. Values encode arrival order so the multiset check below
  // also pins that payloads ride along unmutated.
  const size_t n = 500 + rng.NextBounded(1500);
  RecordBatch input;
  input.reserve(n);
  int64_t clock = 0;
  for (size_t i = 0; i < n; ++i) {
    clock += static_cast<int64_t>(rng.NextBounded(4));
    int64_t ts = clock - static_cast<int64_t>(rng.NextBounded(
                             static_cast<uint32_t>(horizon) * 2));
    input.push_back(
        Record{1 + rng.NextBounded(5), static_cast<double>(i), ts});
  }

  // Reference replay of the contract: the watermark advances per
  // record in arrival order, and a record is late iff
  // ts < watermark - horizon at its own arrival; accepted records are
  // emitted sorted by (ts, arrival index).
  RecordBatch emitted;
  uint64_t expected_late = 0;
  std::unordered_map<SeriesId, uint64_t> expected_late_by_series;
  std::vector<std::pair<int64_t, size_t>> accepted;  // (ts, arrival)
  int64_t watermark = std::numeric_limits<int64_t>::min();

  size_t i = 0;
  while (i < input.size()) {
    const size_t batch = std::min<size_t>(1 + rng.NextBounded(64),
                                          input.size() - i);
    for (size_t k = i; k < i + batch; ++k) {
      watermark = std::max(watermark, input[k].ts);
      if (input[k].ts < watermark - horizon) {
        expected_late += 1;
        expected_late_by_series[input[k].series_id] += 1;
      } else {
        accepted.emplace_back(input[k].ts, k);
      }
    }
    const size_t before = emitted.size();
    const size_t appended = seq.Push(input.data() + i, batch, &emitted);
    EXPECT_EQ(emitted.size(), before + appended);
    i += batch;
  }
  seq.Flush(&emitted);

  EXPECT_EQ(seq.late_dropped(), expected_late);
  EXPECT_EQ(seq.late_by_series().size(), expected_late_by_series.size());
  for (const auto& [id, count] : expected_late_by_series) {
    EXPECT_EQ(seq.late_by_series().at(id), count) << "series " << id;
  }
  EXPECT_EQ(seq.emitted(), emitted.size());
  EXPECT_EQ(seq.buffered(), 0u);
  EXPECT_EQ(seq.records_in(), emitted.size());

  // The emitted sequence IS the accepted records sorted by
  // (ts, arrival) — same length, same order, payloads intact.
  std::sort(accepted.begin(), accepted.end());
  ASSERT_EQ(emitted.size(), accepted.size());
  for (size_t k = 0; k < emitted.size(); ++k) {
    EXPECT_EQ(emitted[k].ts, accepted[k].first) << "position " << k;
    EXPECT_EQ(emitted[k], input[accepted[k].second]) << "position " << k;
    if (k > 0) {
      EXPECT_LE(emitted[k - 1].ts, emitted[k].ts) << "position " << k;
    }
  }
}

TEST_P(SequencerProperty, ShuffleWithinHorizonEmitsTheSortedSequence) {
  // Two pushes of the same multiset in different within-horizon orders
  // must emit identical sequences — the determinism-under-skew
  // property engine parity rests on.
  Pcg32 rng(GetParam() * 0xda3e39cb94b95bdbULL + 7);
  const int64_t horizon = 50;
  const size_t n = 400;

  RecordBatch sorted_input;
  sorted_input.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // Strictly increasing ts so order within equal ts cannot differ.
    sorted_input.push_back(
        Record{1 + rng.NextBounded(3), rng.NextDouble(),
               static_cast<int64_t>(i) * 2});
  }
  RecordBatch shuffled = sorted_input;
  // Displace each record at most horizon/4 ticks (blocks of 8 at
  // stride-2 ticks): comfortably inside the reordering window.
  for (size_t start = 0; start + 8 <= shuffled.size(); start += 8) {
    for (size_t k = 7; k > 0; --k) {
      std::swap(shuffled[start + k],
                shuffled[start + rng.NextBounded(static_cast<uint32_t>(k + 1))]);
    }
  }

  RecordBatch out_sorted;
  RecordBatch out_shuffled;
  Sequencer a(horizon);
  Sequencer b(horizon);
  for (size_t i = 0; i < n; i += 37) {
    const size_t batch = std::min<size_t>(37, n - i);
    a.Push(sorted_input.data() + i, batch, &out_sorted);
    b.Push(shuffled.data() + i, batch, &out_shuffled);
  }
  a.Flush(&out_sorted);
  b.Flush(&out_shuffled);

  EXPECT_EQ(a.late_dropped(), 0u);
  EXPECT_EQ(b.late_dropped(), 0u);
  EXPECT_EQ(out_shuffled, out_sorted);
  EXPECT_EQ(out_sorted.size(), n);
}

TEST_P(SequencerProperty, LowMarksOnlyReleaseEarlier) {
  // Collectors that each send non-decreasing timestamps at different
  // lags, interleaved in random batches the way a wire server delivers
  // them. After each batch the mark is the minimum over collectors of
  // the newest timestamp each has sent — what WireServer::low_mark
  // computes. With a horizon wide enough that nothing is late, the
  // emitted sequence must be identical with and without marks; marks
  // must only make it come out sooner.
  Pcg32 rng(GetParam() * 0x2545f4914f6cdd1dULL + 99);
  const size_t collectors = 2 + rng.NextBounded(3);
  const int64_t horizon = 400;
  std::vector<int64_t> lag(collectors);
  std::vector<int64_t> clock(collectors, 0);
  std::vector<int64_t> newest(collectors, std::numeric_limits<int64_t>::min());
  for (size_t c = 0; c < collectors; ++c) {
    lag[c] = static_cast<int64_t>(rng.NextBounded(60));
  }

  Sequencer marked(horizon);
  Sequencer plain(horizon);
  RecordBatch out_marked;
  RecordBatch out_plain;
  size_t released_early = 0;
  int64_t now = 0;
  for (size_t b = 0; b < 300; ++b) {
    RecordBatch batch;
    const size_t size = 1 + rng.NextBounded(24);
    for (size_t k = 0; k < size; ++k) {
      now += static_cast<int64_t>(rng.NextBounded(3));
      const size_t c = rng.NextBounded(static_cast<uint32_t>(collectors));
      // Collector c stamps its own clock, lag[c] behind, never
      // backwards; equal timestamps across collectors are common.
      clock[c] = std::max(clock[c], now - lag[c]);
      batch.push_back(Record{static_cast<SeriesId>(c),
                             static_cast<double>(b * 100 + k), clock[c]});
      newest[c] = clock[c];
    }
    const int64_t mark = *std::min_element(newest.begin(), newest.end());
    marked.Push(batch.data(), batch.size(), &out_marked, mark);
    plain.Push(batch.data(), batch.size(), &out_plain);
    EXPECT_GE(out_marked.size(), out_plain.size());
    EXPECT_GE(marked.released_floor(), plain.released_floor());
    released_early += out_marked.size() - out_plain.size();
  }
  marked.Flush(&out_marked);
  plain.Flush(&out_plain);

  EXPECT_EQ(marked.late_dropped(), 0u);
  EXPECT_EQ(plain.late_dropped(), 0u);
  EXPECT_EQ(out_marked, out_plain);
  EXPECT_GT(released_early, 0u);
}

}  // namespace
}  // namespace stream
}  // namespace asap
