// FrameDecoder edge cases for the *named* wire protocol: frames split
// across arbitrary read boundaries, garbage bytes mid-stream,
// oversized frames, CRLF line endings, interleaved encodings, 0xA6
// name-registration semantics (unknown ids, remaps, invalid names) —
// and accounting for every malformed byte skipped.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "net/protocol.h"
#include "stream/catalog.h"

namespace asap {
namespace net {
namespace {

using stream::Record;
using stream::RecordBatch;
using stream::SeriesCatalog;

/// Sender-side fixture: a catalog with a handful of names and records
/// whose values stress round-trip exactness.
struct Sender {
  SeriesCatalog catalog;
  RecordBatch records;

  Sender() {
    const std::vector<std::string> names = {"web-00/cpu", "web-01/cpu",
                                            "db-00/io",   "cache-00/hits"};
    for (const std::string& name : names) {
      catalog.Intern(name);
    }
    records = RecordBatch{
        {0, 1.0},
        {1, -0.25},
        {2, 3.141592653589793},
        {3, 1e-300},               // denormal-adjacent magnitude
        {3, -12345.678901234567},  // needs all 17 digits
        {1, 0.1},                  // classic non-representable decimal
    };
  }

  std::string Encode(WireEncoding encoding, size_t frame_records = 512) {
    std::string wire;
    WireEncoder encoder(&catalog, encoding, frame_records);
    encoder.Encode(records.data(), records.size(), &wire);
    return wire;
  }
};

/// Bitwise record equality *by name*: sender and receiver catalogs
/// assign ids independently, so identity is the interned name plus
/// the exact value bits.
void ExpectBitwiseEqual(const SeriesCatalog& got_catalog,
                        const RecordBatch& got,
                        const SeriesCatalog& want_catalog,
                        const RecordBatch& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got_catalog.NameOf(got[i].series_id),
              want_catalog.NameOf(want[i].series_id))
        << "record " << i;
    uint64_t got_bits, want_bits;
    std::memcpy(&got_bits, &got[i].value, 8);
    std::memcpy(&want_bits, &want[i].value, 8);
    EXPECT_EQ(got_bits, want_bits) << "record " << i;
  }
}

TEST(WireProtocolTest, TextRoundTripIsBitwiseExact) {
  Sender sender;
  const std::string wire = sender.Encode(WireEncoding::kText);
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  RecordBatch out;
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  ExpectBitwiseEqual(sink, out, sender.catalog, sender.records);
  EXPECT_EQ(decoder.stats().text_records, sender.records.size());
  EXPECT_EQ(decoder.stats().malformed_lines, 0u);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(WireProtocolTest, BinaryRoundTripIsBitwiseExact) {
  Sender sender;
  const std::string wire =
      sender.Encode(WireEncoding::kBinary, /*frame_records=*/2);
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  RecordBatch out;
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  ExpectBitwiseEqual(sink, out, sender.catalog, sender.records);
  EXPECT_EQ(decoder.stats().binary_records, sender.records.size());
  EXPECT_EQ(decoder.stats().binary_frames, 3u);  // 6 records / 2 per frame
  // One 0xA6 per distinct series, each announced before first use.
  EXPECT_EQ(decoder.stats().name_registrations, 4u);
  EXPECT_EQ(decoder.stats().unknown_series_records, 0u);
}

// The satellite-task checklist: split-across-read boundaries,
// including mid-0xA6-frame splits.
TEST(WireProtocolTest, DecodesAcrossArbitraryReadBoundaries) {
  Sender sender;
  for (WireEncoding encoding : {WireEncoding::kText, WireEncoding::kBinary}) {
    const std::string wire = sender.Encode(encoding, /*frame_records=*/3);
    for (size_t chunk : {1u, 2u, 3u, 5u, 7u}) {
      SeriesCatalog sink;
      FrameDecoder decoder(&sink);
      RecordBatch out;
      for (size_t pos = 0; pos < wire.size(); pos += chunk) {
        EXPECT_TRUE(decoder.Feed(wire.data() + pos,
                                 std::min(chunk, wire.size() - pos), &out));
      }
      ExpectBitwiseEqual(sink, out, sender.catalog, sender.records);
      EXPECT_EQ(decoder.buffered_bytes(), 0u)
          << WireEncodingName(encoding) << " chunk=" << chunk;
    }
  }
}

TEST(WireProtocolTest, ToleratesCrlfAndEmptyLines) {
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  RecordBatch out;
  const std::string wire = "alpha 2.5\r\n\n\r\n  \nbeta 3.5\n";
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(sink.NameOf(out[0].series_id), "alpha");
  EXPECT_EQ(out[0].value, 2.5);
  EXPECT_EQ(sink.NameOf(out[1].series_id), "beta");
  EXPECT_EQ(out[1].value, 3.5);
  EXPECT_EQ(decoder.stats().malformed_lines, 0u);
}

TEST(WireProtocolTest, SkipsGarbageLinesAndKeepsGoing) {
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  RecordBatch out;
  const std::string wire =
      "good 2.5\n"
      "lonely\n"               // missing value
      "bad nonsense\n"         // unparseable value
      "bad 1.5 trailing\n"     // junk after the value
      "ok-name\t \n"           // name but only trailing space
      "also-good 7.5\n";
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(sink.NameOf(out[0].series_id), "good");
  EXPECT_EQ(sink.NameOf(out[1].series_id), "also-good");
  EXPECT_EQ(decoder.stats().malformed_lines, 4u);
  EXPECT_FALSE(decoder.poisoned());
  // Malformed lines intern nothing: only the two good names exist.
  EXPECT_EQ(sink.size(), 2u);
  EXPECT_FALSE(sink.FindId("bad").has_value());
}

TEST(WireProtocolTest, RejectsInvalidNamesAsMalformed) {
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  RecordBatch out;
  std::string wire;
  wire += std::string(300, 'n') + " 1.0\n";  // name over the length cap
  wire += "caf\xC3\xA9 1.0\n";               // non-ASCII byte in the name
  wire += "fine 1.0\n";
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(sink.NameOf(out[0].series_id), "fine");
  EXPECT_EQ(decoder.stats().malformed_lines, 2u);
  EXPECT_EQ(sink.size(), 1u);
}

TEST(WireProtocolTest, RejectsNonFiniteValuesAsMalformed) {
  // One NaN would poison a series' pane sums for a whole visible
  // window, so non-finite values are malformed, not data.
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  RecordBatch out;
  const std::string wire =
      "a nan\n"
      "b inf\n"
      "c -inf\n"
      "d 1e999\n"   // overflows to +inf
      "e 2.5\n";
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(sink.NameOf(out[0].series_id), "e");
  EXPECT_EQ(decoder.stats().malformed_lines, 4u);
}

TEST(WireProtocolTest, OversizedTextLineIsSkippedNotBuffered) {
  SeriesCatalog sink;
  FrameDecoder decoder(&sink, /*max_frame_bytes=*/64);
  RecordBatch out;
  std::string wire(1000, 'x');  // far over the frame bound, no newline
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  EXPECT_EQ(decoder.buffered_bytes(), 0u);  // discarded, not carried
  // The stream recovers at the line's eventual newline.
  const std::string rest = "yyy\nnext 9.5\n";
  EXPECT_TRUE(decoder.Feed(rest.data(), rest.size(), &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(sink.NameOf(out[0].series_id), "next");
  EXPECT_EQ(out[0].value, 9.5);
  EXPECT_EQ(decoder.stats().malformed_lines, 1u);
}

TEST(WireProtocolTest, OversizedBinaryFramePoisonsTheStream) {
  SeriesCatalog sink;
  FrameDecoder decoder(&sink, /*max_frame_bytes=*/120);
  std::string wire;
  const RecordBatch records(64, Record{1, 2.0});  // 768-byte payload
  AppendBinaryFrame(records.data(), records.size(), &wire);
  RecordBatch out;
  EXPECT_FALSE(decoder.Feed(wire.data(), wire.size(), &out));
  EXPECT_TRUE(decoder.poisoned());
  EXPECT_EQ(decoder.stats().malformed_frames, 1u);
  EXPECT_TRUE(out.empty());
  // Poisoned streams stay dead — even for valid input.
  const std::string good = "fine 2.0\n";
  EXPECT_FALSE(decoder.Feed(good.data(), good.size(), &out));
  EXPECT_TRUE(out.empty());
}

TEST(WireProtocolTest, EncodingZeroRecordsAppendsNothing) {
  // An empty binary frame would read as corrupt framing (payload == 0
  // poisons the decoder), so encoding zero records must be a no-op.
  std::string wire;
  AppendBinaryFrame(nullptr, 0, &wire);
  EXPECT_TRUE(wire.empty());
  SeriesCatalog catalog;
  WireEncoder encoder(&catalog, WireEncoding::kBinary, 512);
  encoder.Encode(nullptr, 0, &wire);
  EXPECT_TRUE(wire.empty());
}

TEST(WireProtocolTest, CorruptBinaryLengthPoisonsTheStream) {
  for (uint32_t bad_payload : {0u, 11u, 13u}) {  // zero / not 12-multiples
    SeriesCatalog sink;
    FrameDecoder decoder(&sink);
    std::string wire;
    wire.push_back(static_cast<char>(kBinaryMagic));
    wire.append(reinterpret_cast<const char*>(&bad_payload), 4);
    RecordBatch out;
    EXPECT_FALSE(decoder.Feed(wire.data(), wire.size(), &out))
        << "payload=" << bad_payload;
    EXPECT_TRUE(decoder.poisoned());
  }
}

TEST(WireProtocolTest, UnregisteredWireIdIsSkippedAndCounted) {
  // A 0xA5 record whose wire id has no 0xA6 registration on this
  // stream must never be guessed at (or silently truncated into some
  // other series) — it is dropped and counted.
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  std::string wire;
  AppendNameFrame(7, "known", &wire);
  const RecordBatch frame = {{7, 1.5}, {8, 99.0}, {7, 2.5}};
  AppendBinaryFrame(frame.data(), frame.size(), &wire);
  RecordBatch out;
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(sink.NameOf(out[0].series_id), "known");
  EXPECT_EQ(out[0].value, 1.5);
  EXPECT_EQ(out[1].value, 2.5);
  EXPECT_EQ(decoder.stats().unknown_series_records, 1u);
  EXPECT_EQ(decoder.stats().binary_records, 2u);
  EXPECT_FALSE(decoder.poisoned());  // framing was intact throughout
}

TEST(WireProtocolTest, WireIdsAreSenderLocal) {
  // Two streams may use the same wire id for different names; each
  // decoder's map is per-connection, so both resolve correctly.
  SeriesCatalog sink;  // one receiver catalog, two connections
  FrameDecoder decoder_a(&sink);
  FrameDecoder decoder_b(&sink);
  std::string wire_a, wire_b;
  AppendNameFrame(0, "from-a", &wire_a);
  AppendNameFrame(0, "from-b", &wire_b);
  const RecordBatch rec = {{0, 1.0}};
  AppendBinaryFrame(rec.data(), rec.size(), &wire_a);
  AppendBinaryFrame(rec.data(), rec.size(), &wire_b);
  RecordBatch out_a, out_b;
  EXPECT_TRUE(decoder_a.Feed(wire_a.data(), wire_a.size(), &out_a));
  EXPECT_TRUE(decoder_b.Feed(wire_b.data(), wire_b.size(), &out_b));
  ASSERT_EQ(out_a.size(), 1u);
  ASSERT_EQ(out_b.size(), 1u);
  EXPECT_EQ(sink.NameOf(out_a[0].series_id), "from-a");
  EXPECT_EQ(sink.NameOf(out_b[0].series_id), "from-b");
  EXPECT_NE(out_a[0].series_id, out_b[0].series_id);
}

TEST(WireProtocolTest, ReRegistrationRemapsAWireId) {
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  std::string wire;
  const RecordBatch rec = {{3, 1.0}};
  AppendNameFrame(3, "first", &wire);
  AppendBinaryFrame(rec.data(), rec.size(), &wire);
  AppendNameFrame(3, "second", &wire);  // last registration wins
  AppendBinaryFrame(rec.data(), rec.size(), &wire);
  RecordBatch out;
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(sink.NameOf(out[0].series_id), "first");
  EXPECT_EQ(sink.NameOf(out[1].series_id), "second");
  EXPECT_EQ(decoder.stats().name_registrations, 2u);
}

TEST(WireProtocolTest, InvalidRegistrationIsSkippedNotPoisoned) {
  // A 0xA6 frame with a sane length but an invalid name payload has a
  // trustworthy resync point (the length), so the stream survives.
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  std::string wire;
  // Build by hand: payload = wire id only, no name bytes.
  wire.push_back(static_cast<char>(kNameMagic));
  const uint32_t payload_len = 4;
  wire.append(reinterpret_cast<const char*>(&payload_len), 4);
  const uint32_t wire_id = 9;
  wire.append(reinterpret_cast<const char*>(&wire_id), 4);
  // And one with a name containing a space (invalid charset).
  wire.push_back(static_cast<char>(kNameMagic));
  const uint32_t payload2 = 4 + 5;
  wire.append(reinterpret_cast<const char*>(&payload2), 4);
  wire.append(reinterpret_cast<const char*>(&wire_id), 4);
  wire.append("a b c", 5);
  // The stream keeps decoding afterwards.
  AppendNameFrame(1, "valid", &wire);
  const RecordBatch rec = {{1, 4.0}};
  AppendBinaryFrame(rec.data(), rec.size(), &wire);
  RecordBatch out;
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(sink.NameOf(out[0].series_id), "valid");
  EXPECT_EQ(decoder.stats().malformed_registrations, 2u);
  EXPECT_EQ(decoder.stats().name_registrations, 1u);
  EXPECT_FALSE(decoder.poisoned());
}

TEST(WireProtocolTest, TextAndBinaryInterleaveOnOneStream) {
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  std::string wire;
  AppendTextRecord("alpha", 1.5, &wire);
  AppendNameFrame(0, "beta", &wire);
  const RecordBatch binary_records = {{0, 3.5}, {0, 4.5}};
  AppendBinaryFrame(binary_records.data(), binary_records.size(), &wire);
  AppendTextRecord("beta", 2.5, &wire);  // same series, text this time
  RecordBatch out;
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(sink.NameOf(out[0].series_id), "alpha");
  EXPECT_EQ(sink.NameOf(out[1].series_id), "beta");
  EXPECT_EQ(out[1].value, 3.5);
  EXPECT_EQ(out[2].value, 4.5);
  // Text and 0xA6 registrations intern into the same catalog entry.
  EXPECT_EQ(out[3].series_id, out[1].series_id);
  EXPECT_EQ(decoder.stats().text_records, 2u);
  EXPECT_EQ(decoder.stats().binary_records, 2u);
  EXPECT_EQ(sink.size(), 2u);
}

TEST(WireProtocolTest, TimedTextRoundTripCarriesTimestamps) {
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  RecordBatch out;
  std::string wire;
  AppendTextRecord("alpha", 2.5, 1000, &wire);
  AppendTextRecord("beta", -0.25, -7, &wire);  // negative ticks are data
  AppendTextRecord("alpha", 3.5, &wire);       // two-token: stamped (0)
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].ts, 1000);
  EXPECT_EQ(out[1].ts, -7);
  EXPECT_EQ(out[2].ts, 0);  // no stamp clock installed
  EXPECT_EQ(decoder.stats().timed_records, 2u);
  EXPECT_EQ(decoder.stats().stamped_records, 1u);
  EXPECT_EQ(decoder.stats().timed_records + decoder.stats().stamped_records,
            decoder.stats().records);
}

TEST(WireProtocolTest, TimedBinaryRoundTripIsBitwiseExact) {
  Sender sender;
  for (Record& r : sender.records) {
    r.ts = 5000 + static_cast<int64_t>(&r - sender.records.data()) * 17;
  }
  std::string wire;
  WireEncoder encoder(&sender.catalog, WireEncoding::kBinary,
                      /*frame_records=*/2, /*timestamped=*/true);
  encoder.Encode(sender.records.data(), sender.records.size(), &wire);
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  RecordBatch out;
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  ExpectBitwiseEqual(sink, out, sender.catalog, sender.records);
  ASSERT_EQ(out.size(), sender.records.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].ts, sender.records[i].ts) << "record " << i;
  }
  EXPECT_EQ(decoder.stats().binary_frames, 3u);
  EXPECT_EQ(decoder.stats().timed_records, sender.records.size());
  EXPECT_EQ(decoder.stats().stamped_records, 0u);
}

TEST(WireProtocolTest, TimedAndUntimedFramesInterleaveOnOneStream) {
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  std::string wire;
  AppendNameFrame(1, "mixed", &wire);
  const RecordBatch untimed = {{1, 1.5}};
  const RecordBatch timed = {{1, 2.5, 42}};
  AppendBinaryFrame(untimed.data(), untimed.size(), &wire);
  AppendTimedFrame(timed.data(), timed.size(), &wire);
  RecordBatch out;
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].ts, 0);  // 0xA5: server-stamped (no clock -> 0)
  EXPECT_EQ(out[1].ts, 42);  // 0xA7: wire timestamp verbatim
  EXPECT_EQ(decoder.stats().timed_records, 1u);
  EXPECT_EQ(decoder.stats().stamped_records, 1u);
}

TEST(WireProtocolTest, StampClockStampsOnlyUnstampedRecords) {
  // The decoder's stamp clock fills in timestamps for wire forms that
  // carry none (two-token text, 0xA5); records with a wire timestamp
  // keep it — the server never overrides a collector's clock.
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  int64_t clock = 100;
  decoder.set_stamp_clock(
      [](void* ctx) { return (*static_cast<int64_t*>(ctx))++; }, &clock);
  std::string wire;
  AppendTextRecord("a", 1.0, &wire);       // stamped: 100
  AppendTextRecord("a", 2.0, 5555, &wire); // wire ts kept
  AppendNameFrame(0, "b", &wire);
  const RecordBatch untimed = {{0, 3.0}};  // stamped: 101
  AppendBinaryFrame(untimed.data(), untimed.size(), &wire);
  const RecordBatch timed = {{0, 4.0, -3}};
  AppendTimedFrame(timed.data(), timed.size(), &wire);
  RecordBatch out;
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].ts, 100);
  EXPECT_EQ(out[1].ts, 5555);
  EXPECT_EQ(out[2].ts, 101);
  EXPECT_EQ(out[3].ts, -3);
  EXPECT_EQ(clock, 102);  // called exactly once per unstamped record
  EXPECT_EQ(decoder.stats().timed_records, 2u);
  EXPECT_EQ(decoder.stats().stamped_records, 2u);
}

TEST(WireProtocolTest, LowMarkFollowsInOrderTimedRecordsOnly) {
  // In order: the mark is the newest wire timestamp, equal ones too.
  SeriesCatalog sink;
  FrameDecoder ordered(&sink);
  EXPECT_EQ(ordered.low_mark(), stream::kNoLowMark);
  std::string wire;
  AppendNameFrame(0, "b", &wire);
  const RecordBatch first = {{0, 1.0, 10}, {0, 2.0, 10}, {0, 3.0, 12}};
  AppendTimedFrame(first.data(), first.size(), &wire);
  RecordBatch out;
  EXPECT_TRUE(ordered.Feed(wire.data(), wire.size(), &out));
  EXPECT_EQ(ordered.low_mark(), 12);
  wire.clear();
  AppendTextRecord("a", 4.0, 15, &wire);
  EXPECT_TRUE(ordered.Feed(wire.data(), wire.size(), &out));
  EXPECT_EQ(ordered.low_mark(), 15);

  // One record older than its predecessor, in either wire form, ends
  // the mark for good: newer records after it do not bring it back.
  for (bool text : {false, true}) {
    SCOPED_TRACE(text ? "text" : "binary");
    FrameDecoder decoder(&sink);
    wire.clear();
    if (text) {
      AppendTextRecord("a", 1.0, 20, &wire);
      AppendTextRecord("a", 2.0, 19, &wire);
    } else {
      AppendNameFrame(0, "b", &wire);
      const RecordBatch shuffled = {{0, 1.0, 20}, {0, 2.0, 19}};
      AppendTimedFrame(shuffled.data(), shuffled.size(), &wire);
    }
    EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
    EXPECT_EQ(decoder.low_mark(), stream::kNoLowMark);
    wire.clear();
    AppendTextRecord("a", 3.0, 30, &wire);
    EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
    EXPECT_EQ(decoder.low_mark(), stream::kNoLowMark);
  }

  // A server-stamped record ends it as well.
  FrameDecoder mixed(&sink);
  wire.clear();
  AppendTextRecord("a", 1.0, 20, &wire);
  AppendTextRecord("a", 2.0, &wire);
  AppendTextRecord("a", 3.0, 21, &wire);
  EXPECT_TRUE(mixed.Feed(wire.data(), wire.size(), &out));
  EXPECT_EQ(mixed.low_mark(), stream::kNoLowMark);
}

TEST(WireProtocolTest, BadTimestampTokensAreMalformed) {
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  RecordBatch out;
  const std::string wire =
      "a 1.0 notanumber\n"  // unparsable third token
      "a 1.0 12x\n"         // trailing junk inside the token
      "a 1.0 1 2\n"         // fourth token
      "a 1.0 3.5\n"         // fractional ticks are not int64
      "a 1.0 9\n";          // the only valid line
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].ts, 9);
  EXPECT_EQ(decoder.stats().malformed_lines, 4u);
}

TEST(WireProtocolTest, CorruptTimedFrameLengthPoisonsTheStream) {
  // 0xA7 payloads must be a multiple of the 20-byte record size.
  for (uint32_t bad_payload : {0u, 19u, 21u}) {
    SeriesCatalog sink;
    FrameDecoder decoder(&sink);
    std::string wire;
    wire.push_back(static_cast<char>(kTimedMagic));
    wire.append(reinterpret_cast<const char*>(&bad_payload), 4);
    RecordBatch out;
    EXPECT_FALSE(decoder.Feed(wire.data(), wire.size(), &out))
        << "payload=" << bad_payload;
    EXPECT_TRUE(decoder.poisoned());
  }
}

TEST(WireProtocolTest, EofFlushesTrailingUnterminatedLine) {
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  RecordBatch out;
  const std::string wire = "a 2.5\nb 3.5";  // collector closed mid-line
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(decoder.buffered_bytes(), 5u);  // "b 3.5"
  decoder.FinishEof(&out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(sink.NameOf(out[1].series_id), "b");
  EXPECT_EQ(out[1].value, 3.5);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(WireProtocolTest, AbnormalEofNeverParsesATruncatedLine) {
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  RecordBatch out;
  // A crash mid-line: "b 123" is the delivered prefix of "b 123456.0".
  const std::string wire = "a 2.5\nb 123";
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  ASSERT_EQ(out.size(), 1u);
  decoder.AbandonEof();
  EXPECT_EQ(out.size(), 1u);  // the prefix did NOT become {b, 123.0}
  EXPECT_EQ(decoder.stats().malformed_lines, 1u);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(WireProtocolTest, EofCountsTruncatedBinaryFrameAsMalformed) {
  for (unsigned char magic : {kBinaryMagic, kNameMagic}) {
    SeriesCatalog sink;
    FrameDecoder decoder(&sink);
    std::string wire;
    if (magic == kBinaryMagic) {
      AppendNameFrame(1, "cut", &wire);
      const RecordBatch records = {{1, 2.0}, {1, 4.0}};
      AppendBinaryFrame(records.data(), records.size(), &wire);
    } else {
      AppendNameFrame(1, "cut-registration", &wire);
    }
    wire.resize(wire.size() - 5);  // cut the last frame short
    RecordBatch out;
    EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
    decoder.FinishEof(&out);
    EXPECT_EQ(decoder.stats().malformed_frames, 1u)
        << "magic=" << static_cast<int>(magic);
  }
}

TEST(WireProtocolTest, EofFlushEmitsAtMostOneUnitAtEveryPrefix) {
  // The EOF-flush invariant: whatever prefix of a valid stream a
  // connection dies after, FinishEof emits AT MOST ONE more record —
  // the single buffered trailing text line, when it happens to be
  // complete except for its newline. A buffered partial binary frame
  // never yields records (it is counted malformed instead): binary
  // records are only ever decoded from length-complete frames.
  std::string wire;
  AppendTextRecord("t/one", 1.5, 10, &wire);
  AppendNameFrame(2, "b/two", &wire);
  const RecordBatch untimed = {{2, 2.5}, {2, 3.5}};
  AppendBinaryFrame(untimed.data(), untimed.size(), &wire);
  const RecordBatch timed = {{2, 4.5, 20}, {2, 5.5, 21}};
  AppendTimedFrame(timed.data(), timed.size(), &wire);
  AppendTextRecord("t/one", 6.5, &wire);
  for (size_t cut = 0; cut <= wire.size(); ++cut) {
    SeriesCatalog sink;
    FrameDecoder decoder(&sink);
    RecordBatch out;
    EXPECT_TRUE(decoder.Feed(wire.data(), cut, &out)) << "cut=" << cut;
    const size_t before = out.size();
    const uint64_t frames_before = decoder.stats().malformed_frames;
    decoder.FinishEof(&out);
    EXPECT_LE(out.size() - before, 1u) << "cut=" << cut;
    EXPECT_EQ(decoder.buffered_bytes(), 0u) << "cut=" << cut;
    // A truncated binary frame is accounted, never parsed.
    EXPECT_LE(decoder.stats().malformed_frames - frames_before, 1u);
    EXPECT_EQ(decoder.stats().timed_records + decoder.stats().stamped_records,
              decoder.stats().records)
        << "cut=" << cut;
  }
}

// --- Deterministic replay fuzz harness --------------------------------------
//
// A seed-driven generator interleaves valid text records, garbage
// lines, 0xA6 registrations, and 0xA5 record frames (with known and
// unknown wire ids), then replays the stream through the decoder at
// seed-driven split points. Every stream pins the accounting identity
//
//   records + malformed_lines + unknown_series_records == units
//
// where `units` counts every record-bearing unit the generator
// emitted. A second pass mutates random bytes and asserts the decoder
// never crashes, never interns an invalid name, and isolates poison:
// once a Feed returns false, nothing further ever decodes.
// The CI fuzz-smoke step replays this suite's fixed seed list.

struct FuzzScript {
  std::string wire;
  /// Record-bearing units: text lines (valid or malformed) + binary
  /// records (known or unknown wire id). Registrations and empty
  /// lines carry no record and are not units.
  uint64_t units = 0;
  uint64_t expected_records = 0;
  uint64_t expected_malformed_lines = 0;
  uint64_t expected_unknown = 0;
  /// Of expected_records, how many carried a wire timestamp (timed
  /// text lines and 0xA7 records); the rest decode server-stamped.
  uint64_t expected_timed = 0;
};

std::string RandomFuzzName(Pcg32* rng) {
  static const char kChars[] = "abcdefgh01234/._-";
  const size_t len = 1 + rng->NextBounded(10);
  std::string name;
  for (size_t i = 0; i < len; ++i) {
    name.push_back(kChars[rng->NextBounded(sizeof(kChars) - 1)]);
  }
  return name;
}

FuzzScript GenerateScript(uint64_t seed) {
  Pcg32 rng(seed * 6364136223846793005ULL + 1442695040888963407ULL);
  FuzzScript script;
  bool registered[8] = {};
  bool any_registered = false;
  // Each template is exactly one malformed line to the decoder.
  const char* kGarbage[] = {
      "lonely\n",             // name without a value
      "bad nonsense\n",       // unparseable value
      "a 1.5 junk\n",         // trailing junk after the value
      "x inf\n",              // non-finite value
      "caf\xC3\xA9 1.0\n",    // invalid byte in the name
  };
  const size_t steps = 30 + rng.NextBounded(50);
  for (size_t step = 0; step < steps; ++step) {
    switch (rng.NextBounded(8)) {
      case 0:
      case 1:
      case 2: {  // valid text record, timed or not
        if (rng.NextBounded(2) == 0) {
          AppendTextRecord(RandomFuzzName(&rng), rng.Gaussian(0.0, 1e3),
                           static_cast<int64_t>(rng.NextBounded(1u << 20)) -
                               1000,
                           &script.wire);
          script.expected_timed += 1;
        } else {
          AppendTextRecord(RandomFuzzName(&rng), rng.Gaussian(0.0, 1e3),
                           &script.wire);
        }
        script.units += 1;
        script.expected_records += 1;
        break;
      }
      case 3: {  // garbage line
        script.wire += kGarbage[rng.NextBounded(5)];
        script.units += 1;
        script.expected_malformed_lines += 1;
        break;
      }
      case 4: {  // empty / CRLF-only line: no unit
        script.wire += rng.NextBounded(2) == 0 ? "\n" : "\r\n";
        break;
      }
      case 5: {  // 0xA6 registration (possibly a remap)
        const uint32_t id = rng.NextBounded(8);
        AppendNameFrame(id, RandomFuzzName(&rng), &script.wire);
        registered[id] = true;
        any_registered = true;
        break;
      }
      default: {  // 0xA5 or 0xA7 record frame, mixing known/unknown ids
        if (!any_registered) {
          AppendNameFrame(0, RandomFuzzName(&rng), &script.wire);
          registered[0] = true;
          any_registered = true;
        }
        const bool timed = rng.NextBounded(2) == 0;
        RecordBatch frame;
        const size_t n = 1 + rng.NextBounded(6);
        for (size_t i = 0; i < n; ++i) {
          const int64_t ts =
              static_cast<int64_t>(rng.NextBounded(1u << 20)) - 1000;
          if (rng.NextBounded(4) == 0) {
            // A wire id no 0xA6 on this stream ever declared.
            frame.push_back(Record{100 + rng.NextBounded(8), 1.0, ts});
            script.expected_unknown += 1;
          } else {
            uint32_t id = rng.NextBounded(8);
            while (!registered[id]) {
              id = (id + 1) % 8;
            }
            frame.push_back(Record{id, rng.Gaussian(0.0, 1e3), ts});
            script.expected_records += 1;
            if (timed) {
              script.expected_timed += 1;
            }
          }
          script.units += 1;
        }
        if (timed) {
          AppendTimedFrame(frame.data(), frame.size(), &script.wire);
        } else {
          AppendBinaryFrame(frame.data(), frame.size(), &script.wire);
        }
        break;
      }
    }
  }
  return script;
}

class WireFuzz : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz, ::testing::Range<uint64_t>(1, 25));

TEST_P(WireFuzz, ReplayAccountingIsExactAcrossRandomSplitPoints) {
  const FuzzScript script = GenerateScript(GetParam());
  Pcg32 rng(GetParam() * 977);
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  RecordBatch out;
  size_t pos = 0;
  while (pos < script.wire.size()) {
    const size_t chunk =
        std::min<size_t>(1 + rng.NextBounded(64), script.wire.size() - pos);
    EXPECT_TRUE(decoder.Feed(script.wire.data() + pos, chunk, &out));
    pos += chunk;
  }
  decoder.FinishEof(&out);

  EXPECT_FALSE(decoder.poisoned());
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  EXPECT_EQ(decoder.stats().bytes, script.wire.size());
  EXPECT_EQ(out.size(), script.expected_records);
  EXPECT_EQ(decoder.stats().records, script.expected_records);
  EXPECT_EQ(decoder.stats().malformed_lines,
            script.expected_malformed_lines);
  EXPECT_EQ(decoder.stats().unknown_series_records, script.expected_unknown);
  EXPECT_EQ(decoder.stats().timed_records, script.expected_timed);
  EXPECT_EQ(decoder.stats().timed_records + decoder.stats().stamped_records,
            decoder.stats().records);
  // The accounting identity: every record-bearing unit the generator
  // emitted is consumed, counted malformed, or counted unknown.
  EXPECT_EQ(decoder.stats().records + decoder.stats().malformed_lines +
                decoder.stats().unknown_series_records,
            script.units);
  // Nothing interned is ever invalid.
  for (const Record& r : out) {
    EXPECT_TRUE(stream::IsValidSeriesName(sink.NameOf(r.series_id)));
  }
}

TEST_P(WireFuzz, MutatedReplayNeverCrashesAndIsolatesPoison) {
  const FuzzScript script = GenerateScript(GetParam());
  for (uint64_t round = 0; round < 4; ++round) {
    Pcg32 rng(GetParam() * 31337 + round);
    std::string wire = script.wire;
    const size_t mutations = 1 + rng.NextBounded(4);
    for (size_t m = 0; m < mutations; ++m) {
      wire[rng.NextBounded(static_cast<uint32_t>(wire.size()))] =
          static_cast<char>(rng.NextBounded(256));
    }
    SeriesCatalog sink;
    FrameDecoder decoder(&sink);
    RecordBatch out;
    bool poisoned = false;
    size_t pos = 0;
    while (pos < wire.size()) {
      const size_t chunk =
          std::min<size_t>(1 + rng.NextBounded(64), wire.size() - pos);
      const size_t before = out.size();
      const bool alive = decoder.Feed(wire.data() + pos, chunk, &out);
      if (poisoned) {
        // Poison isolation: once dead, always dead, and nothing more
        // ever decodes.
        EXPECT_FALSE(alive);
        EXPECT_EQ(out.size(), before);
      }
      if (!alive) {
        EXPECT_TRUE(decoder.poisoned());
        poisoned = true;
      }
      pos += chunk;
    }
    decoder.FinishEof(&out);
    EXPECT_EQ(poisoned, decoder.poisoned());
    // Even against a hostile stream: every decoded record was counted
    // and resolves to a validly interned name.
    EXPECT_EQ(out.size(), decoder.stats().records);
    for (const Record& r : out) {
      EXPECT_TRUE(stream::IsValidSeriesName(sink.NameOf(r.series_id)));
    }
    // A poisoned stream rejects even pristine input.
    if (poisoned) {
      const std::string good = "fine 2.0\n";
      const size_t before = out.size();
      EXPECT_FALSE(decoder.Feed(good.data(), good.size(), &out));
      EXPECT_EQ(out.size(), before);
    }
  }
}

TEST_P(WireFuzz, TruncatedReplayFlushesAtMostOneUnitAtEof) {
  // Chop a valid stream at a random byte and die there: FinishEof may
  // parse at most the one buffered trailing text line; a partial
  // binary frame becomes exactly one malformed_frames count, never
  // records. Truncating a valid stream can never poison it.
  const FuzzScript script = GenerateScript(GetParam());
  for (uint64_t round = 0; round < 4; ++round) {
    Pcg32 rng(GetParam() * 5551 + round * 97);
    const size_t cut =
        rng.NextBounded(static_cast<uint32_t>(script.wire.size() + 1));
    SeriesCatalog sink;
    FrameDecoder decoder(&sink);
    RecordBatch out;
    size_t pos = 0;
    while (pos < cut) {
      const size_t chunk = std::min<size_t>(1 + rng.NextBounded(64), cut - pos);
      EXPECT_TRUE(decoder.Feed(script.wire.data() + pos, chunk, &out));
      pos += chunk;
    }
    const size_t before = out.size();
    const uint64_t frames_before = decoder.stats().malformed_frames;
    decoder.FinishEof(&out);
    EXPECT_LE(out.size() - before, 1u) << "cut=" << cut;
    EXPECT_LE(decoder.stats().malformed_frames - frames_before, 1u);
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
    EXPECT_FALSE(decoder.poisoned());
    EXPECT_EQ(decoder.stats().timed_records + decoder.stats().stamped_records,
              decoder.stats().records);
    for (const Record& r : out) {
      EXPECT_TRUE(stream::IsValidSeriesName(sink.NameOf(r.series_id)));
    }
  }
}

TEST(WireProtocolTest, StatsCountBytesAndRecords) {
  Sender sender;
  std::string wire = sender.Encode(WireEncoding::kText);
  wire += sender.Encode(WireEncoding::kBinary);
  SeriesCatalog sink;
  FrameDecoder decoder(&sink);
  RecordBatch out;
  EXPECT_TRUE(decoder.Feed(wire.data(), wire.size(), &out));
  EXPECT_EQ(decoder.stats().bytes, wire.size());
  EXPECT_EQ(decoder.stats().records, 2 * sender.records.size());
  EXPECT_EQ(out.size(), 2 * sender.records.size());
}

}  // namespace
}  // namespace net
}  // namespace asap
