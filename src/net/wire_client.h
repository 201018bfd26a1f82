// WireClient: the sending half of the wire protocol, used by tests
// and benches to replay datasets over loopback and by the wire_fleet
// demo's collector process. Resolves record ids to series names
// through the *sender's* catalog (names travel on the wire — the
// receiver interns them into its own catalog), encodes in either wire
// encoding, and writes over one blocking TCP or UDS connection.

#ifndef ASAP_NET_WIRE_CLIENT_H_
#define ASAP_NET_WIRE_CLIENT_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "stream/catalog.h"
#include "stream/record.h"

namespace asap {
namespace net {

struct WireClientOptions {
  /// The sender's name table: ids in records passed to Send are this
  /// catalog's ids. Required (borrowed; must outlive the client).
  const stream::SeriesCatalog* catalog = nullptr;
  WireEncoding encoding = WireEncoding::kBinary;
  /// Send per-record timestamps: 0xA7 frames instead of 0xA5,
  /// three-token text lines instead of two. Each record's Record::ts
  /// travels verbatim. Off by default — the pre-timestamp wire bytes
  /// are unchanged, and the receiver server-stamps. Send timestamps
  /// in non-decreasing order on one client: the server then releases
  /// the records as soon as every collector has moved past them. Out
  /// of order is still accepted, but the server stops using this
  /// connection's timestamps as a low mark, and its records (and the
  /// fleet's) wait out the sequencer horizon instead.
  bool timestamped = false;
  /// Records per binary frame (text is unframed lines). Clamped to
  /// kDefaultMaxFrameRecords (kDefaultMaxTimedFrameRecords when
  /// timestamped) at connect — a frame larger than the receiver's
  /// max_frame_bytes poisons the connection, so servers configured
  /// below the default bound need a matching smaller value here.
  size_t frame_records = 512;
  /// Encoded bytes buffered before an automatic flush.
  size_t send_buffer_bytes = 256 * 1024;
};

/// One collector connection. Move-only; Close() (or destruction)
/// flushes nothing — call Flush() after the last Send.
class WireClient {
 public:
  static Result<WireClient> ConnectTcp(const std::string& host, uint16_t port,
                                       WireClientOptions options = {});
  static Result<WireClient> ConnectUds(const std::string& path,
                                       WireClientOptions options = {});

  /// Encodes and (once the buffer fills) sends records.
  Status Send(const stream::Record* records, size_t n);
  Status Send(const stream::RecordBatch& records) {
    return Send(records.data(), records.size());
  }

  /// Writes raw bytes as-is (tests use this to inject malformed
  /// input); flushes the encode buffer first to preserve order.
  Status SendRaw(const std::string& bytes);

  /// Sends any buffered bytes.
  Status Flush();

  /// Flushes nothing; drops the connection (the server sees EOF and
  /// finishes any complete trailing text line).
  void Close() { sock_.Close(); }

  uint64_t records_sent() const { return records_sent_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  const WireClientOptions& options() const { return options_; }

 private:
  WireClient(Socket sock, const WireClientOptions& options);

  Socket sock_;
  WireClientOptions options_;
  WireEncoder encoder_;
  std::string wire_buffer_;
  uint64_t records_sent_ = 0;
  uint64_t bytes_sent_ = 0;
};

}  // namespace net
}  // namespace asap

#endif  // ASAP_NET_WIRE_CLIENT_H_
