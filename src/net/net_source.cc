#include "net/net_source.h"

#include "common/macros.h"
#include "common/stopwatch.h"

namespace asap {
namespace net {

NetMultiSource::NetMultiSource(WireServer* server,
                               NetMultiSourceOptions options)
    : server_(server), options_(options) {
  ASAP_CHECK(server_ != nullptr);
  ASAP_CHECK_GE(options_.poll_timeout_ms, 1);
  ASAP_CHECK_GE(options_.idle_timeout_ms, 0);
}

size_t NetMultiSource::NextBatch(size_t max_records,
                                 stream::RecordBatch* out) {
  ASAP_CHECK_GE(max_records, 1u);
  Stopwatch idle;
  for (;;) {
    if (stopped()) {
      return 0;
    }
    const size_t n = server_->PollOnce(options_.poll_timeout_ms, max_records,
                                       out);
    if (n > 0) {
      const int64_t mark = server_->low_mark();
      if (mark > last_mark_) {
        out->push_back(stream::Record{stream::kLowMarkId, 0.0, mark});
        last_mark_ = mark;
      }
      return n;
    }
    if (options_.exit_when_drained && server_->ever_accepted() &&
        server_->active_connections() == 0 &&
        server_->pending_records() == 0) {
      return 0;
    }
    if (options_.idle_timeout_ms > 0 &&
        idle.ElapsedSeconds() * 1000.0 >= options_.idle_timeout_ms) {
      return 0;  // continuously idle: let the caller's loop breathe
    }
  }
}

}  // namespace net
}  // namespace asap
