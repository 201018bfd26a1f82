#include "window/panes.h"

#include "common/macros.h"

namespace asap {
namespace window {

size_t Gcd(size_t a, size_t b) {
  while (b != 0) {
    size_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

std::vector<Pane> BuildPanes(const std::vector<double>& x, size_t pane_size) {
  ASAP_CHECK_GE(pane_size, 1u);
  std::vector<Pane> panes;
  panes.reserve(x.size() / pane_size + 1);
  Pane current;
  for (double v : x) {
    current.sum += v;
    current.count += 1;
    if (current.count == pane_size) {
      panes.push_back(current);
      current = Pane{};
    }
  }
  if (current.count > 0) {
    panes.push_back(current);
  }
  return panes;
}

std::vector<double> PaneSma(const std::vector<double>& x, size_t w,
                            size_t slide) {
  ASAP_CHECK_GE(w, 1u);
  ASAP_CHECK_GE(slide, 1u);
  ASAP_CHECK_LE(w, x.size());

  const size_t pane_size = Gcd(w, slide);
  const size_t panes_per_window = w / pane_size;
  const size_t panes_per_slide = slide / pane_size;

  std::vector<Pane> panes = BuildPanes(x, pane_size);

  std::vector<double> out;
  const double inv_w = 1.0 / static_cast<double>(w);
  for (size_t start = 0; start + panes_per_window <= panes.size();
       start += panes_per_slide) {
    double sum = 0.0;
    size_t count = 0;
    for (size_t p = start; p < start + panes_per_window; ++p) {
      sum += panes[p].sum;
      count += panes[p].count;
    }
    if (count < w) {
      break;  // trailing partial pane: not a full window
    }
    out.push_back(sum * inv_w);
  }
  return out;
}

PaneBuffer::PaneBuffer(size_t pane_size, size_t max_panes, int64_t epoch,
                       int64_t width_ticks)
    : pane_size_(pane_size),
      max_panes_(max_panes),
      epoch_(epoch),
      width_ticks_(width_ticks) {
  ASAP_CHECK_GE(pane_size, 1u);
  ASAP_CHECK_GE(max_panes, 1u);
  ring_.reserve(max_panes);
}

void PaneBuffer::Retain(double mean) {
  if (ring_.size() < max_panes_) {
    ring_.push_back(mean);  // within the reserved capacity
    return;
  }
  ring_[head_] = mean;
  head_ = head_ + 1 == max_panes_ ? 0 : head_ + 1;
}

void PaneBuffer::CommitCurrent() {
  // The sink gets the exact mean the query path will later read back —
  // recovery restores this double bitwise.
  const double mean = current_.Mean();
  if (sink_ != nullptr) {
    sink_(sink_ctx_, mean);
  }
  Retain(mean);
  current_ = Pane{};
}

void PaneBuffer::RestoreCompleted(double mean) {
  ASAP_CHECK_EQ(current_.count, 0u);  // restore precedes live ingest
  points_consumed_ += pane_size_;
  Retain(mean);
}

}  // namespace window
}  // namespace asap
