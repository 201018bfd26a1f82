#include "stream/catalog.h"

#include <cstring>
#include <mutex>

#include "common/macros.h"

namespace asap {
namespace stream {

bool IsValidSeriesName(std::string_view name) {
  if (name.empty() || name.size() > kMaxSeriesNameBytes) {
    return false;
  }
  for (char c : name) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (u < 0x21 || u > 0x7E) {
      return false;
    }
  }
  return true;
}

SeriesCatalog::SeriesCatalog(size_t arena_block_bytes)
    : arena_block_bytes_(arena_block_bytes) {
  // A block must hold the longest legal name, or ArenaStore could loop
  // allocating empty blocks forever.
  ASAP_CHECK_GE(arena_block_bytes_, kMaxSeriesNameBytes);
}

std::string_view SeriesCatalog::ArenaStore(std::string_view name) {
  if (blocks_.empty() || arena_block_bytes_ - block_used_ < name.size()) {
    blocks_.push_back(std::make_unique<char[]>(arena_block_bytes_));
    block_used_ = 0;
  }
  char* dst = blocks_.back().get() + block_used_;
  std::memcpy(dst, name.data(), name.size());
  block_used_ += name.size();
  arena_bytes_ += name.size();
  return std::string_view(dst, name.size());
}

SeriesId SeriesCatalog::Intern(std::string_view name) {
  ASAP_CHECK(IsValidSeriesName(name));
  {
    // Steady state: the name exists — a shared-lock map probe, no
    // copies, no allocation.
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = index_.find(name);
    if (it != index_.end()) {
      return it->second;
    }
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Double-check: another thread may have interned it between locks.
  auto it = index_.find(name);
  if (it != index_.end()) {
    return it->second;
  }
  // Ids run densely from 0; the last one is the in-band low-mark
  // control record's (stream/record.h) and is never handed out.
  ASAP_CHECK_LT(names_.size(), static_cast<size_t>(kLowMarkId));
  const std::string_view stored = ArenaStore(name);
  const SeriesId id = static_cast<SeriesId>(names_.size());
  names_.push_back(stored);
  index_.emplace(stored, id);
  return id;
}

std::string_view SeriesCatalog::NameOf(SeriesId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  ASAP_CHECK_LT(static_cast<size_t>(id), names_.size());
  return names_[id];
}

std::optional<SeriesId> SeriesCatalog::FindId(std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = index_.find(name);
  if (it == index_.end()) {
    return std::nullopt;
  }
  return it->second;
}

size_t SeriesCatalog::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return names_.size();
}

size_t SeriesCatalog::arena_blocks() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return blocks_.size();
}

size_t SeriesCatalog::arena_bytes() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return arena_bytes_;
}

bool GlobMatch(std::string_view pattern, std::string_view name) {
  constexpr size_t kNone = static_cast<size_t>(-1);
  size_t p = 0;
  size_t n = 0;
  size_t star_p = kNone;  // position after the most recent '*'
  size_t star_n = 0;      // name position that '*' has consumed up to
  while (n < name.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == name[n])) {
      ++p;
      ++n;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star_p = ++p;
      star_n = n;
    } else if (star_p != kNone) {
      // Backtrack: let the last '*' swallow one more byte.
      p = star_p;
      n = ++star_n;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') {
    ++p;
  }
  return p == pattern.size();
}

SeriesSelector SeriesSelector::All() {
  return SeriesSelector(SelectorKind::kAll, std::string());
}

SeriesSelector SeriesSelector::Glob(std::string_view pattern) {
  return SeriesSelector(SelectorKind::kGlob, std::string(pattern));
}

Result<SeriesSelector> SeriesSelector::Regex(std::string_view pattern) {
  SeriesSelector selector(SelectorKind::kRegex, std::string(pattern));
  try {
    selector.regex_.assign(selector.pattern_,
                           std::regex_constants::ECMAScript |
                               std::regex_constants::optimize);
  } catch (const std::regex_error& e) {
    return Status::InvalidArgument(std::string("bad series regex: ") +
                                   e.what());
  }
  return selector;
}

bool SeriesSelector::Matches(std::string_view name) const {
  switch (kind_) {
    case SelectorKind::kAll:
      return true;
    case SelectorKind::kGlob:
      return GlobMatch(pattern_, name);
    case SelectorKind::kRegex:
      // Iterator form: anchored whole-name match, no match_results, so
      // steady-state matching does not allocate result storage.
      return std::regex_match(name.begin(), name.end(), regex_);
  }
  return false;
}

void SeriesSelector::SelectInto(const SeriesCatalog& catalog,
                                std::vector<SeriesId>* out) const {
  out->clear();
  const size_t n = catalog.size();
  for (SeriesId id = 0; static_cast<size_t>(id) < n; ++id) {
    if (Matches(catalog.NameOf(id))) {
      out->push_back(id);
    }
  }
}

std::vector<SeriesId> SeriesSelector::Select(
    const SeriesCatalog& catalog) const {
  std::vector<SeriesId> ids;
  SelectInto(catalog, &ids);
  return ids;
}

}  // namespace stream
}  // namespace asap
