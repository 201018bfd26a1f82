// SeriesCatalog: the fleet's name table. Operators watch *named*
// metrics ("server load over time", paper §1–2) — "host-07/cpu", not
// an integer a caller minted by hand. The catalog interns each name
// once into an arena-backed string pool (Akumuli stringpool-style:
// names are appended to fixed-size blocks and never move, so a
// returned string_view is stable for the catalog's lifetime) and hands
// back a dense internal SeriesId. Ids stay uint32_t inside the engine
// (hash sharding, registry keys, binary wire frames) but are an
// implementation detail of the catalog — public APIs speak names.
//
// Thread model: many threads intern and resolve concurrently (the
// engine's producer interns wire names while dashboard readers resolve
// ids back to names through FleetView). Reads take a shared lock;
// only a first-sight intern takes the exclusive lock, so the
// steady-state path — every name already interned — is shared-lock
// lookups with zero allocation.

#ifndef ASAP_STREAM_CATALOG_H_
#define ASAP_STREAM_CATALOG_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <regex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "stream/record.h"

namespace asap {
namespace stream {

/// Longest series name the catalog (and the wire protocol) accepts.
constexpr size_t kMaxSeriesNameBytes = 256;

/// A valid series name is 1..kMaxSeriesNameBytes bytes of printable
/// ASCII excluding space ([0x21, 0x7E]). The charset makes names safe
/// as single tokens on the text wire protocol, in logs, and on
/// dashboards; it also guarantees a name can never begin with a
/// binary frame magic byte.
bool IsValidSeriesName(std::string_view name);

/// Name -> id interning table over an arena string pool.
class SeriesCatalog {
 public:
  /// Bytes per arena block. One block holds dozens-to-hundreds of
  /// names, so the intern path allocates at most once per that many
  /// first-sight names (and never for names already interned).
  static constexpr size_t kDefaultArenaBlockBytes = 16 * 1024;

  explicit SeriesCatalog(size_t arena_block_bytes = kDefaultArenaBlockBytes);

  SeriesCatalog(const SeriesCatalog&) = delete;
  SeriesCatalog& operator=(const SeriesCatalog&) = delete;

  /// Returns the id for `name`, assigning the next dense id on first
  /// sight. Aborts on an invalid name (callers on untrusted input —
  /// the wire decoder — validate first and treat invalid names as
  /// malformed input instead of calling this), and before it would
  /// hand out kLowMarkId.
  SeriesId Intern(std::string_view name);

  /// The interned name for `id`. The returned view points into the
  /// arena and stays valid for the catalog's lifetime. Aborts if `id`
  /// was never assigned.
  std::string_view NameOf(SeriesId id) const;

  /// The id for `name` if it has been interned.
  std::optional<SeriesId> FindId(std::string_view name) const;

  /// Distinct names interned so far. Ids are dense: every id in
  /// [0, size()) is assigned.
  size_t size() const;

  /// Arena blocks allocated so far (growth observability: tests pin
  /// that interning N short names costs at most a handful of blocks,
  /// and that re-interning existing names costs none).
  size_t arena_blocks() const;

  /// Name bytes stored in the arena.
  size_t arena_bytes() const;

 private:
  /// Copies `name` into the arena; the result is stable storage.
  std::string_view ArenaStore(std::string_view name);

  const size_t arena_block_bytes_;

  mutable std::shared_mutex mu_;
  std::vector<std::unique_ptr<char[]>> blocks_;
  size_t block_used_ = 0;   // bytes used in blocks_.back()
  size_t arena_bytes_ = 0;  // total name bytes stored
  /// Keys point into the arena, so lookups on a string_view probe need
  /// no copy and no allocation.
  std::unordered_map<std::string_view, SeriesId> index_;
  /// id -> arena-backed name, indexed by the dense id.
  std::vector<std::string_view> names_;
};

/// How a SeriesSelector pattern is interpreted.
enum class SelectorKind {
  /// Matches every name (the fleet-wide selector).
  kAll,
  /// Shell-style glob: `*` matches any run of bytes (including none),
  /// `?` matches exactly one byte, every other byte matches itself.
  /// A pattern with no metacharacters is an exact-name match.
  kGlob,
  /// ECMAScript regular expression, anchored (the whole name must
  /// match, like std::regex_match / Akumuli's series-index
  /// regex_match).
  kRegex,
};

/// A compiled name predicate over the catalog (Akumuli's series-index
/// regex matching is the model). Compile once, then Matches() is
/// allocation-free for glob/all and allocation-stable for regex, so a
/// selector can sit on a dashboard's per-frame query path. Selectors
/// are immutable after construction and safe to share across threads.
class SeriesSelector {
 public:
  /// Matches every series.
  static SeriesSelector All();

  /// Compiles a glob pattern (never fails: any byte sequence is a
  /// valid glob; bytes outside the series-name charset simply never
  /// match an interned name).
  static SeriesSelector Glob(std::string_view pattern);

  /// Compiles an anchored ECMAScript regex; fails with
  /// InvalidArgument on a malformed pattern. Caveat: std::regex has
  /// no step bound, so a well-formed but pathological pattern (e.g.
  /// "(a|aa)*x") can backtrack exponentially against a long name —
  /// regex selectors are for operator-authored patterns; never
  /// compile untrusted input, and prefer globs on hot query paths.
  static Result<SeriesSelector> Regex(std::string_view pattern);

  /// Whether `name` matches. Safe from any thread.
  bool Matches(std::string_view name) const;

  /// Appends the ids of every interned name that matches, in dense id
  /// (first-seen) order, to *out (cleared first). Ids interned by
  /// another thread after the embedded size() read may be missed —
  /// the same point-in-time guarantee every catalog read has.
  void SelectInto(const SeriesCatalog& catalog,
                  std::vector<SeriesId>* out) const;

  /// Convenience wrapper over SelectInto.
  std::vector<SeriesId> Select(const SeriesCatalog& catalog) const;

  SelectorKind kind() const { return kind_; }
  const std::string& pattern() const { return pattern_; }

 private:
  SeriesSelector(SelectorKind kind, std::string pattern)
      : kind_(kind), pattern_(std::move(pattern)) {}

  SelectorKind kind_;
  std::string pattern_;
  /// Compiled form when kind_ == kRegex.
  std::regex regex_;
};

/// The glob primitive behind SelectorKind::kGlob (exposed so property
/// tests can pin the compiled selector against a naive reference).
/// Iterative with single-star backtracking: O(name * pattern) worst
/// case, zero allocation.
bool GlobMatch(std::string_view pattern, std::string_view name);

}  // namespace stream
}  // namespace asap

#endif  // ASAP_STREAM_CATALOG_H_
