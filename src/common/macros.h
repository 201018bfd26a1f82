// Core preprocessor utilities shared across libasap.
//
// Follows the Arrow/Google convention: invariant violations in release
// builds abort with a message (ASAP_CHECK); debug-only checks compile
// away in release builds (ASAP_DCHECK).

#ifndef ASAP_COMMON_MACROS_H_
#define ASAP_COMMON_MACROS_H_

#include <cstdio>
#include <cstdlib>

#define ASAP_STRINGIFY_IMPL(x) #x
#define ASAP_STRINGIFY(x) ASAP_STRINGIFY_IMPL(x)

#define ASAP_CONCAT_IMPL(a, b) a##b
#define ASAP_CONCAT(a, b) ASAP_CONCAT_IMPL(a, b)

#if defined(__GNUC__) || defined(__clang__)
#define ASAP_PREDICT_TRUE(x) (__builtin_expect(!!(x), 1))
#define ASAP_PREDICT_FALSE(x) (__builtin_expect(!!(x), 0))
#define ASAP_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define ASAP_PREDICT_TRUE(x) (x)
#define ASAP_PREDICT_FALSE(x) (x)
#define ASAP_ALWAYS_INLINE inline
#endif

/// Aborts the process if `condition` is false. Active in all build types;
/// use for programmer errors that must never ship (e.g. out-of-range
/// window sizes produced by internal search code).
#define ASAP_CHECK(condition)                                             \
  do {                                                                    \
    if (ASAP_PREDICT_FALSE(!(condition))) {                               \
      std::fprintf(stderr, "ASAP_CHECK failed at %s:%d: %s\n", __FILE__,  \
                   __LINE__, ASAP_STRINGIFY(condition));                  \
      std::abort();                                                       \
    }                                                                     \
  } while (false)

#define ASAP_CHECK_OP(lhs, rhs, op)                                       \
  do {                                                                    \
    if (ASAP_PREDICT_FALSE(!((lhs)op(rhs)))) {                            \
      std::fprintf(stderr, "ASAP_CHECK failed at %s:%d: %s %s %s\n",      \
                   __FILE__, __LINE__, ASAP_STRINGIFY(lhs),               \
                   ASAP_STRINGIFY(op), ASAP_STRINGIFY(rhs));              \
      std::abort();                                                       \
    }                                                                     \
  } while (false)

#define ASAP_CHECK_EQ(a, b) ASAP_CHECK_OP(a, b, ==)
#define ASAP_CHECK_NE(a, b) ASAP_CHECK_OP(a, b, !=)
#define ASAP_CHECK_LT(a, b) ASAP_CHECK_OP(a, b, <)
#define ASAP_CHECK_LE(a, b) ASAP_CHECK_OP(a, b, <=)
#define ASAP_CHECK_GT(a, b) ASAP_CHECK_OP(a, b, >)
#define ASAP_CHECK_GE(a, b) ASAP_CHECK_OP(a, b, >=)

#ifdef NDEBUG
#define ASAP_DCHECK(condition) \
  do {                         \
  } while (false)
#else
#define ASAP_DCHECK(condition) ASAP_CHECK(condition)
#endif

/// Propagates a non-OK Status out of the enclosing function
/// (Arrow's ARROW_RETURN_NOT_OK idiom).
#define ASAP_RETURN_NOT_OK(expr)                \
  do {                                          \
    ::asap::Status _st = (expr);                \
    if (ASAP_PREDICT_FALSE(!_st.ok())) {        \
      return _st;                               \
    }                                           \
  } while (false)

/// Evaluates a Result<T> expression; on success binds the value to `lhs`,
/// otherwise returns the error Status from the enclosing function.
#define ASAP_ASSIGN_OR_RETURN(lhs, expr)                    \
  auto ASAP_CONCAT(_result_, __LINE__) = (expr);            \
  if (ASAP_PREDICT_FALSE(!ASAP_CONCAT(_result_, __LINE__)   \
                              .ok())) {                     \
    return ASAP_CONCAT(_result_, __LINE__).status();        \
  }                                                         \
  lhs = std::move(ASAP_CONCAT(_result_, __LINE__)).ValueOrDie()

#endif  // ASAP_COMMON_MACROS_H_
