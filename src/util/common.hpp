// Common small utilities shared across the mspgemm library.
//
// Everything in this library lives in namespace `msp`. Index and value types
// are template parameters throughout; `MSP_ASSERT` guards internal invariants
// in debug builds without imposing cost on release benchmarking builds.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>

#if defined(_OPENMP)
#include <omp.h>
#endif

#ifndef NDEBUG
#define MSP_ASSERT(cond) assert(cond)
#else
#define MSP_ASSERT(cond) ((void)0)
#endif

namespace msp {

/// Default index type. 32-bit indices suffice for the laptop-scale corpus;
/// every container/algorithm is templated so 64-bit works transparently.
using index_t = std::int32_t;

/// Thrown for user-facing misuse (dimension mismatch, malformed input files).
class invalid_argument_error : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Thrown when parsing external data (Matrix Market files) fails.
class io_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Number of OpenMP threads that a parallel region would use right now.
inline int max_threads() {
#if defined(_OPENMP)
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Calling thread's id inside a parallel region (0 outside).
inline int thread_id() {
#if defined(_OPENMP)
  return omp_get_thread_num();
#else
  return 0;
#endif
}

/// Set the global OpenMP thread count (no-op without OpenMP).
inline void set_threads(int n) {
#if defined(_OPENMP)
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

/// Checked narrowing conversion between integral types.
template <class To, class From>
To checked_cast(From v) {
  static_assert(std::is_integral_v<To> && std::is_integral_v<From>);
  if constexpr (sizeof(From) > sizeof(To) ||
                (std::is_signed_v<From> != std::is_signed_v<To>)) {
    if (v < static_cast<From>(std::numeric_limits<To>::lowest()) ||
        static_cast<std::uintmax_t>(v > 0 ? v : 0) >
            static_cast<std::uintmax_t>(std::numeric_limits<To>::max())) {
      throw invalid_argument_error("checked_cast: value out of range");
    }
  }
  return static_cast<To>(v);
}

/// Smallest power of two >= v (v >= 1). Used to size hash accumulators.
inline std::size_t next_pow2(std::size_t v) {
  if (v <= 1) return 1;
  --v;
  v |= v >> 1;
  v |= v >> 2;
  v |= v >> 4;
  v |= v >> 8;
  v |= v >> 16;
  if constexpr (sizeof(std::size_t) == 8) v |= v >> 32;
  return v + 1;
}

/// Integer ceil-division.
template <class T>
constexpr T ceil_div(T a, T b) {
  return (a + b - 1) / b;
}

}  // namespace msp
