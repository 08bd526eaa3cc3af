/**
 * @file
 * Global heap-allocation counter for the zero-allocation tests.
 *
 * alloc_counter.cc replaces the global operator new/delete with
 * counting versions. It is not part of the espsim library: only the
 * espsim_alloc_tests executable links it, so tests there can assert
 * that the steady-state simulation loop performs no heap allocation
 * (docs/PERFORMANCE.md, "zero-allocation invariant") while every
 * other binary keeps the standard allocator.
 */

#ifndef ESPSIM_COMMON_ALLOC_COUNTER_HH
#define ESPSIM_COMMON_ALLOC_COUNTER_HH

#include <cstdint>

namespace espsim
{

/** Total operator-new calls so far in this process. */
std::uint64_t allocCount();

} // namespace espsim

#endif // ESPSIM_COMMON_ALLOC_COUNTER_HH
