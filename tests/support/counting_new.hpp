// The allocation counter of support/counting_new.cpp.
#pragma once

#include <cstdint>

/// Every operator new (any variant) since process start.
extern std::uint64_t g_allocations;
