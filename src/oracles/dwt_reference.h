#pragma once

// Unblocked per-line DWT drivers: the original element-at-a-time
// implementation of wavelet::forward_dwt / inverse_dwt, kept as their
// equivalence oracle (tests/test_dwt_blocked.cpp) and as the baseline in
// bench_micro's BENCH_wavelet.json record. Bit-identical to the blocked
// drivers. Part of the test/bench-only sperr_oracles library.

#include "common/types.h"
#include "wavelet/kernels.h"

namespace sperr::wavelet {

void forward_dwt_reference(double* data, Dims dims, Kernel kernel = Kernel::cdf97);
void inverse_dwt_reference(double* data, Dims dims, Kernel kernel = Kernel::cdf97);

}  // namespace sperr::wavelet
