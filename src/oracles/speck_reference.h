#pragma once

// The original recursive SPECK coder, kept as the bit-exactness oracle for
// speck::encode / speck::decode: the same stream bytes, EncodeStats,
// reconstruction and DecodeStats for every input, mode and budget, including
// truncated and corrupt streams. Differentially tested in
// tests/test_speck_fast.cpp; the production coder's speedup over it is
// recorded by `bench_micro --speck_json` (BENCH_speck.json). Part of the
// test/bench-only sperr_oracles library; it has no coefficient-count limit.

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "speck/decoder.h"
#include "speck/encoder.h"

namespace sperr::speck {

std::vector<uint8_t> encode_reference(const double* coeffs,
                                      Dims dims,
                                      double q,
                                      size_t budget_bits = 0,
                                      EncodeStats* stats = nullptr,
                                      std::vector<double>* recon_out = nullptr);

Status decode_reference(const uint8_t* stream,
                        size_t nbytes,
                        Dims dims,
                        double* coeffs,
                        DecodeStats* stats = nullptr);

}  // namespace sperr::speck
