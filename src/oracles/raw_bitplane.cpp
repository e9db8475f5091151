#include "oracles/raw_bitplane.h"

#include <algorithm>
#include <cmath>

#include "common/bitset.h"
#include "common/bitstream.h"
#include "common/byteio.h"

namespace sperr::speck {

namespace {

constexpr uint16_t kMagic = 0x4252;  // "RB"

}  // namespace

std::vector<uint8_t> raw_bitplane_encode(const double* coeffs, Dims dims,
                                         double q) {
  const size_t n = dims.total();
  std::vector<double> mag(n);
  PackedBits neg(n);
  double max_m = 0.0;
  for (size_t i = 0; i < n; ++i) {
    neg.set(i, std::signbit(coeffs[i]));
    mag[i] = std::fabs(coeffs[i]) / q;
    max_m = std::max(max_m, mag[i]);
  }
  int32_t n_max = -1;
  if (max_m > 1.0) {
    n_max = 0;
    while (std::ldexp(1.0, n_max + 1) < max_m) ++n_max;
  }

  BitWriter bw;
  PackedBits significant(n);
  std::vector<double> residual = mag;
  for (int32_t p = n_max; p >= 0; --p) {
    const double thrd = std::ldexp(1.0, p);
    for (size_t i = 0; i < n; ++i) {
      if (significant.get(i)) {
        // Refinement bit (same rule as SPECK's RefinementPass).
        const bool bit = residual[i] > thrd;
        bw.put(bit);
        if (bit) residual[i] -= thrd;
      } else {
        const bool sig = mag[i] > thrd;
        bw.put(sig);
        if (sig) {
          bw.put(neg.get(i));
          significant.set(i);
          residual[i] = mag[i] - thrd;
        }
      }
    }
  }

  std::vector<uint8_t> out;
  put_u16(out, kMagic);
  put_f64(out, q);
  put_u32(out, uint32_t(n_max));
  put_u64(out, bw.bit_count());
  const auto payload = bw.take();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Status raw_bitplane_decode(const uint8_t* stream, size_t nbytes, Dims dims,
                           double* coeffs) {
  ByteReader hr(stream, nbytes);
  if (hr.u16() != kMagic) return Status::corrupt_stream;
  const double q = hr.f64();
  const auto n_max = int32_t(hr.u32());
  const uint64_t nbits = hr.u64();
  if (!hr.ok() || !(q > 0.0)) return Status::corrupt_stream;

  const size_t n = dims.total();
  std::vector<double> value(n, 0.0);
  PackedBits neg(n), significant(n);

  const uint64_t clamped = std::min<uint64_t>(nbits, (nbytes - hr.pos()) * 8);
  BitReader br(stream + hr.pos(), nbytes - hr.pos(), clamped);
  for (int32_t p = n_max; p >= 0 && !br.exhausted(); --p) {
    const double thrd = std::ldexp(1.0, p);
    for (size_t i = 0; i < n; ++i) {
      if (significant.get(i)) {
        const bool bit = br.get();
        if (br.exhausted()) break;
        value[i] += bit ? thrd / 2.0 : -thrd / 2.0;
      } else {
        const bool sig = br.get();
        if (br.exhausted()) break;
        if (sig) {
          const bool negative = br.get();
          if (br.exhausted()) break;
          neg.set(i, negative);
          significant.set(i);
          value[i] = 1.5 * thrd;
        }
      }
    }
  }
  for (size_t i = 0; i < n; ++i)
    coeffs[i] = (neg.get(i) ? -value[i] : value[i]) * q;
  return Status::ok;
}

}  // namespace sperr::speck
