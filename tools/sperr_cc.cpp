// sperr_cc — command-line compressor/decompressor for raw binary fields,
// mirroring the utilities the reference SPERR distribution ships.
//
//   compress:    sperr_cc c  IN.raw OUT.sperr --dims NX [NY [NZ]] --type f32|f64
//                          ( --pwe T | --idx K | --bpp R | --rmse E )
//                          [ --q-over-t Q ] [ --chunk CX CY CZ ]
//                          [ --threads N ] [ --intra-threads N ]
//                          [ --no-lossless ] [ --verify ]
//   decompress:  sperr_cc d  IN.sperr OUT.raw [--type f32|f64] [--drop L]
//                          [ --recover fail-fast|zero|coarse ]
//                          [ --max-output-mb M ]
//   inspect:     sperr_cc info IN.sperr [--verify] [--max-output-mb M]
//
// Raw files are x-fastest little-endian arrays, the layout SDRBench uses.
//
// Exit codes: 0 success, 1 I/O error, 2 usage error, 3 corrupt input,
// 4 verification/quality failure, 5 resource limit exceeded (the container
// header declares more decoded output than the decoder's ResourceLimits
// admit — the default 64 GiB ceiling, or --max-output-mb). Scripts can tell
// "the file is damaged" (3) apart from "I was called wrong" (2), "the disk
// failed" (1), and "this is a decompression bomb" (5).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/timer.h"
#include "metrics/metrics.h"
#include "sperr/header.h"
#include "sperr/sperr.h"

namespace {

// Exit codes (documented in the header comment and asserted by
// tools/check_cli_codes.sh).
constexpr int kExitOk = 0;
constexpr int kExitIo = 1;
constexpr int kExitUsage = 2;
constexpr int kExitCorrupt = 3;
constexpr int kExitVerify = 4;
constexpr int kExitResource = 5;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage:\n"
               "  sperr_cc c IN.raw OUT.sperr --dims NX [NY [NZ]] --type f32|f64\n"
               "           (--pwe T | --idx K | --bpp R | --rmse E)\n"
               "           [--q-over-t Q] [--chunk CX CY CZ] [--threads N]\n"
               "           [--intra-threads N] [--no-lossless] [--verify]\n"
               "  sperr_cc d IN.sperr OUT.raw [--type f32|f64] [--drop L]\n"
               "           [--recover fail-fast|zero|coarse] [--max-output-mb M]\n"
               "  sperr_cc info IN.sperr [--verify] [--max-output-mb M]\n"
               "\n"
               "  --threads N        thread budget of a compress (default 0 = OpenMP\n"
               "                     default)\n"
               "  --intra-threads N  lanes inside each chunk (default 0 = threads /\n"
               "                     chunks, at least 1); the output is byte-identical\n"
               "                     at every setting\n");
  std::exit(kExitUsage);
}

std::vector<uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    std::exit(kExitIo);
  }
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const void* data, size_t size) {
  std::ofstream out(path, std::ios::binary);
  if (!out || !out.write(static_cast<const char*>(data), std::streamsize(size))) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(kExitIo);
  }
}

struct Args {
  std::vector<std::string> positional;
  sperr::Dims dims{0, 1, 1};
  bool have_dims = false;
  std::string type = "f64";
  double pwe = 0, bpp = 0, rmse = 0, q_over_t = 1.5;
  int idx = -1;
  sperr::Dims chunk{256, 256, 256};
  int threads = 0;
  int intra_threads = 0;  ///< lanes per chunk, 0 = threads / chunks (byte-identical output)
  bool lossless = true;
  bool verify = false;
  size_t drop = 0;
  bool have_recover = false;
  sperr::Recovery recover = sperr::Recovery::fail_fast;
  uint64_t max_output_mb = 0;  ///< 0 = the library's default ResourceLimits

  /// Decode ceilings for the d / info commands: the library defaults,
  /// tightened by --max-output-mb when given.
  [[nodiscard]] sperr::ResourceLimits limits() const {
    sperr::ResourceLimits rl = sperr::ResourceLimits::defaults();
    if (max_output_mb > 0) {
      rl.max_output_bytes = max_output_mb << 20;
      if (rl.max_working_bytes > rl.max_output_bytes)
        rl.max_working_bytes = rl.max_output_bytes;
    }
    return rl;
  }

  void set_recover(const std::string& v) {
    have_recover = true;
    if (v == "fail-fast" || v == "fail_fast")
      recover = sperr::Recovery::fail_fast;
    else if (v == "zero" || v == "zero-fill" || v == "zero_fill")
      recover = sperr::Recovery::zero_fill;
    else if (v == "coarse" || v == "coarse-fill" || v == "coarse_fill")
      recover = sperr::Recovery::coarse_fill;
    else
      usage("--recover takes fail-fast, zero or coarse");
  }

  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto next = [&](const char* what) -> const char* {
        if (++i >= argc) usage(what);
        return argv[i];
      };
      if (a == "--dims") {
        dims.x = size_t(std::atoll(next("--dims needs values")));
        have_dims = true;
        if (i + 1 < argc && argv[i + 1][0] != '-') dims.y = size_t(std::atoll(argv[++i]));
        if (i + 1 < argc && argv[i + 1][0] != '-') dims.z = size_t(std::atoll(argv[++i]));
      } else if (a == "--type") {
        type = next("--type needs f32|f64");
      } else if (a == "--pwe") {
        pwe = std::atof(next("--pwe needs a tolerance"));
      } else if (a == "--idx") {
        idx = std::atoi(next("--idx needs an integer"));
      } else if (a == "--bpp") {
        bpp = std::atof(next("--bpp needs a rate"));
      } else if (a == "--rmse") {
        rmse = std::atof(next("--rmse needs a target"));
      } else if (a == "--q-over-t") {
        q_over_t = std::atof(next("--q-over-t needs a value"));
      } else if (a == "--chunk") {
        chunk.x = size_t(std::atoll(next("--chunk needs values")));
        if (i + 1 < argc && argv[i + 1][0] != '-') chunk.y = size_t(std::atoll(argv[++i]));
        if (i + 1 < argc && argv[i + 1][0] != '-') chunk.z = size_t(std::atoll(argv[++i]));
      } else if (a == "--threads") {
        threads = std::atoi(next("--threads needs a count"));
      } else if (a == "--intra-threads") {
        intra_threads = std::atoi(next("--intra-threads needs a count"));
      } else if (a == "--no-lossless") {
        lossless = false;
      } else if (a == "--verify") {
        verify = true;
      } else if (a == "--drop") {
        drop = size_t(std::atoll(next("--drop needs a level count")));
      } else if (a == "--max-output-mb") {
        const long long m = std::atoll(next("--max-output-mb needs a size"));
        if (m < 0) usage("--max-output-mb must be >= 0");
        max_output_mb = uint64_t(m);
      } else if (a == "--recover") {
        set_recover(next("--recover needs a policy"));
      } else if (a.rfind("--recover=", 0) == 0) {
        set_recover(a.substr(10));
      } else if (!a.empty() && a[0] == '-') {
        usage(("unknown option " + a).c_str());
      } else {
        positional.push_back(a);
      }
    }
  }
};

std::vector<double> load_field(const std::string& path, const Args& args) {
  const auto bytes = read_file(path);
  const size_t n = args.dims.total();
  std::vector<double> field(n);
  if (args.type == "f32") {
    if (bytes.size() != n * 4) usage("file size does not match --dims for f32");
    const float* p = reinterpret_cast<const float*>(bytes.data());
    for (size_t i = 0; i < n; ++i) field[i] = double(p[i]);
  } else if (args.type == "f64") {
    if (bytes.size() != n * 8) usage("file size does not match --dims for f64");
    std::memcpy(field.data(), bytes.data(), bytes.size());
  } else {
    usage("--type must be f32 or f64");
  }
  return field;
}

const char* action_name(sperr::ChunkAction a) {
  switch (a) {
    case sperr::ChunkAction::zeroed: return "zero-filled";
    case sperr::ChunkAction::coarse: return "coarse SPECK-prefix decode";
    case sperr::ChunkAction::dc_fill: return "filled with stored chunk mean";
    default: return "none";
  }
}

/// One line per chunk: verdict, checksum comparison, extent, recovery action.
void print_chunk_reports(const sperr::DecodeReport& rep) {
  for (const auto& c : rep.chunks) {
    std::printf("chunk %4zu: %-15s", c.index, to_string(c.status));
    if (c.checksum_present)
      std::printf(" checksum %s (stored %016llx, computed %016llx)",
                  c.checksum_ok ? "ok " : "BAD",
                  static_cast<unsigned long long>(c.checksum_stored),
                  static_cast<unsigned long long>(c.checksum_computed));
    else
      std::printf(" checksum absent (v%u container)", rep.version);
    std::printf("  offset %llu, %llu+%llu bytes",
                static_cast<unsigned long long>(c.offset),
                static_cast<unsigned long long>(c.speck_len),
                static_cast<unsigned long long>(c.outlier_len));
    if (c.action != sperr::ChunkAction::none)
      std::printf("  -> %s", action_name(c.action));
    std::printf("\n");
  }
  for (const size_t b : rep.lossless_bad_blocks)
    std::printf("lossless block %zu: checksum BAD (payload zero-filled)\n", b);
}

int cmd_compress(const Args& args) {
  if (args.positional.size() != 3 || !args.have_dims) usage("compress needs IN OUT --dims");
  const auto field = load_field(args.positional[1], args);

  sperr::Config cfg;
  cfg.q_over_t = args.q_over_t;
  cfg.chunk_dims = args.chunk;
  cfg.num_threads = args.threads;
  cfg.intra_chunk_threads = args.intra_threads;
  cfg.lossless_pass = args.lossless;
  if (args.pwe > 0) {
    cfg.mode = sperr::Mode::pwe;
    cfg.tolerance = args.pwe;
  } else if (args.idx >= 0) {
    cfg.mode = sperr::Mode::pwe;
    cfg.tolerance = sperr::tolerance_from_idx(field.data(), field.size(), args.idx);
  } else if (args.bpp > 0) {
    cfg.mode = sperr::Mode::fixed_rate;
    cfg.bpp = args.bpp;
  } else if (args.rmse > 0) {
    cfg.mode = sperr::Mode::target_rmse;
    cfg.rmse = args.rmse;
  } else {
    usage("pick a quality mode: --pwe, --idx, --bpp or --rmse");
  }

  sperr::Timer timer;
  sperr::Stats stats;
  const auto blob = sperr::compress(field.data(), args.dims, cfg, &stats);
  const double secs = timer.seconds();
  write_file(args.positional[2], blob.data(), blob.size());

  const size_t raw = field.size() * (args.type == "f32" ? 4 : 8);
  std::printf("%s: %zu -> %zu bytes (%.2fx, %.3f bits/pt) in %.2fs, %zu chunks, %zu outliers\n",
              args.positional[1].c_str(), raw, blob.size(),
              double(raw) / double(blob.size()),
              double(blob.size()) * 8 / double(field.size()), secs,
              stats.num_chunks, stats.num_outliers);

  if (args.verify) {
    std::vector<double> recon;
    sperr::Dims od;
    if (sperr::decompress(blob.data(), blob.size(), recon, od) != sperr::Status::ok) {
      std::fprintf(stderr, "verify: decompression FAILED\n");
      return kExitVerify;
    }
    const auto q = sperr::metrics::compare(field.data(), recon.data(), field.size());
    std::printf("verify: max err %.4g, RMSE %.4g, PSNR %.2f dB", q.max_pwe,
                q.rmse, q.psnr);
    if (cfg.mode == sperr::Mode::pwe) {
      const bool ok = q.max_pwe <= cfg.tolerance;
      std::printf(" — PWE bound %s", ok ? "HELD" : "VIOLATED");
      if (!ok) {
        std::printf("\n");
        return kExitVerify;
      }
    }
    std::printf("\n");
  }
  return kExitOk;
}

int cmd_decompress(const Args& args) {
  if (args.positional.size() != 3) usage("decompress needs IN OUT");
  if (args.drop && args.have_recover)
    usage("--drop and --recover cannot be combined");
  const auto blob = read_file(args.positional[1]);

  const sperr::ResourceLimits rl = args.limits();
  std::vector<double> field;
  sperr::Dims dims;
  sperr::DecodeReport rep;
  sperr::Status s;
  if (args.drop) {
    s = sperr::decompress_lowres(blob.data(), blob.size(), args.drop, field, dims,
                                 &rl);
  } else {
    s = sperr::decompress_tolerant(blob.data(), blob.size(), args.recover, field,
                                   dims, &rep, &rl);
    if (args.have_recover) {
      print_chunk_reports(rep);
      if (rep.damaged > 0)
        std::printf("%zu of %zu chunk(s) damaged, %zu recovered (policy %s)\n",
                    rep.damaged, rep.chunks.size(), rep.recovered,
                    args.recover == sperr::Recovery::zero_fill   ? "zero"
                    : args.recover == sperr::Recovery::coarse_fill ? "coarse"
                                                                   : "fail-fast");
    }
  }
  if (s == sperr::Status::resource_exhausted) {
    std::fprintf(stderr,
                 "error: container declares more output than the resource "
                 "limits admit (%s); raise --max-output-mb only for trusted "
                 "inputs\n",
                 to_string(s));
    return kExitResource;
  }
  if (s != sperr::Status::ok) {
    std::fprintf(stderr, "error: decompression failed (%s)\n", to_string(s));
    return kExitCorrupt;
  }

  if (args.type == "f32") {
    std::vector<float> out(field.begin(), field.end());
    write_file(args.positional[2], out.data(), out.size() * 4);
  } else {
    write_file(args.positional[2], field.data(), field.size() * 8);
  }
  std::printf("%s: %s doubles -> %s\n", args.positional[1].c_str(),
              dims.to_string().c_str(), args.positional[2].c_str());
  return kExitOk;
}

int cmd_info(const Args& args) {
  if (args.positional.size() != 2) usage("info needs IN");
  const auto blob = read_file(args.positional[1]);

  const sperr::ResourceLimits rl = args.limits();
  std::vector<uint8_t> inner;
  size_t bad_block = 0;
  const sperr::Status us = sperr::unwrap_container(blob.data(), blob.size(), inner,
                                                   &bad_block, nullptr, &rl);
  if (us == sperr::Status::resource_exhausted) {
    std::fprintf(stderr,
                 "error: container declares more data than the resource limits "
                 "admit (decompression bomb?)\n");
    return kExitResource;
  }
  if (us == sperr::Status::corrupt_block) {
    std::fprintf(stderr, "error: lossless block %zu failed its checksum\n", bad_block);
    return kExitCorrupt;
  }
  if (us != sperr::Status::ok) {
    std::fprintf(stderr, "error: not a SPERR container (%s)\n", to_string(us));
    return kExitCorrupt;
  }
  sperr::ContainerHeader hdr;
  size_t payload_pos = 0;
  const sperr::Status os = sperr::open_container(blob.data(), blob.size(), inner,
                                                 hdr, &payload_pos, nullptr, &rl);
  if (os == sperr::Status::resource_exhausted) {
    std::fprintf(stderr,
                 "error: container directory exceeds the resource limits "
                 "(decompression bomb?)\n");
    return kExitResource;
  }
  if (os != sperr::Status::ok) {
    std::fprintf(stderr, "error: corrupt container header\n");
    return kExitCorrupt;
  }
  const char* mode = hdr.mode == sperr::Mode::pwe ? "pwe"
                     : hdr.mode == sperr::Mode::fixed_rate ? "fixed-rate"
                                                           : "target-rmse";
  std::printf("version:     %u (%s)\n", hdr.version,
              hdr.has_integrity() ? "per-chunk checksums"
                                  : "legacy, lengths only");
  std::printf("dims:        %s (%s input)\n", hdr.dims.to_string().c_str(),
              hdr.precision == 4 ? "f32" : "f64");
  std::printf("mode:        %s (quality parameter %.6g)\n", mode, hdr.quality);
  std::printf("chunks:      %zu (preferred %s)\n", hdr.entries.size(),
              hdr.chunk_dims.to_string().c_str());
  size_t speck = 0, outl = 0;
  for (const auto& e : hdr.entries) {
    speck += size_t(e.speck_len);
    outl += size_t(e.outlier_len);
  }
  std::printf("streams:     %zu bytes SPECK, %zu bytes outlier corrections\n",
              speck, outl);
  std::printf("container:   %zu bytes (%.3f bits/pt)\n", blob.size(),
              double(blob.size()) * 8 / double(hdr.dims.total()));

  // The outer wrapper is magic(4) + version(1) + lossless(1) + len(8); the
  // lossless payload (when present) starts right after it.
  constexpr size_t kOuterBytes = 14;
  if (blob.size() > kOuterBytes && blob[4 + 1] == 1) {
    sperr::lossless::StreamInfo li;
    if (sperr::lossless::inspect(blob.data() + kOuterBytes, blob.size() - kOuterBytes,
                                 li) == sperr::Status::ok &&
        li.blocked) {
      size_t by_tag[3] = {};
      for (const auto& b : li.blocks)
        ++by_tag[b.mode < 3 ? b.mode : sperr::lossless::kEntropyRaw];
      std::printf(
          "lossless:    %zu block(s) of %zu KiB (%zu raw / %zu huffman / %zu arith), "
          "checksummed\n",
          li.blocks.size(), li.block_size >> 10, by_tag[sperr::lossless::kEntropyRaw],
          by_tag[sperr::lossless::kEntropyHuffman], by_tag[sperr::lossless::kEntropyArith]);
    } else {
      std::printf("lossless:    single-block reference framing (no checksums)\n");
    }
  }

  if (args.verify) {
    sperr::DecodeReport rep;
    const sperr::Status vs =
        sperr::verify_container(blob.data(), blob.size(), &rep, &rl);
    if (vs == sperr::Status::resource_exhausted) {
      std::fprintf(stderr, "verify: refused, resource limits exceeded\n");
      return kExitResource;
    }
    print_chunk_reports(rep);
    if (vs != sperr::Status::ok) {
      std::fprintf(stderr, "verify: archive is damaged (%s)\n", to_string(vs));
      return kExitCorrupt;
    }
    std::printf("verify: all %zu chunk(s) intact\n", rep.chunks.size());
  }
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  if (args.positional.empty()) usage();
  const std::string& cmd = args.positional[0];
  if (cmd == "c") return cmd_compress(args);
  if (cmd == "d") return cmd_decompress(args);
  if (cmd == "info") return cmd_info(args);
  usage(("unknown command " + cmd).c_str());
}
