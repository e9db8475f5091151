"""Metric arithmetic of the SPERR benchmark.

perfbench_driver prints one JSON record of raw measurements per run; this
module turns that record (and, for traced runs, its span file) into the
metrics named in BENCHMARK.json. Kept free of I/O so the self-tests in
perfbench/tests can pin every rule.
"""

import json
import math
import statistics

MB = 1e6  # MB means 10^6 bytes of f64 field

REQUEST_KINDS = ["compress_pwe", "compress_rate", "decompress",
                 "decompress_f32", "verify", "extract"]

# Requests a serving run must leave beyond its reported tail percentile.
TAIL_MIN_BEYOND = 10


# --- percentiles and failure accounting -------------------------------------

def percentile(samples, p):
    """Nearest-rank percentile: (value, samples strictly beyond its rank)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(samples, p, min_beyond=TAIL_MIN_BEYOND):
    """percentile(), refusing a tail with fewer than `min_beyond` samples
    beyond it: such a figure is one unlucky request, not a distribution."""
    value, beyond = percentile(samples, p)
    if beyond < min_beyond:
        raise ValueError(
            f"p{p:g} of {len(samples)} samples leaves {beyond} beyond it; "
            f"need at least {min_beyond}")
    return value


def failed_ops_frac(attempted, failed):
    """Failed over attempted ops. A run that attempted nothing failed."""
    if attempted < 1:
        return 1.0
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


# --- spans -------------------------------------------------------------------

def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """span id -> duration minus the part of it its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - covered(children.get(s["id"], []), s["start"], s["end"])
            for s in spans}


# --- end-to-end metrics ------------------------------------------------------

def end_to_end(rec):
    """The end_to_end metrics of an untraced run record."""
    s = rec["serve"]
    lat = s["latency_ms"]
    m = {}
    if "codec" in rec:
        c = rec["codec"]
        field_mb = c["field_bytes"] / MB
        m["compress_mbps"] = field_mb / statistics.median(c["compress_s"])
        m["decompress_mbps"] = field_mb / statistics.median(c["decompress_s"])
        m["bpp"] = c["bpp"]
        m["accuracy_gain"] = c["accuracy_gain"]
    else:
        # Throughput of one COMPRESS (PWE) / DECOMPRESS (f64) as its caller
        # sees it, under the workload's load.
        field_mb = s["field_bytes"] / MB
        by_kind = split_by_kind(s["kind"], lat)
        m["compress_mbps"] = field_mb / (statistics.median(by_kind["compress_pwe"]) / 1e3)
        m["decompress_mbps"] = field_mb / (statistics.median(by_kind["decompress"]) / 1e3)
        m["bpp"] = s["bpp"]
        m["accuracy_gain"] = s["accuracy_gain"]
    m["serve_rps"] = len(lat) / s["wall_s"]
    m["serve_p50_ms"] = statistics.median(lat)
    m["serve_p95_ms"] = tail_percentile(lat, 95)
    m["peak_rss_mb"] = rec["peak_rss_mb"]
    m["setup_s"] = statistics.median(rec["setup_s"])
    return m


def split_by_kind(kinds, latencies):
    out = {k: [] for k in REQUEST_KINDS}
    for k, v in zip(kinds, latencies):
        out[REQUEST_KINDS[int(k)]].append(v)
    return out


# --- per-layer metrics -------------------------------------------------------

def per_layer(rec, spans):
    """The per_layer metrics of a traced run record and its spans."""
    selfs = self_times(spans)
    roots = [s for s in spans if s["parent"] == 0]
    op_name = {s["op"]: s["name"] for s in roots}
    codec = rec["codec"]
    passes = codec["passes"]

    def named(name, op=None):
        return [s for s in spans if s["name"] == name
                and (op is None or op_name.get(s["op"]) == op)]

    def self_sum(name, op=None):
        return sum(selfs[s["id"]] for s in named(name, op))

    def attr_sum(name, key, op=None):
        return sum(s.get("attrs", {}).get(key, 0.0) for s in named(name, op))

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    m = {}
    fwd, inv = self_sum("wavelet.forward_dwt"), self_sum("wavelet.inverse_dwt")
    m["wavelet.fwd_s"] = fwd / passes
    m["wavelet.inv_s"] = inv / passes
    m["wavelet.fwd_mbps"] = ratio(attr_sum("wavelet.forward_dwt", "bytes") / MB, fwd)
    m["wavelet.inv_mbps"] = ratio(attr_sum("wavelet.inverse_dwt", "bytes") / MB, inv)

    enc, dec = self_sum("speck.encode"), self_sum("speck.decode")
    enc_bits = attr_sum("speck.encode", "payload_bits")
    encodes = named("speck.encode")
    m["speck.enc_s"] = enc / passes
    m["speck.sorting_s"] = attr_sum("speck.encode", "sorting_s") / passes
    m["speck.refinement_s"] = attr_sum("speck.encode", "refinement_s") / passes
    m["speck.enc_mbit_s"] = ratio(enc_bits / 1e6, enc)
    m["speck.dec_s"] = dec / passes
    m["speck.dec_mbit_s"] = ratio(attr_sum("speck.decode", "bits") / 1e6, dec)
    m["speck.bits_per_coef"] = ratio(enc_bits, attr_sum("speck.encode", "coefs"))
    m["speck.planes"] = ratio(attr_sum("speck.encode", "planes"), len(encodes))
    m["speck.threads_used"] = max(
        (s.get("attrs", {}).get("threads_used", 0.0) for s in encodes), default=0.0)

    count = attr_sum("outlier.encode", "count")
    m["outlier.find_s"] = self_sum("outlier.find") / passes
    m["outlier.enc_s"] = self_sum("outlier.encode") / passes
    m["outlier.dec_s"] = self_sum("outlier.decode") / passes
    m["outlier.count"] = count / passes
    m["outlier.bits_per_outlier"] = ratio(attr_sum("outlier.encode", "payload_bits"), count)

    m["lossless.enc_s"] = self_sum("lossless.compress") / passes
    m["lossless.dec_s"] = self_sum("lossless.decompress") / passes
    m["lossless.saved_frac"] = 1.0 - ratio(attr_sum("lossless.compress", "out_bytes"),
                                           attr_sum("lossless.compress", "in_bytes"))
    for tag in ("raw", "huffman", "arith"):
        m[f"lossless.blocks_{tag}"] = attr_sum("lossless.inspect", "blocks_" + tag) / passes

    chunk_spans = named("sperr.chunk")
    codec_roots = [s for s in roots if s["name"] in ("compress", "decompress")]
    enc_chunks = [s["end"] - s["start"] for s in named("sperr.chunk", "compress")]
    root_wall = sum(s["end"] - s["start"] for s in codec_roots)
    threads = codec["threads"]
    serial = 0.0
    for r in codec_roots:
        kids = [(c["start"], c["end"]) for c in chunk_spans if c["parent"] == r["id"]]
        serial += (r["end"] - r["start"]) - covered(kids, r["start"], r["end"])
    m["sperr.chunks"] = len(enc_chunks) / passes
    m["sperr.chunk_p50_s"] = statistics.median(enc_chunks)
    m["sperr.chunk_max_s"] = max(enc_chunks)
    m["sperr.par_eff"] = ratio(sum(c["end"] - c["start"] for c in chunk_spans),
                               threads * root_wall)
    m["sperr.serial_s"] = serial / passes
    m["sperr.scaling_eff"] = ratio(codec["lib_compress_1t_s"],
                                   threads * codec["lib_compress_s"])

    s = rec["serve"]
    n = s["server_requests"]
    lat = s["latency_ms"]
    queue_ms = ratio(s["queue_wait_s"], n) * 1e3
    busy_ms = ratio(s["busy_s"], n) * 1e3
    m["server.queue_wait_ms"] = queue_ms
    m["server.busy_ms"] = busy_ms
    m["server.wire_ms"] = statistics.mean(lat) - queue_ms - busy_ms
    m["server.worker_util"] = ratio(s["busy_s"], s["workers"] * s["wall_s"])
    for kind in REQUEST_KINDS:
        ms = [(r["end"] - r["start"]) * 1e3 for r in roots if r["name"] == "request." + kind]
        m[f"server.{kind}_p50_ms"] = statistics.median(ms) if ms else 0.0
    m["server.busy_replies"] = s["busy_replies"]
    m["server.retries"] = s["retries"]

    traced = sum(r["end"] - r["start"] for r in codec_roots) / passes
    m["trace.overhead_frac"] = traced / (codec["lib_compress_s"] + codec["lib_decompress_s"]) - 1
    m["failed_ops_frac"] = failed_ops_frac(rec["attempted"], rec["failed"])
    m["run.omp_threads"] = rec["threads"]
    m["run.cores"] = rec["cores"]
    return m


def library_split(rec, spans, metrics):
    """Rows of (stage, library Stats.timing seconds, replay self seconds) for
    the compress direction: the reference for in-library tracing."""
    lib = rec["codec"]["lib_timing"]
    selfs = self_times(spans)
    compress_ops = {s["op"] for s in spans if s["parent"] == 0 and s["name"] == "compress"}
    locate = sum(selfs[s["id"]] for s in spans if s["op"] in compress_ops
                 and s["name"] in ("wavelet.inverse_dwt", "outlier.find"))
    return [
        ("transform", lib["transform_s"], metrics["wavelet.fwd_s"]),
        ("speck", lib["speck_s"], metrics["speck.enc_s"]),
        ("speck sorting", lib["speck_sorting_s"], metrics["speck.sorting_s"]),
        ("speck refinement", lib["speck_refinement_s"], metrics["speck.refinement_s"]),
        ("locate (inverse + find)", lib["locate_s"], locate / rec["codec"]["passes"]),
        ("outlier", lib["outlier_s"], metrics["outlier.enc_s"]),
        ("lossless", lib["lossless_s"], metrics["lossless.enc_s"]),
    ]
