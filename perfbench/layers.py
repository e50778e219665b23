"""Layer microbenchmarks and the per-layer metrics of a traced run.

Each microbenchmark times public functions of one module on inputs drawn
from the workload's seed, at the anchor (K=8) and at the cost table's
K=64 point.  Every timed loop folds its results into a sink or a mismatch
count that is checked afterwards, so no result goes unused.  Each loop
runs several times and the median repeat is recorded.
"""

import statistics
from itertools import combinations
from time import perf_counter

from mvcode import (
    BinningCodebook,
    BoundParams,
    CorrelationModel,
    RateAllocation,
    SystemState,
    lower_bound_general,
    sample_tuple,
)
from mvcode.binning import possible_set_decode, sample_tuples
from mvcode.bitio import BitReader, BitWriter
from mvcode.galois import RsCode, binary_expand_generator
from mvcode.model import ball_rank, ball_unrank, enumerate_possible_set

from workloads import EPSILON

REPEATS = 5
SCHEMES = ("replication", "mds", "delta", "rs-update", "binning", "latest-only")


class _Problems(list):
    """Problems found by the microbenchmarks, and how many loops ran."""

    timed = 0


def _timed(tracer, name, loop, calls, problems, repeats=REPEATS):
    """Record the median seconds of ``loop()`` as ``calls`` calls of ``name``.

    ``loop`` returns a sink; it must come out the same on every repeat.
    """
    problems.timed += 1
    times, sinks = [], []
    for _ in range(repeats):
        start = perf_counter()
        sinks.append(loop())
        times.append(perf_counter() - start)
    if any(s != sinks[0] for s in sinks):
        problems.append(f"{name}: results differ between repeats")
    tracer.add(name, statistics.median(times), calls)
    return sinks[0]


def microbenchmarks(tracer, seed, K):
    """Run every layer microbenchmark; returns (loops timed, problems)."""
    problems = _Problems()
    model = CorrelationModel(K=K, radius=1, nu=2)
    model64 = CorrelationModel(K=64, radius=1, nu=2)
    tuples = sample_tuples(model, 128, seed)
    tuples64 = sample_tuples(model64, 128, seed)
    code = RsCode.standard(4, 2)
    field = code.field
    m = field.m
    low = (1 << m) - 1

    # galois: field multiply and RS block decode on symbols cut from the tuples
    words = [v.bits for vt in tuples for v in vt.versions]
    pairs = [((w >> s) & low, (w >> (s + m)) & low) for w in words for s in range(0, K - m, m)]
    many_pairs = pairs * 32  # one multiply is ~0.1 us; time a longer loop

    def mul_loop():
        acc = 0
        for a, b in many_pairs:
            acc ^= field.mul(a, b)
        return acc

    _timed(tracer, "galois.mul", mul_loop, len(many_pairs), problems)

    decodes = []
    for a, b in pairs:
        codeword = code.encode((a, b))
        for T in combinations(range(code.n), code.c):
            decodes.append(([(t, codeword[t]) for t in T], (a, b)))

    def rs_loop():
        return sum(code.decode(symbols) != block for symbols, block in decodes)

    if _timed(tracer, "galois.rs_decode", rs_loop, len(decodes), problems):
        problems.append("galois.rs_decode: wrong block")

    for label, gen_K, sample in (("K8", K, tuples), ("K64", 64, tuples64)):
        gen = binary_expand_generator(code, gen_K)
        inputs = [(s, v.bits) for vt in sample for v in vt.versions for s in range(code.n)] * 4

        def apply_loop(gen=gen, inputs=inputs):
            acc = 0
            for server, bits in inputs:
                acc ^= gen.apply(server, bits)
            return acc

        _timed(tracer, f"galois.apply.{label}", apply_loop, len(inputs), problems)

    def generator_loop():
        return tuple(
            binary_expand_generator(code, k).rows for k in (K, 64)
        )

    _timed(tracer, "galois.generator_build", generator_loop, 2, problems)

    # model: possible set, ball rank/unrank of the tuples' steps, sampling
    def possible_set_loop():
        return sum(1 for _ in enumerate_possible_set(model))

    if _timed(tracer, "model.possible_set", possible_set_loop, 1, problems) != model.tuple_count():
        problems.append("model.possible_set: wrong tuple count")

    steps = [(vt.versions[0].bits ^ vt.versions[1].bits, mdl.K)
             for mdl, sample in ((model, tuples), (model64, tuples64)) for vt in sample] * 8
    ranked = [(ball_rank(mask, k), k, mask) for mask, k in steps]
    _timed(tracer, "model.ball_rank",
           lambda: sum(ball_rank(mask, k) for mask, k in steps), len(steps), problems)
    if _timed(tracer, "model.ball_unrank",
              lambda: sum(ball_unrank(r, k) != mask for r, k, mask in ranked),
              len(ranked), problems):
        problems.append("model.ball_unrank: not the inverse of ball_rank")

    draws = [(mdl, (seed << 32) + i) for mdl in (model, model64) for i in range(128)]

    def sample_loop():
        acc = 0
        for mdl, s in draws:
            acc ^= sample_tuple(mdl, s).versions[-1].bits
        return acc

    _timed(tracer, "model.sample_tuple", sample_loop, len(draws), problems)

    # bitio: pack each tuple's versions into one symbol, as the schemes do
    symbols = [[(v.bits, v.K) for v in vt.versions] for sample in (tuples, tuples64)
               for vt in sample] * 16
    writes = sum(len(fields) for fields in symbols)

    def write_loop():
        packed = []
        for fields in symbols:
            writer = BitWriter()
            for value, bits in fields:
                writer.write(value, bits)
            packed.append((writer.payload, writer.bit_length))
        return packed

    packed = _timed(tracer, "bitio.write", write_loop, writes, problems)

    def read_loop():
        wrong = 0
        for (payload, length), fields in zip(packed, symbols):
            reader = BitReader(payload, length)
            wrong += sum(reader.read(bits) != value for value, bits in fields)
        return wrong

    if _timed(tracer, "bitio.read", read_loop, writes, problems):
        problems.append("bitio.read: value differs from what was written")

    # bounds: the anchor, the table point and the README sweep
    points = [BoundParams(4, 2, 2, k, 1) for k in (K, 64)]
    points += [BoundParams(8, 8, 2, k, k // 16) for k in (32, 64, 128)]
    points *= 64
    _timed(tracer, "bounds.lower_bound",
           lambda: sum(lower_bound_general(p) for p in points), len(points), problems)

    # binning: rate allocation, codebook tables, and one decode per cell
    receipts = [(1,), (2,), (1, 2)]

    def allocation_loop():
        allocation = RateAllocation(model, 4, 2, EPSILON)
        return tuple(allocation.storage_bits(r) for r in receipts)

    _timed(tracer, "binning.allocation", allocation_loop, 1, problems)

    def codebook_loop():
        book = BinningCodebook.create(model, 4, 2, EPSILON, seed=seed)
        return tuple(
            book.index_table(t, u)[-1] for t in range(4) for u in range(1, model.nu + 1)
        )

    _timed(tracer, "binning.codebook_create", codebook_loop, 1, problems)

    book = BinningCodebook.create(model, 4, 2, EPSILON, seed=seed)
    allocation = RateAllocation(model, 4, 2, EPSILON)
    cells = []
    for code_bits in range(0, 1 << 8, 5):  # every fifth state of 4 servers x 2 versions
        state = SystemState(tuple(
            frozenset(u for u in (1, 2) if code_bits >> (2 * i + u - 1) & 1) for i in range(4)
        ))
        for T in combinations(range(4), 2):
            if set.intersection(*(set(state.per_server[t]) for t in T)):
                cells.append((state, T))
    cases = []
    for index, (state, T) in enumerate(cells):
        vt = tuples[index % len(tuples)]
        indices = {
            t: {u: book.index_of(t, u, vt.version(u).bits,
                                 allocation.index_bits(state.per_server[t], u))
                for u in state.per_server[t]}
            for t in T
        }
        cases.append((T, state, indices))

    def decode_loop():
        return tuple(
            possible_set_decode(book, allocation, T, state, indices).status
            for T, state, indices in cases
        )

    _timed(tracer, "binning.decode", decode_loop, len(cases), problems, repeats=3)
    return problems.timed, list(problems)


def _per_call(tracer, name, scale):
    count = tracer.count[name]
    return tracer.seconds[name] / count * scale if count else 0.0


def layer_metrics(tracer, traced_wall_s, untraced_wall_s):
    """Per-layer metrics of a traced run, as {name: (value, unit)}."""
    out = {}
    verify_s = tracer.seconds["verifier"]
    attempts = tracer.count["verifier.attempts"]
    decode_calls = tracer.calls["verifier", "decode"]
    out["verifier.verify_s"] = (verify_s, "s")
    out["verifier.self_s"] = (tracer.self_seconds("verifier"), "s")
    out["verifier.attempts"] = (attempts, "count")
    out["verifier.encode_calls"] = (tracer.calls["verifier", "encode"], "count")
    out["verifier.decode_calls"] = (decode_calls, "count")
    out["verifier.decode_calls_per_attempt"] = (
        decode_calls / attempts if attempts else 0.0, "ratio")
    out["verifier.bridge_inner_decodes"] = (tracer.calls["verifier", "inner_decode"], "count")

    for what in ("encode", "decode"):
        for name in SCHEMES:
            calls = tracer.scheme_calls[name, what]
            seconds = tracer.scheme_s[name, what]
            out[f"schemes.{name}.{what}_us"] = (seconds / calls * 1e6 if calls else 0.0, "us")
        out[f"schemes.{what}_s"] = (
            sum(s for (span, w), s in tracer.boundary_s.items() if w == what), "s")

    out["galois.mul_ns"] = (_per_call(tracer, "galois.mul", 1e9), "ns")
    out["galois.rs_decode_us"] = (_per_call(tracer, "galois.rs_decode", 1e6), "us")
    out["galois.apply_us.K8"] = (_per_call(tracer, "galois.apply.K8", 1e6), "us")
    out["galois.apply_us.K64"] = (_per_call(tracer, "galois.apply.K64", 1e6), "us")
    out["galois.generator_build_ms"] = (_per_call(tracer, "galois.generator_build", 1e3), "ms")
    out["model.possible_set_ms"] = (_per_call(tracer, "model.possible_set", 1e3), "ms")
    out["model.ball_rank_us"] = (_per_call(tracer, "model.ball_rank", 1e6), "us")
    out["model.ball_unrank_us"] = (_per_call(tracer, "model.ball_unrank", 1e6), "us")
    out["model.sample_tuple_us"] = (_per_call(tracer, "model.sample_tuple", 1e6), "us")
    out["bitio.write_ns"] = (_per_call(tracer, "bitio.write", 1e9), "ns")
    out["bitio.read_ns"] = (_per_call(tracer, "bitio.read", 1e9), "ns")

    survey_decodes = tracer.count["binning.survey.decodes"]
    out["binning.decode_us"] = (_per_call(tracer, "binning.decode", 1e6), "us")
    out["binning.survey_decode_us"] = (
        tracer.seconds["binning.survey"] / survey_decodes * 1e6 if survey_decodes else 0.0, "us")
    out["binning.codebook_create_ms"] = (_per_call(tracer, "binning.codebook_create", 1e3), "ms")
    out["binning.allocation_us"] = (_per_call(tracer, "binning.allocation", 1e6), "us")

    search_s = tracer.seconds["sim.search"]
    probes = tracer.calls["sim.search", "decode"]
    out["sim.search_s"] = (search_s, "s")
    out["sim.probe_decodes"] = (probes, "count")
    out["sim.probes_per_s"] = (probes / search_s if search_s else 0.0, "1/s")
    out["sim.replay_ms"] = (_per_call(tracer, "sim.replay", 1e3), "ms")

    out["bounds.lower_bound_us"] = (_per_call(tracer, "bounds.lower_bound", 1e6), "us")

    out["cli.cost_ms"] = (_per_call(tracer, "cli.cost", 1e3), "ms")
    out["cli.bound_ms"] = (_per_call(tracer, "cli.bound", 1e3), "ms")
    out["cli.example1_ms"] = (_per_call(tracer, "cli.example1", 1e3), "ms")
    out["cli.sim_replay_ms"] = (_per_call(tracer, "cli.sim_replay", 1e3), "ms")
    out["cli.verify_s"] = (tracer.seconds["cli.verify"], "s")

    out["trace.overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
    return out
