"""Per-layer metrics derived from a traced run.

Layers are the qsslab modules.  Times and counts are per batch: totals over
the traced rounds divided by their number.  The eigendecomposition and
reduced-state figures are computed from matrix sizes (d x d eigenproblems,
d x d complex128 reduced states), not read from hardware counters.
"""

LAYERS = ("cli", "verifier", "schemes", "structures", "qstate", "protocols")

#: name, unit, better
PER_LAYER = (
    ("qstate.eig.calls", "count", "lower"),
    ("qstate.eig.self_s", "s", "lower"),
    ("qstate.eig.calls_le64", "count", "lower"),
    ("qstate.eig.calls_128_512", "count", "lower"),
    ("qstate.eig.calls_ge1024", "count", "lower"),
    ("qstate.eig.dim_max", "count", "lower"),
    ("qstate.eig.flops_computed", "flop", "lower"),
    ("qstate.partial_trace.calls", "count", "lower"),
    ("qstate.partial_trace.self_s", "s", "lower"),
    ("qstate.rho_bytes_computed", "B", "lower"),
    ("qstate.apply_isometry.self_s", "s", "lower"),
    ("qstate.purestate.count", "count", "lower"),
    ("verifier.verify.calls", "count", "lower"),
    ("verifier.verify.self_s", "s", "lower"),
    ("verifier.entropy.lookups", "count", "lower"),
    ("verifier.entropy.misses", "count", "lower"),
    ("verifier.entropy.hit_ratio", "ratio", "higher"),
    ("verifier.checker.passes.calls", "count", "lower"),
    ("verifier.checker.self_s", "s", "lower"),
    ("verifier.feasibility_matrix.self_s", "s", "lower"),
    ("schemes.search_assignment.calls", "count", "lower"),
    ("schemes.search_assignment.self_s", "s", "lower"),
    ("schemes.load_scheme.self_s", "s", "lower"),
    ("schemes.induce_structure.self_s", "s", "lower"),
    ("schemes.distribute_purified.self_s", "s", "lower"),
    ("structures.enumerate_hyperstars.self_s", "s", "lower"),
    ("structures.canonical_key.calls", "count", "lower"),
    ("structures.canonical_key.self_s", "s", "lower"),
    ("structures.catalog_number.self_s", "s", "lower"),
    ("structures.adversary_partition.calls", "count", "lower"),
    ("structures.adversary_partition.self_s", "s", "lower"),
    ("protocols.simulate_protocol.self_s", "s", "lower"),
    ("protocols.measure_z.calls", "count", "lower"),
    ("protocols.run_threshold34_circuit.self_s", "s", "lower"),
    ("protocols.run_block_measure_protocol.self_s", "s", "lower"),
    ("protocols.decoupling_decoder.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("verifier.self_s", "s", "lower"),
    ("schemes.self_s", "s", "lower"),
    ("structures.self_s", "s", "lower"),
    ("qstate.self_s", "s", "lower"),
    ("protocols.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.layer_cover_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def per_layer_metrics(tracer, traced_walls, traced_batch, plain_batch):
    """(metrics, units) for one traced run.

    traced_walls are the traced rounds' batch times; traced_batch and
    plain_batch are the robust batch times (sum of each call's fastest
    repetition) with tracing on and off.
    """
    rounds = len(traced_walls)
    summary = tracer.summary()
    calls, self_s = summary["calls"], summary["self_s"]

    def n(name):
        return calls.get(name, 0) / rounds

    def t(*names):
        return sum(self_s.get(x, 0.0) for x in names) / rounds

    eig = list(tracer.eig_dims)
    layer_self = {layer: sum(v for k, v in self_s.items() if k.split(".")[0] == layer) / rounds
                  for layer in LAYERS}
    lookups = n("verifier.entropy.s") + n("verifier.entropy.s_with_ref")
    misses = summary["entropy_misses"] / rounds
    values = {
        "qstate.eig.calls": len(eig) / rounds,
        "qstate.eig.self_s": t("qstate.eig"),
        "qstate.eig.calls_le64": sum(d <= 64 for d in eig) / rounds,
        "qstate.eig.calls_128_512": sum(128 <= d <= 512 for d in eig) / rounds,
        "qstate.eig.calls_ge1024": sum(d >= 1024 for d in eig) / rounds,
        "qstate.eig.dim_max": max(eig, default=0),
        "qstate.eig.flops_computed": sum(d ** 3 for d in eig) / rounds,
        "qstate.partial_trace.calls": n("qstate.partial_trace"),
        "qstate.partial_trace.self_s": t("qstate.partial_trace"),
        "qstate.rho_bytes_computed": sum(16 * d * d for d in tracer.rho_dims) / rounds,
        "qstate.apply_isometry.self_s": t("qstate.apply_isometry"),
        "qstate.purestate.count": n("qstate.purestate"),
        "verifier.verify.calls": n("verifier.verify"),
        "verifier.verify.self_s": t("verifier.verify"),
        "verifier.entropy.lookups": lookups,
        "verifier.entropy.misses": misses,
        "verifier.entropy.hit_ratio": 1.0 - misses / lookups if lookups else 0.0,
        "verifier.checker.passes.calls": n("verifier.checker.passes"),
        "verifier.checker.self_s": t("verifier.checker.passes", "verifier.checker.init"),
        "verifier.feasibility_matrix.self_s": t("verifier.feasibility_matrix"),
        "schemes.search_assignment.calls": n("schemes.search_assignment"),
        "schemes.search_assignment.self_s": t("schemes.search_assignment"),
        "schemes.load_scheme.self_s": t("schemes.load_scheme"),
        "schemes.induce_structure.self_s": t("schemes.induce_structure"),
        "schemes.distribute_purified.self_s": t("schemes.distribute_purified"),
        "structures.enumerate_hyperstars.self_s": t("structures.enumerate_hyperstars"),
        "structures.canonical_key.calls": n("structures.canonical_key"),
        "structures.canonical_key.self_s": t("structures.canonical_key"),
        "structures.catalog_number.self_s": t("structures.catalog_number"),
        "structures.adversary_partition.calls": n("structures.adversary_partition"),
        "structures.adversary_partition.self_s": t("structures.adversary_partition"),
        "protocols.simulate_protocol.self_s": t("protocols.simulate_protocol"),
        "protocols.measure_z.calls": n("protocols.measure_z"),
        "protocols.run_threshold34_circuit.self_s": t("protocols.run_threshold34_circuit"),
        "protocols.run_block_measure_protocol.self_s": t("protocols.run_block_measure_protocol"),
        "protocols.decoupling_decoder.self_s": t("protocols.decoupling_decoder"),
        "cli.self_s": layer_self["cli"],
        "verifier.self_s": layer_self["verifier"],
        "schemes.self_s": layer_self["schemes"],
        "structures.self_s": layer_self["structures"],
        "qstate.self_s": layer_self["qstate"],
        "protocols.self_s": layer_self["protocols"],
        "trace.wall_s": traced_batch,
        "trace.layer_cover_ratio": sum(layer_self.values()) * rounds / sum(traced_walls),
        "trace.overhead_ratio": traced_batch / plain_batch - 1.0,
    }
    return values, {name: unit for name, unit, _ in PER_LAYER}
