"""Per-layer metrics of the traced run, and what each is predicted to move.

Each entry is (metric, unit, source, prediction). The source says how the
value comes out of the trace:

* ("busy", span) -- mean time per call of that span name;
* ("self", span) -- mean time per call minus the time covered by its
  non-probe child spans;
* ("count", counter) -- a counter summed over the first traced pass, which
  replays the same seeded steps on every run with that seed;
* ("failed", layer) -- steps whose check failed in that layer.

Layers are the package modules; bench (the kernel harness) and errors
(which does no work) are not layers. A span name is "<module>.<function>",
so its layer is the part before the first dot. A layer the workload does
not call reports 0.
"""

PER_LAYER = (
    ("numtheory.gen_prime_3mod4.busy_ms", "ms", ("busy", "numtheory.gen_prime_3mod4"),
     "keygen_ms_p50 on keygen; probed on a clone of the keygen rng"),
    ("numtheory.is_probable_prime.busy_ms", "ms", ("busy", "numtheory.is_probable_prime"),
     "validate_ms_p50 and keygen_ms_p50 on keygen; probed on the accepted primes"),
    ("numtheory.sqrt_mod_p_3mod4.busy_us", "us", ("busy", "numtheory.sqrt_mod_p_3mod4"),
     "decrypt_us_p50 on msg-large; probed on the unmasked value"),
    ("numtheory.four_roots.busy_us", "us", ("busy", "numtheory.four_roots"),
     "decrypt_us_p50 and rabin_roundtrip_us_p50 on msg-small; probed"),
    ("numtheory.failed", "count", ("failed", "numtheory"), "error_rate"),
    ("keys.generate_keypair.busy_ms", "ms", ("busy", "keys.generate_keypair"),
     "keygen_ms_p50 on keygen; setup_s on msg-small and msg-large"),
    ("keys.generate_keypair.self_ms", "ms", ("self", "keys.generate_keypair"),
     "keygen_ms_p50 on keygen; setup_s on msg-small and msg-large"),
    ("keys.validate_keypair.busy_ms", "ms", ("busy", "keys.validate_keypair"),
     "validate_ms_p50 on keygen"),
    ("keys.failed", "count", ("failed", "keys"), "error_rate"),
    ("codec.encode.busy_us", "us", ("busy", "codec.encode"),
     "encrypt_us_p50 on msg-small"),
    ("codec.decode.busy_us", "us", ("busy", "codec.decode"),
     "decrypt_us_p50 on msg-small and msg-large"),
    ("codec.payload_bytes", "count", ("count", "codec.payload_bytes"),
     "none; input size of the round trips"),
    ("codec.failed", "count", ("failed", "codec"), "error_rate"),
    ("cipher.encrypt.busy_us", "us", ("busy", "cipher.encrypt"),
     "encrypt_us_p50 on msg-small and msg-large"),
    ("cipher.decrypt.busy_us", "us", ("busy", "cipher.decrypt"),
     "decrypt_us_p50 on msg-small and msg-large"),
    ("cipher.decrypt.rejected", "count", ("count", "cipher.decrypt.rejected"),
     "reject_us_p50 on msg-small and msg-large"),
    ("cipher.format_ciphertext.busy_us", "us", ("busy", "cipher.format_ciphertext"),
     "encrypt_us_tail and cli_roundtrip_ms_p50 on msg-large"),
    ("cipher.parse_ciphertext.busy_us", "us", ("busy", "cipher.parse_ciphertext"),
     "decrypt_us_tail and cli_roundtrip_ms_p50 on msg-large"),
    ("cipher.ciphertext_chars", "count", ("count", "cipher.ciphertext_chars"),
     "the _tail metrics and cli_roundtrip_ms_p50 on msg-large"),
    ("cipher.failed", "count", ("failed", "cipher"), "error_rate"),
    ("rabin.encrypt_extrabits.busy_us", "us", ("busy", "rabin.encrypt_extrabits"),
     "rabin_roundtrip_us_p50 on msg-small and msg-large"),
    ("rabin.decrypt_extrabits.busy_us", "us", ("busy", "rabin.decrypt_extrabits"),
     "rabin_roundtrip_us_p50 on msg-small and msg-large"),
    ("rabin.failed", "count", ("failed", "rabin"), "error_rate"),
    ("attacks.lattice_attack.busy_ms", "ms", ("busy", "attacks.lattice_attack"),
     "lattice_ms_p50 on attack"),
    ("attacks.lll_reduce.busy_ms", "ms", ("busy", "attacks.lll_reduce"),
     "lattice_ms_p50 on attack; probed on the same build_lattice basis"),
    ("attacks.congruence_bruteforce.scanned", "count",
     ("count", "attacks.congruence_bruteforce.scanned"),
     "none (the program's own count); the base of congruence_scan_per_s"),
    ("attacks.congruence_bruteforce.busy_ms", "ms", ("busy", "attacks.congruence_bruteforce"),
     "congruence_scan_per_s on attack"),
    ("attacks.factor_from_roots.busy_us", "us", ("busy", "attacks.factor_from_roots"),
     "nothing"),
    ("attacks.failed", "count", ("failed", "attacks"), "error_rate"),
    ("cli.main.encrypt.busy_ms", "ms", ("busy", "cli.main.encrypt"),
     "cli_roundtrip_ms_p50 on msg-large"),
    ("cli.main.decrypt.busy_ms", "ms", ("busy", "cli.main.decrypt"),
     "cli_roundtrip_ms_p50 on msg-large"),
    ("cli.failed", "count", ("failed", "cli"), "error_rate"),
)

# Reported by the traced run next to the layers: traced minus untraced time
# of the same replayed steps, as a share of the untraced time.
OVERHEAD = ("trace.overhead_pct", "%")

_NS_PER = {"ms": 1e6, "us": 1e3}


def layer_metrics(stats, counters, failures):
    """Values of PER_LAYER from span_stats(), the counters and the failures."""
    out = {}
    for metric, unit, (kind, key), _ in PER_LAYER:
        if kind == "count":
            value = counters.get(key, 0)
        elif kind == "failed":
            value = failures.get(key, 0)
        else:
            st = stats.get(key)
            ns = 0 if st is None else st["busy_ns" if kind == "busy" else "self_ns"]
            value = ns / st["calls"] / _NS_PER[unit] if ns else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out
