"""The four workloads: set-up, one closed-loop step, and the output checks.

Every input comes from random.Random seeded with the workload name, the
run seed and the step index, so a step replays exactly (the traced run
relies on this). A step returns the seconds spent in each timed region;
input generation, checks and stage probes run outside those regions.
"""

import math
import random
import time

from aabeta import attacks, cipher, cli, codec, keys, numtheory, rabin
from aabeta.errors import InvalidCiphertext

from checks import check, lll_violation

perf = time.perf_counter

SIZES = {
    # Full sizes as chosen for the benchmark; see README.md for why.
    "full": {
        "keygen_n": 512,
        "small_n": 64,
        "large_n": 1024,
        "attack_n": 128,
        "attack_keys": 4,
        "congruence_budget": 20_000,
    },
    # Toy sizes for the smoke check only; figures are not comparable.
    "tiny": {
        "keygen_n": 24,
        "small_n": 16,
        "large_n": 32,
        "attack_n": 16,
        "attack_keys": 2,
        "congruence_budget": 200,
    },
}


class Workload:
    """One closed-loop client over the package's public functions.

    ``timed`` names the regions one step times; their sum is the step's
    latency. ``report`` lists the workload's named end-to-end metrics as
    (metric, region, statistic, unit). ``pass_steps`` is the number of
    steps the traced run replays per pass; the untraced run reads peak
    memory after that many steps.
    """

    name = ""
    timed = ()
    report = ()
    pass_steps = 1

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.state = None

    def rng(self, *parts):
        return random.Random("/".join(str(x) for x in (self.name, self.seed) + parts))

    def build(self, rep, t):
        """One set-up: key generation and inputs. Returns the state."""
        return None

    def check_setup(self, t):
        """Checks and probes on the set-up the steps use (not timed)."""

    def step(self, i, t):
        raise NotImplementedError


def _keygen_traced(t, n, rng):
    """generate_keypair, keeping the rng state a traced run probes with."""
    saved = rng.getstate() if t.traced else None
    return t.call("keys.generate_keypair", keys.generate_keypair, n, rng), saved


def _probe_keygen(t, n, saved, kp):
    """Stage probes of keygen: the prime search on a clone of its rng and
    the primality test on the accepted primes, checked against the key."""
    rng = random.Random()
    rng.setstate(saved)
    prime = numtheory.gen_prime_3mod4
    p = t.call("numtheory.gen_prime_3mod4", prime, n, rng, probe=True)
    q = p
    while q == p:
        q = t.call("numtheory.gen_prime_3mod4", prime, n, rng, probe=True)
    check(
        (p, q) == (kp.private.p, kp.private.q),
        "numtheory",
        "prime search on the cloned rng does not give the key's p, q",
    )
    for x in (p, q):
        ok = t.call(
            "numtheory.is_probable_prime", numtheory.is_probable_prime, x, probe=True
        )
        check(ok, "numtheory", "an accepted prime fails is_probable_prime")


def _probe_roots(t, p, q, w):
    """Stage probes of decryption: the two square roots and the CRT
    combination on the unmasked value w, each root checked."""
    sqrt = numtheory.sqrt_mod_p_3mod4
    x_p = t.call("numtheory.sqrt_mod_p_3mod4", sqrt, w % p, p, probe=True)
    x_q = t.call("numtheory.sqrt_mod_p_3mod4", sqrt, w % q, q, probe=True)
    roots = t.call(
        "numtheory.four_roots", numtheory.four_roots, x_p, x_q, p, q, probe=True
    )
    pq = p * q
    check(
        all(r * r % pq == w % pq for r in roots),
        "numtheory",
        "a combined root does not square to the unmasked value",
    )


class Keygen(Workload):
    """Key generation at n=512, each key strictly validated."""

    name = "keygen"
    timed = ("keygen", "validate")
    report = (
        ("keygen_ms_p50", "keygen", "p50", "ms"),
        ("keygen_ms_tail", "keygen", "tail", "ms"),
        ("validate_ms_p50", "validate", "p50", "ms"),
    )
    pass_steps = 6

    def step(self, i, t):
        n = self.size["keygen_n"]
        t0 = perf()
        kp, saved = _keygen_traced(t, n, self.rng("step", i))
        t1 = perf()
        report = t.call("keys.validate_keypair", keys.validate_keypair, kp, strict=True)
        t2 = perf()
        check(report.valid, "keys", f"generated key fails validation: {report.violations}")
        if t.traced:
            _probe_keygen(t, n, saved, kp)
        return {"keygen": t1 - t0, "validate": t2 - t1}


class Messages(Workload):
    """Payload round trips, tampered ciphertexts and Rabin round trips at
    one key size; optionally some round trips through the CLI."""

    timed = ("encrypt", "decrypt", "reject", "rabin", "cli")
    report = (
        ("encrypt_us_p50", "encrypt", "p50", "us"),
        ("encrypt_us_tail", "encrypt", "tail", "us"),
        ("decrypt_us_p50", "decrypt", "p50", "us"),
        ("decrypt_us_tail", "decrypt", "tail", "us"),
        ("reject_us_p50", "reject", "p50", "us"),
        ("rabin_roundtrip_us_p50", "rabin", "p50", "us"),
    )
    size_key = ""
    cli_share = 0.0
    reject_share = 0.10
    rabin_share = 0.25

    @property
    def n(self):
        return self.size[self.size_key]

    def build(self, rep, t):
        kp, saved = _keygen_traced(t, self.n, self.rng("setup", rep))
        p, q = kp.private.p, kp.private.q
        state = {
            "kp": kp,
            "rng_state": saved,
            "rabin": rabin.RabinKeyPair(p * q, p, q),
        }
        if self.cli_share:
            folder = self.workdir / f"rep{rep}"
            folder.mkdir()
            files = {k: folder / k for k in ("pub", "priv", "in", "ct", "out")}
            files["pub"].write_text(keys.format_public_key(kp.public), encoding="utf-8")
            files["priv"].write_text(
                keys.format_private_key(kp.private, self.n), encoding="utf-8"
            )
            state["files"] = {k: str(v) for k, v in files.items()}
        return state

    def check_setup(self, t):
        kp = self.state["kp"]
        report = t.call("keys.validate_keypair", keys.validate_keypair, kp, strict=True)
        check(report.valid, "keys", f"set-up key fails validation: {report.violations}")
        if t.traced:
            _probe_keygen(t, self.n, self.state["rng_state"], kp)

    def step(self, i, t):
        rng = self.rng("step", i)
        u = rng.random()
        if u < self.cli_share:
            return self._cli_roundtrip(rng, t)
        u -= self.cli_share
        if u < self.reject_share:
            return self._reject(rng, t)
        if u < self.reject_share + self.rabin_share:
            return self._rabin_roundtrip(rng, t)
        return self._roundtrip(rng, t)

    def _payload(self, rng):
        return rng.randbytes(rng.randint(0, codec.capacity_bytes(self.n)))

    def _roundtrip(self, rng, t):
        kp = self.state["kp"]
        payload = self._payload(rng)
        t0 = perf()
        msg = t.call("codec.encode", codec.encode, payload, self.n)
        ct = t.call("cipher.encrypt", cipher.encrypt, kp.public, msg, rng)
        text = t.call("cipher.format_ciphertext", cipher.format_ciphertext, ct)
        t1 = perf()
        parsed = t.call("cipher.parse_ciphertext", cipher.parse_ciphertext, text)
        got = t.call("cipher.decrypt", cipher.decrypt, kp, parsed)
        out = t.call("codec.decode", codec.decode, got)
        t2 = perf()
        check(parsed == ct, "cipher", "parse_ciphertext(format_ciphertext(C)) != C")
        check(got == msg, "cipher", "decrypt does not return the encrypted message")
        check(out == payload, "codec", "decoded bytes differ from the payload")
        if t.traced:
            t.count("codec.payload_bytes", len(payload))
            t.count("cipher.ciphertext_chars", len(text))
            priv = kp.private
            _probe_roots(t, priv.p, priv.q, ct.c * priv.d % priv.pq)
        return {"encrypt": t1 - t0, "decrypt": t2 - t1}

    def _reject(self, rng, t):
        kp = self.state["kp"]
        msg = codec.encode(self._payload(rng), self.n)
        ct = cipher.encrypt(kp.public, msg, rng)
        text = cipher.format_ciphertext(cipher.Ciphertext(ct.c + 1))
        t0 = perf()
        try:
            tampered = t.call("cipher.parse_ciphertext", cipher.parse_ciphertext, text)
            t.call("cipher.decrypt", cipher.decrypt, kp, tampered)
        except InvalidCiphertext:
            rejected = True
        else:
            rejected = False
        t1 = perf()
        check(rejected, "cipher", "tampered ciphertext C+1 was accepted")
        t.count("cipher.decrypt.rejected")
        return {"reject": t1 - t0}

    def _rabin_roundtrip(self, rng, t):
        rk = self.state["rabin"]
        m = rng.randrange(2, rk.N)
        while math.gcd(m, rk.N) != 1:
            m = rng.randrange(2, rk.N)
        t0 = perf()
        c, parity, jac = t.call("rabin.encrypt_extrabits", rabin.encrypt_extrabits, rk.N, m)
        got = t.call(
            "rabin.decrypt_extrabits", rabin.decrypt_extrabits, rk, c, parity, jac
        )
        t1 = perf()
        check(got == m, "rabin", "decrypt_extrabits does not return the message")
        if t.traced:
            _probe_roots(t, rk.p, rk.q, c)
        return {"rabin": t1 - t0}

    def _cli_roundtrip(self, rng, t):
        f = self.state["files"]
        payload = self._payload(rng)
        with open(f["in"], "wb") as out:
            out.write(payload)
        for name in ("ct", "out"):
            with open(f[name], "wb"):
                pass
        seed = str(rng.getrandbits(32))
        enc = ["encrypt", "--pub", f["pub"], "--in", f["in"], "--out", f["ct"], "--seed", seed]
        dec = ["decrypt", "--pub", f["pub"], "--priv", f["priv"]]
        dec += ["--in", f["ct"], "--out", f["out"]]
        t0 = perf()
        rc_enc = t.call("cli.main.encrypt", cli.main, enc)
        rc_dec = t.call("cli.main.decrypt", cli.main, dec)
        t1 = perf()
        check(rc_enc == 0 and rc_dec == 0, "cli", f"exit codes {rc_enc}, {rc_dec}")
        with open(f["out"], "rb") as back:
            check(back.read() == payload, "cli", "decrypted file differs from the payload")
        return {"cli": t1 - t0}


class MessagesSmall(Messages):
    name = "msg-small"
    size_key = "small_n"
    pass_steps = 2000


class MessagesLarge(Messages):
    name = "msg-large"
    size_key = "large_n"
    cli_share = 0.05
    report = Messages.report + (("cli_roundtrip_ms_p50", "cli", "p50", "ms"),)
    pass_steps = 100


class Attack(Workload):
    """The lattice, congruence and root-pair attacks on seeded n=128 keys."""

    name = "attack"
    timed = ("lattice", "congruence", "factor")
    report = (
        ("lattice_ms_p50", "lattice", "p50", "ms"),
        ("congruence_scan_per_s", "congruence", "rate:scanned", "1/s"),
    )
    pass_steps = 3

    def build(self, rep, t):
        rng = self.rng("setup", rep)
        n = self.size["attack_n"]
        return [
            t.call("keys.generate_keypair", keys.generate_keypair, n, rng)
            for _ in range(self.size["attack_keys"])
        ]

    def check_setup(self, t):
        for kp in self.state:
            report = t.call("keys.validate_keypair", keys.validate_keypair, kp, strict=True)
            check(report.valid, "keys", f"set-up key fails validation: {report.violations}")

    def step(self, i, t):
        rng = self.rng("step", i)
        kp = self.state[i % len(self.state)]
        pub, priv = kp.public, kp.private
        p, q = priv.p, priv.q
        n, budget = pub.n, self.size["congruence_budget"]
        msg = codec.encode(rng.randbytes(rng.randint(0, codec.capacity_bytes(n))), n)
        enc = cipher.encrypt_trace(pub, msg, cipher.sample_ephemerals(n, rng))
        ct, u, v = enc.ciphertext, enc.u, enc.v
        w = ct.c * priv.d % priv.pq
        sqrt = numtheory.sqrt_mod_p_3mod4
        roots = numtheory.four_roots(sqrt(w % p, p), sqrt(w % q, q), p, q)
        scale = attacks.preset_scale(n)

        t0 = perf()
        lat = t.call(
            "attacks.lattice_attack",
            attacks.lattice_attack,
            pub,
            ct,
            scale=scale,
            u_true=u,
            v_true=v,
        )
        t1 = perf()
        con = t.call(
            "attacks.congruence_bruteforce", attacks.congruence_bruteforce, pub, ct, budget
        )
        t2 = perf()
        factors = t.call(
            "attacks.factor_from_roots", attacks.factor_from_roots, pub.e_a1, roots
        )
        t3 = perf()

        in_lattice = lat.diagnostics.get("solution_in_lattice") is True
        check(in_lattice, "attacks", "lattice misses (U, V^2, 0)")
        got = lat.recovered
        check(
            got is None or (got["m1"], got["m2"]) == (msg.m1, msg.m2),
            "attacks",
            "lattice attack recovered a wrong message",
        )
        self._check_congruence(pub, ct, u, v, budget, con)
        check(factors == (p, q), "attacks", "factor_from_roots does not give (p, q)")
        scanned = con.diagnostics["scanned"]
        if t.traced:
            t.count("attacks.congruence_bruteforce.scanned", scanned)
            basis = attacks.build_lattice(pub, ct, scale)
            reduced = t.call("attacks.lll_reduce", attacks.lll_reduce, basis, probe=True)
            bad = lll_violation(basis, reduced)
            check(bad is None, "attacks", f"lll_reduce output: {bad}")
        return {
            "lattice": t1 - t0,
            "congruence": t2 - t1,
            "factor": t3 - t2,
            "scanned": scanned,
        }

    @staticmethod
    def _check_congruence(pub, ct, u, v, budget, report):
        """The scan walks j upward from the first j whose V^2 = b - e_a1*j
        fits the V window; it must find (U, V) exactly when the true j lies
        among the candidates it scanned."""
        n, e_a1, e_a2 = pub.n, pub.e_a1, pub.e_a2
        a = ct.c * pow(e_a1, -1, e_a2) % e_a2
        b = (ct.c - e_a1 * a) // e_a2
        j_true, rem = divmod(u - a, e_a2)
        on_family = rem == 0 and b - e_a1 * j_true == v * v
        check(on_family, "attacks", "congruence family misses (U, V)")
        v_hi = (1 << (2 * n - 1)) - 1
        j_lo = -((v_hi * v_hi - b) // e_a1)
        scanned = report.diagnostics["scanned"]
        expected = min(budget, report.diagnostics["j_window"])
        found = report.recovered
        if found is None:
            check(scanned == expected, "attacks", "scan count is not min(budget, window)")
            passed = j_lo <= j_true < j_lo + scanned
            check(not passed, "attacks", "congruence scan passed the true j")
        else:
            check(scanned <= expected, "attacks", "congruence scan exceeds its budget")
            right = (found["u"], found["v"]) == (u, v)
            check(right, "attacks", "congruence scan recovered a wrong (U, V)")


WORKLOADS = {w.name: w for w in (Keygen, MessagesSmall, MessagesLarge, Attack)}
