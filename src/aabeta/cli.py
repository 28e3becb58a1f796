"""Command-line front end.

Exit codes: 0 success, 2 invalid arguments, 3 generation failure,
4 cryptographic failure, 5 I/O failure.
"""

import argparse
import random
import sys
import time
from pathlib import Path

from . import attacks, bench, cipher, codec, rabin
from .errors import (
    CapacityError,
    CodecError,
    CryptoError,
    GenerationFailure,
    InconsistentKey,
)
from .keys import (
    KeyPair,
    check_public_key,
    format_private_key,
    format_public_key,
    generate_keypair,
    parse_fields,
    parse_private_key,
    parse_public_key,
    parse_uint,
    validate_keypair,
)

_ATTACK_KINDS = ("congruence", "coppersmith", "euclid", "lattice", "factor-from-roots")


def _read_text(path):
    return Path(path).read_text(encoding="utf-8")


def _write_text(path, text):
    Path(path).write_text(text, encoding="utf-8")


def _load_keypair(pub_path, priv_path):
    pub = parse_public_key(_read_text(pub_path))
    priv, n_priv = parse_private_key(_read_text(priv_path))
    if n_priv != pub.n:
        raise InconsistentKey(f"key files disagree on n: {pub.n} vs {n_priv}")
    return KeyPair(pub, priv)


def _load_usable_keypair(pub_path, priv_path):
    """_load_keypair plus check_public_key and relaxed validation, as decrypt needs."""
    kp = _load_keypair(pub_path, priv_path)
    check_public_key(kp.public)
    report = validate_keypair(kp, strict=False)
    if not report.valid:
        raise InconsistentKey("; ".join(report.violations))
    return kp


def _cmd_keygen(args):
    kp = generate_keypair(args.n, random.Random(args.seed))
    _write_text(args.out_pub, format_public_key(kp.public))
    _write_text(args.out_priv, format_private_key(kp.private, kp.public.n))
    return 0


def _cmd_encrypt(args):
    pub = parse_public_key(_read_text(args.pub))
    check_public_key(pub)
    if args.infile is None:
        ka = parse_fields(_read_text(args.insecure_known_answer), ("m1", "m2", "k1", "k2"))
        msg = codec.EncodedMessage(ka["m1"], ka["m2"], pub.n)
        eph = cipher.EphemeralPair(ka["k1"], ka["k2"])
    else:
        msg = codec.encode(Path(args.infile).read_bytes(), pub.n)
        eph = cipher.sample_ephemerals(pub.n, random.Random(args.seed))
    ct = cipher.encrypt_trace(pub, msg, eph).ciphertext
    _write_text(args.out, cipher.format_ciphertext(ct))
    return 0


def _cmd_decrypt(args):
    kp = _load_usable_keypair(args.pub, args.priv)
    msg = cipher.decrypt(kp, cipher.parse_ciphertext(_read_text(args.infile)))
    Path(args.out).write_bytes(codec.decode(msg))
    return 0


def _cmd_validate(args):
    kp = _load_keypair(args.pub, args.priv)
    report = validate_keypair(kp, strict=not args.relaxed)
    mode = "relaxed" if args.relaxed else "strict"
    if report.valid:
        print(f"valid ({mode})")
        return 0
    for violation in report.violations:
        print(violation, file=sys.stderr)
    return 4


def _parse_scale(text, n):
    """--T: `auto`, `2^k` or an integer, at most 2^(32n); k is clamped before the shift."""
    if text == "auto":
        return "auto"
    cap = 32 * n
    scale = 1 << min(parse_uint(text[2:]), cap + 1) if text[:2] == "2^" else parse_uint(text)
    if scale > 1 << cap:
        raise ValueError(f"--T must be at most 2^{cap} (2^(32n))")
    return scale


def report_to_text(report, elapsed_ms):
    """Line-oriented `key: value` serialization of a report; ints are written in 0x hex."""
    lines = [
        f"attack: {report.attack}",
        f"verdict: {report.verdict}",
        f"elapsed_ms: {elapsed_ms:.3f}",
    ]
    for section, data in (
        ("param", report.params),
        ("diag", report.diagnostics),
        ("recovered", report.recovered or {}),
    ):
        for key in sorted(data):
            value = data[key]
            lines.append(f"{section}.{key}: {hex(value) if type(value) is int else value}")
    return "\n".join(lines) + "\n"


def _cmd_attack(args):
    pub = parse_public_key(_read_text(args.pub))
    check_public_key(pub)

    def need_ct():
        if args.ct is None:
            raise ValueError(f"--ct is required for --kind {args.kind}")
        return cipher.parse_ciphertext(_read_text(args.ct))

    t0 = time.perf_counter()
    if args.kind == "congruence":
        report = attacks.congruence_bruteforce(pub, need_ct(), args.budget)
    elif args.kind == "coppersmith":
        d = None if args.priv is None else _load_usable_keypair(args.pub, args.priv).private.d
        report = attacks.coppersmith_feasibility(pub, d=d)
    elif args.kind == "euclid":
        if args.known_answer is None:
            raise ValueError("--known-answer is required for --kind euclid")
        ka = parse_fields(_read_text(args.known_answer), ("u", "v"))
        report = attacks.euclid_division_check(pub, need_ct(), ka["u"], ka["v"])
    elif args.kind == "lattice":
        ka = {}
        if args.known_answer is not None:
            ka = parse_fields(_read_text(args.known_answer), ("u", "v"))
        report = attacks.lattice_attack(
            pub,
            need_ct(),
            scale=_parse_scale(args.T, pub.n),
            u_true=ka.get("u"),
            v_true=ka.get("v"),
        )
    else:  # factor-from-roots
        if args.roots is None:
            raise ValueError("--roots is required for --kind factor-from-roots")
        fields = ("v1", "v2", "v3", "v4")
        vals = parse_fields(_read_text(args.roots), fields)
        p, q = attacks.factor_from_roots(pub.e_a1, [vals[f] for f in fields])
        report = attacks.AttackReport(
            attack="factor-from-roots",
            verdict=attacks.VERDICT_RECOVERED,
            params={"n": pub.n},
            recovered={"p": p, "q": q},
        )
    text = report_to_text(report, (time.perf_counter() - t0) * 1000.0)
    if args.report:
        _write_text(args.report, text)
    else:
        print(text, end="")
    return 0


def _cmd_bench(args):
    rows = bench.run_bench(
        args.schemes.split(","),
        [parse_uint(x) for x in args.n_list.split(",")],
        reps=args.reps,
        seed=args.seed,
    )
    text = bench.emit_csv(rows)
    if args.out:
        _write_text(args.out, text)
    else:
        print(text, end="")
    return 0


_RABIN_PUB_FIELDS = ("n", "N")
_RABIN_PRIV_FIELDS = ("n", "p", "q")


def _rabin_payload_to_int(data):
    # leading sentinel byte keeps leading zero bytes reversible
    return int.from_bytes(b"\x01" + data, "big")


def _rabin_int_to_payload(m):
    raw = m.to_bytes((m.bit_length() + 7) // 8, "big")
    if not raw or raw[0] != 1:
        raise CodecError("recovered integer has no payload sentinel")
    return raw[1:]


def _cmd_rabin_keygen(args):
    kp = rabin.keygen(args.n, random.Random(args.seed))
    _write_text(args.out_pub, f"n = {args.n:#x}\nN = {kp.N:#x}\n")
    _write_text(args.out_priv, f"n = {args.n:#x}\np = {kp.p:#x}\nq = {kp.q:#x}\n")
    return 0


def _cmd_rabin_encrypt(args):
    pub = parse_fields(_read_text(args.pub), _RABIN_PUB_FIELDS)
    m = _rabin_payload_to_int(Path(args.infile).read_bytes())
    if args.scheme == "redundant":
        c = rabin.encrypt_redundant(pub["N"], m, args.l)
        _write_text(args.out, cipher.format_ciphertext(cipher.Ciphertext(c)))
    else:
        c, parity, jac = rabin.encrypt_extrabits(pub["N"], m)
        _write_text(args.out, f"c = {c:#x}\nparity = {parity:#x}\njacobi = {jac:#x}\n")
    return 0


def _cmd_rabin_decrypt(args):
    priv = parse_fields(_read_text(args.priv), _RABIN_PRIV_FIELDS)
    try:
        kp = rabin.RabinKeyPair(priv["p"] * priv["q"], priv["p"], priv["q"])
    except ValueError as exc:
        raise InconsistentKey(f"inconsistent Rabin key: {exc}") from exc
    if args.scheme == "redundant":
        c = cipher.parse_ciphertext(_read_text(args.infile)).c
        result = rabin.decrypt_redundant(kp, c, args.l)
        if isinstance(result, rabin.AmbiguityReport):
            raise CryptoError(f"ambiguous decryption: roots {result.roots}")
        payload = result
    else:
        fields = parse_fields(_read_text(args.infile), ("c", "parity", "jacobi"))
        payload = rabin.decrypt_extrabits(kp, fields["c"], fields["parity"], fields["jacobi"])
    Path(args.out).write_bytes(_rabin_int_to_payload(payload))
    return 0


def _cmd_rabin_ambiguity(args):
    stats = rabin.redundancy_experiment(args.n, args.l, args.trials, random.Random(args.seed))
    print(f"trials = {stats.trials}")
    print(f"ambiguous = {stats.ambiguous}")
    print(f"rate = {stats.rate:.6f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="aabeta", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a key pair")
    p.add_argument("--n", type=parse_uint, required=True)
    p.add_argument("--seed", type=parse_uint, default=None)
    p.add_argument("--out-pub", required=True)
    p.add_argument("--out-priv", required=True)
    p.set_defaults(handler=_cmd_keygen)

    p = sub.add_parser("encrypt", help="encrypt a payload file")
    p.add_argument("--pub", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--in", dest="infile")
    source.add_argument("--insecure-known-answer")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=parse_uint, default=None)
    p.set_defaults(handler=_cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a ciphertext file")
    p.add_argument("--pub", required=True)
    p.add_argument("--priv", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_decrypt)

    p = sub.add_parser("validate", help="validate a key pair")
    p.add_argument("--pub", required=True)
    p.add_argument("--priv", required=True)
    p.add_argument("--relaxed", action="store_true")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("attack", help="run one cryptanalysis harness")
    p.add_argument("--kind", choices=_ATTACK_KINDS, required=True)
    p.add_argument("--pub", required=True)
    p.add_argument("--ct")
    p.add_argument("--priv")
    p.add_argument("--budget", type=parse_uint, default=100_000)
    p.add_argument("--T", default="auto")
    p.add_argument("--report")
    p.add_argument("--known-answer")
    p.add_argument("--roots")
    p.set_defaults(handler=_cmd_attack)

    p = sub.add_parser("bench", help="run the timing harness, emit CSV")
    p.add_argument("--schemes", default=",".join(bench.SCHEMES))
    p.add_argument("--n-list", default="64,128")
    p.add_argument("--reps", type=parse_uint, default=5)
    p.add_argument("--seed", type=parse_uint, default=0)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("rabin", help="baseline Rabin operations")
    rsub = p.add_subparsers(dest="rabin_command", required=True)

    rp = rsub.add_parser("keygen")
    rp.add_argument("--n", type=parse_uint, required=True)
    rp.add_argument("--seed", type=parse_uint, default=None)
    rp.add_argument("--out-pub", required=True)
    rp.add_argument("--out-priv", required=True)
    rp.set_defaults(handler=_cmd_rabin_keygen)

    rp = rsub.add_parser("encrypt")
    rp.add_argument("--pub", required=True)
    rp.add_argument("--in", dest="infile", required=True)
    rp.add_argument("--out", required=True)
    rp.add_argument("--scheme", choices=("redundant", "extrabits"), required=True)
    rp.add_argument("--l", type=parse_uint, default=8)
    rp.set_defaults(handler=_cmd_rabin_encrypt)

    rp = rsub.add_parser("decrypt")
    rp.add_argument("--priv", required=True)
    rp.add_argument("--in", dest="infile", required=True)
    rp.add_argument("--out", required=True)
    rp.add_argument("--scheme", choices=("redundant", "extrabits"), required=True)
    rp.add_argument("--l", type=parse_uint, default=8)
    rp.set_defaults(handler=_cmd_rabin_decrypt)

    rp = rsub.add_parser("ambiguity")
    rp.add_argument("--l", type=parse_uint, default=8)
    rp.add_argument("--trials", type=parse_uint, default=20_000)
    rp.add_argument("--n", type=parse_uint, default=16)
    rp.add_argument("--seed", type=parse_uint, default=0)
    rp.set_defaults(handler=_cmd_rabin_ambiguity)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except GenerationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CryptoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
