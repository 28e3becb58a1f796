"""Command-line front end.

Exit codes: 0 success, 2 invalid arguments, 3 generation failure,
4 cryptographic failure, 5 I/O failure.

main maps exceptions to these codes through one ordered table, _EXIT_CODES.
"""

import argparse
import functools
import random
import sys
import time
from pathlib import Path

from . import cipher, codec, rabin
from .errors import (
    CapacityError,
    CodecError,
    CryptoError,
    GenerationFailure,
    InconsistentKey,
)
from .keys import (
    _MAX_N,
    KeyPair,
    _check_size,
    check_public_key,
    format_fields,
    format_private_key,
    format_public_key,
    generate_keypair,
    parse_fields,
    parse_private_key,
    parse_public_key,
    parse_uint,
    validate_keypair,
)

# Tried in order: GenerationFailure and CapacityError are CryptoErrors.
_EXIT_CODES = ((GenerationFailure, 3), (CapacityError, 2), (CryptoError, 4), (ValueError, 2),
               (OSError, 5))


def _read_text(path):
    return Path(path).read_text(encoding="utf-8")


def _write_text(path, text):
    Path(path).write_text(text, encoding="utf-8")


def _emit(path, text):
    """Write text to path, or print it when no path is given."""
    if path:
        _write_text(path, text)
    else:
        print(text, end="")


def _load_public_key(path):
    """A public key file, parsed and size-checked by check_public_key."""
    pub = parse_public_key(_read_text(path))
    check_public_key(pub)
    return pub


def _load_keypair(pub_path, priv_path):
    pub = parse_public_key(_read_text(pub_path))
    priv, n_priv = parse_private_key(_read_text(priv_path))
    if n_priv != pub.n:
        raise InconsistentKey(f"key files disagree on n: {pub.n:#x} vs {n_priv:#x}")
    return KeyPair(pub, priv)


def _load_usable_keypair(pub_path, priv_path):
    """_load_keypair plus check_public_key and relaxed validation, as decrypt needs."""
    kp = _load_keypair(pub_path, priv_path)
    check_public_key(kp.public)
    report = validate_keypair(kp, strict=False)
    if not report.valid:
        raise InconsistentKey("; ".join(report.violations))
    return kp


def _rng(seed):
    """random.Random(seed) for reproducible vectors; without a seed, the OS's randomness."""
    return random.SystemRandom() if seed is None else random.Random(seed)


def _cmd_keygen(args):
    kp = generate_keypair(args.n, _rng(args.seed))
    _write_text(args.out_pub, format_public_key(kp.public))
    _write_text(args.out_priv, format_private_key(kp.private, kp.public.n))


def _cmd_encrypt(args):
    pub = _load_public_key(args.pub)
    if args.infile is None:
        ka = parse_fields(_read_text(args.insecure_known_answer), ("m1", "m2", "k1", "k2"))
        msg = codec.EncodedMessage(ka["m1"], ka["m2"], pub.n)
        eph = cipher.EphemeralPair(ka["k1"], ka["k2"])
    else:
        msg = codec.encode(Path(args.infile).read_bytes(), pub.n)
        eph = cipher.sample_ephemerals(pub.n, _rng(args.seed))
    ct = cipher.encrypt_trace(pub, msg, eph).ciphertext
    _write_text(args.out, cipher.format_ciphertext(ct))


def _cmd_decrypt(args):
    kp = _load_usable_keypair(args.pub, args.priv)
    msg = cipher.decrypt(kp, cipher.parse_ciphertext(_read_text(args.infile)))
    Path(args.out).write_bytes(codec.decode(msg))


def _cmd_validate(args):
    kp = _load_keypair(args.pub, args.priv)
    report = validate_keypair(kp, strict=not args.relaxed)
    if not report.valid:
        for violation in report.violations:
            print(violation, file=sys.stderr)
        return 4
    print(f"valid ({'relaxed' if args.relaxed else 'strict'})")


def _parse_n(text):
    """--n: an integer read by parse_uint, at most _MAX_N, checked before any shift."""
    n = parse_uint(text)
    if n > _MAX_N:
        raise argparse.ArgumentTypeError(f"n must be at most {_MAX_N}")
    return n


def _parse_n_list(text):
    """--n-list: comma-separated values, each read by _parse_n."""
    return [_parse_n(x) for x in text.split(",")]


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


_ROOT_FIELDS = ("v1", "v2", "v3", "v4")
# The reader(args, path) of each attack input option's file.
_ATTACK_INPUTS = {
    "ct": lambda args, path: cipher.parse_ciphertext(_read_text(path)),
    "priv": lambda args, path: _load_usable_keypair(args.pub, path).private.d,
    "known-answer": lambda args, path: parse_fields(_read_text(path), ("u", "v")),
    "roots": lambda args, path: parse_fields(_read_text(path), _ROOT_FIELDS),
}
# Each attack kind: the input options it reads, in order, each required (True)
# or optional (False: None when absent), and run(attacks, pub, args, *inputs),
# which returns its AttackReport.
_ATTACK_KINDS = {
    "congruence": ((("ct", True),), lambda attacks, pub, args, ct:
                   attacks.congruence_bruteforce(pub, ct, args.budget)),
    "coppersmith": ((("priv", False),), lambda attacks, pub, args, d:
                    attacks.coppersmith_feasibility(pub, d=d)),
    "euclid": ((("known-answer", True), ("ct", True)), lambda attacks, pub, args, ka, ct:
               attacks.euclid_division_check(pub, ct, ka["u"], ka["v"])),
    "lattice": ((("known-answer", False), ("ct", True)), lambda attacks, pub, args, ka, ct:
                attacks.lattice_attack(pub, ct, u_true=ka and ka["u"], v_true=ka and ka["v"])),
    "factor-from-roots": ((("roots", True),), lambda attacks, pub, args, vs: attacks.AttackReport(
        "factor-from-roots", attacks.VERDICT_RECOVERED, {"n": pub.n}, {},
        dict(zip("pq", attacks.factor_from_roots(pub.e_a1, [vs[f] for f in _ROOT_FIELDS]))))),
}


def _cmd_attack(args):
    from . import attacks  # as bench below: only its command loads it, not startup

    pub = _load_public_key(args.pub)
    inputs, run = _ATTACK_KINDS[args.kind]
    t0 = time.perf_counter()
    values = []
    for option, required in inputs:
        path = getattr(args, option.replace("-", "_"))
        if path is None and required:
            raise ValueError(f"--{option} is required for --kind {args.kind}")
        values.append(None if path is None else _ATTACK_INPUTS[option](args, path))
    report = run(attacks, pub, args, *values)
    _emit(args.report, report_to_text(report, (time.perf_counter() - t0) * 1000.0))


def _cmd_bench(args):
    from . import bench  # the timing harness, which loads statistics and csv

    schemes = bench.SCHEMES if args.schemes is None else args.schemes.split(",")
    rows = bench.run_bench(schemes, args.n_list, reps=args.reps, seed=args.seed)
    _emit(args.out, bench.emit_csv(rows))


_RABIN_PUB_FIELDS = ("n", "N")
_RABIN_PRIV_FIELDS = ("n", "p", "q")
_EXTRABITS_FIELDS = ("c", "parity", "jacobi")


def _rabin_payload_to_int(data):
    # leading sentinel byte keeps leading zero bytes reversible
    return int.from_bytes(b"\x01" + data, "big")


def _rabin_int_to_payload(m):
    raw = m.to_bytes((m.bit_length() + 7) // 8, "big")
    if not raw or raw[0] != 1:
        raise CodecError("recovered integer has no payload sentinel")
    return raw[1:]


def _cmd_rabin_keygen(args):
    kp = rabin.keygen(args.n, _rng(args.seed))
    _write_text(args.out_pub, format_fields(zip(_RABIN_PUB_FIELDS, (args.n, kp.N))))
    _write_text(args.out_priv, format_fields(zip(_RABIN_PRIV_FIELDS, (args.n, kp.p, kp.q))))


def _cmd_rabin_encrypt(args):
    pub = parse_fields(_read_text(args.pub), _RABIN_PUB_FIELDS)
    m = _rabin_payload_to_int(Path(args.infile).read_bytes())
    if args.scheme == "redundant":
        c = rabin.encrypt_redundant(pub["N"], m, args.l)
        _write_text(args.out, cipher.format_ciphertext(cipher.Ciphertext(c)))
    else:
        record = zip(_EXTRABITS_FIELDS, rabin.encrypt_extrabits(pub["N"], m))
        _write_text(args.out, format_fields(record))


def _cmd_rabin_decrypt(args):
    priv = parse_fields(_read_text(args.priv), _RABIN_PRIV_FIELDS)
    _check_size("Rabin", priv["n"], priv["p"], priv["q"])  # bounds every pow below
    try:
        kp = rabin.RabinKeyPair(priv["p"] * priv["q"], priv["p"], priv["q"])
    except ValueError as exc:
        raise InconsistentKey(f"inconsistent Rabin key: {exc}") from exc
    if args.scheme == "redundant":
        c = cipher.parse_ciphertext(_read_text(args.infile)).c
        payloads = rabin.decrypt_redundant(kp, c, args.l)
        if len(payloads) > 1:
            raise CryptoError(f"ambiguous decryption: {len(payloads)} roots carry the tag")
        payload = payloads[0]
    else:
        fields = parse_fields(_read_text(args.infile), _EXTRABITS_FIELDS)
        payload = rabin.decrypt_extrabits(kp, *(fields[f] for f in _EXTRABITS_FIELDS))
    Path(args.out).write_bytes(_rabin_int_to_payload(payload))


def _cmd_rabin_ambiguity(args):
    stats = rabin.redundancy_experiment(args.n, args.l, args.trials, random.Random(args.seed))
    print(f"trials = {stats.trials}")
    print(f"ambiguous = {stats.ambiguous}")
    print(f"rate = {stats.rate:.6f}")


def _add_keygen_options(p, handler):
    """The options of keygen and rabin keygen."""
    p.add_argument("--n", type=_parse_n, required=True)
    p.add_argument("--seed", type=parse_uint, default=None)
    p.add_argument("--out-pub", required=True)
    p.add_argument("--out-priv", required=True)
    p.set_defaults(handler=handler)


def _add_rabin_cipher_options(p, handler):
    """The options rabin encrypt and decrypt take after their key file."""
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scheme", choices=("redundant", "extrabits"), required=True)
    p.add_argument("--l", type=parse_uint, default=8)
    p.set_defaults(handler=handler)


@functools.cache  # main parses with one parser per process; parse_args leaves it unchanged
def build_parser():
    # --help shows the docstring less its last paragraph, which is about the code
    parser = argparse.ArgumentParser(prog="aabeta", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    _add_keygen_options(sub.add_parser("keygen", help="generate a key pair"), _cmd_keygen)

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
    p.add_argument("--report")
    p.add_argument("--known-answer")
    p.add_argument("--roots")
    p.set_defaults(handler=_cmd_attack)

    p = sub.add_parser("bench", help="run the timing harness, emit CSV")
    p.add_argument("--schemes")
    p.add_argument("--n-list", type=_parse_n_list, default="64,128")
    p.add_argument("--reps", type=parse_uint, default=5)
    p.add_argument("--seed", type=parse_uint, default=0)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("rabin", help="baseline Rabin operations")
    rsub = p.add_subparsers(dest="rabin_command", required=True)

    _add_keygen_options(rsub.add_parser("keygen"), _cmd_rabin_keygen)

    rp = rsub.add_parser("encrypt")
    rp.add_argument("--pub", required=True)
    _add_rabin_cipher_options(rp, _cmd_rabin_encrypt)

    rp = rsub.add_parser("decrypt")
    rp.add_argument("--priv", required=True)
    _add_rabin_cipher_options(rp, _cmd_rabin_decrypt)

    rp = rsub.add_parser("ambiguity")
    rp.add_argument("--l", type=parse_uint, default=8)
    rp.add_argument("--trials", type=parse_uint, default=20_000)
    rp.add_argument("--n", type=_parse_n, default=16)
    rp.add_argument("--seed", type=parse_uint, default=0)
    rp.set_defaults(handler=_cmd_rabin_ambiguity)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args) or 0
    except tuple(error for error, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in _EXIT_CODES if isinstance(exc, error))


if __name__ == "__main__":
    sys.exit(main())
