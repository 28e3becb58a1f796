"""Reference helpers that only the tests use.

`determinant` is the independent check on lattice bases (LLL keeps the
absolute determinant); `parse_report_text` reads the `key: value`
report that `attacks.report_to_text` writes.
"""


def determinant(rows):
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    a = [list(map(int, r)) for r in rows]
    size = len(a)
    if any(len(r) != size for r in a):
        raise ValueError("square matrix required")
    sign = 1
    prev = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            for i in range(k + 1, size):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def parse_report_text(text):
    """Parse the `key: value` report format back to a flat string dict."""
    out = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        key, sep, value = line.partition(": ")
        if not sep:
            raise ValueError(f"malformed report line: {raw!r}")
        out[key] = value
    return out
