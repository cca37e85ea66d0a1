"""load_setfile against a line-by-line reference reader, on seeded random texts."""
import random
import warnings

import numpy as np
import pytest

from kdom import SetFileError, VertexSet
from kdom.cli import KNOWN_FLAGS, SetFile, load_setfile, save_setfile

TOKENS = ("0", "1", "2", "5", "-1", "1_000", "+3", "007", "١", str(2 ** 63),
          str(-2 ** 63 - 1), str(2 ** 62 - 1), str(-2 ** 62), "1.5", "x", "#")
FLAG_LINES = ("# projected", "#projected", "# no-corner-removal", "  # projected ",
              "# mystery", "#", "#x y")
BLANK_LINES = ("", "   ", "\t", "　")


def reference_load(text):
    """The set-file rules on one pass over the body in file order, with no numpy parse."""
    lines = text.splitlines()
    k, m, n, count = map(int, lines[1].split())
    flags, pairs = [], []
    for line in lines[2:]:
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0].startswith("#"):
            flag = line.strip()[1:].strip()
            if flag not in KNOWN_FLAGS:
                raise SetFileError(f"unknown flag {flag!r}")
            if flag not in flags:
                flags.append(flag)
        elif len(tokens) != 2:
            raise SetFileError(f"expected 'i j', got {line.strip()!r}")
        else:
            try:
                pairs.append((int(tokens[0]), int(tokens[1])))
            except ValueError:
                raise SetFileError(f"non-integer coordinate in {line.strip()!r}") from None
    if any(abs(c) >= 2 ** 62 for pair in pairs for c in pair):
        raise SetFileError("vertex coordinates must satisfy |c| < 2**62")
    if len(pairs) != count:
        raise SetFileError(f"header count {count} != {len(pairs)} body lines")
    seen = set()
    for i, j in pairs:
        if (i, j) in seen:
            raise SetFileError(f"duplicate vertex {i} {j}")
        seen.add((i, j))
    return SetFile(k=k, m=m, n=n, points=VertexSet.from_iterable(pairs), flags=tuple(flags))


def outcome(read, text):
    try:
        sf = read(text)
    except SetFileError as exc:
        return "error", str(exc)
    return sf.k, sf.m, sf.n, sf.flags, sf.points.array.dtype, sf.points.array.tolist()


def saved_text(rng):
    """What save_setfile writes for a random set, sometimes with one line replaced."""
    m, n = rng.randint(1, 6), rng.randint(1, 6)
    cells = [(i, j) for i in range(m) for j in range(n)]
    points = VertexSet.from_iterable(rng.sample(cells, rng.randint(0, len(cells))))
    flags = tuple(f for f in KNOWN_FLAGS if rng.random() < 0.5)
    lines = save_setfile(SetFile(rng.randint(1, 3), m, n, points, flags)).splitlines()
    if rng.random() < 0.5 and len(lines) > 2:
        r = rng.randrange(2, len(lines) + 1)
        lines[r:r + 1] = [random_line(rng)]
    return "\n".join(lines) + "\n"


def random_line(rng):
    kind = rng.random()
    if kind < 0.15:
        return rng.choice(FLAG_LINES)
    if kind < 0.25:
        return rng.choice(BLANK_LINES)
    if kind < 0.35:
        return " ".join(rng.choice(TOKENS) for _ in range(rng.choice((1, 3))))
    if kind < 0.55:
        return f"{rng.choice(TOKENS)} {rng.choice(TOKENS)}"
    return f"{rng.randint(0, 4)}\t {rng.randint(0, 4)}"


def random_text(rng):
    """Header, then random lines: flags anywhere, blanks, odd tokens and token counts."""
    body = [random_line(rng) for _ in range(rng.randint(0, 8))]
    count = sum(1 for line in body if line.split() and not line.split()[0].startswith("#"))
    count += rng.choice((0, 0, 0, 1, -1))
    return f"kdom v1\n{rng.randint(1, 2)} 5 5 {count}\n" + "\n".join(body)


def test_load_setfile_agrees_with_the_reference_reader(monkeypatch):
    parsed = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        coords = loadtxt(*args, **kwargs)
        parsed.append(coords.shape[1] == 2)
        return coords

    monkeypatch.setattr(np, "loadtxt", counted)
    rng = random.Random(1001)
    texts = [saved_text(rng) for _ in range(1500)] + [random_text(rng) for _ in range(1500)]
    texts += [
        "kdom v1\n1 2 2 0\n",  # no body, and a body of flags only: loadtxt would warn
        "kdom v1\n1 2 2 0\n# projected\n\n#no-corner-removal\n  \n",
        f"kdom v1\n1 3 3 3\n1_000 +3\n007 ١\n{2 ** 62 - 1} 0\n",  # int() reads all of these
        f"kdom v1\n1 3 3 3\n1_000 +3\n007 ١\n{2 ** 63} 0\n",  # and the bound refuses the last
    ]
    results = [(outcome(load_setfile, t), outcome(reference_load, t)) for t in texts]
    for text, (got, want) in zip(texts, results):
        assert got == want, text
    # numpy's parse reads some texts and the loop the rest; some are accepted, some not
    errors = sum(got[0] == "error" for got, _ in results)
    assert 0 < sum(parsed) < len(texts)
    assert len(texts) // 4 < errors < 3 * len(texts) // 4


@pytest.mark.parametrize("token", ["1.0", "1.5", "1e0"])
def test_float_text_is_refused_with_warnings_ignored(token):
    """numpy releases that read an integer via a float only warn, and outside tests warnings are hidden."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(SetFileError, match="non-integer coordinate"):
            load_setfile(f"kdom v1\n1 3 3 2\n0 0\n{token} 2\n")


@pytest.mark.parametrize("i", [2 ** 62, -(2 ** 62), 2 ** 63, 10 ** 30], ids=["2**62", "-2**62", "2**63", "10**30"])
def test_load_setfile_takes_the_limit_and_refuses_past_it(i):
    top = 2 ** 62 - 1
    inside = load_setfile(f"kdom v1\n1 3 3 3\n{top} 0\n0 {-top}\n+1 1\n")
    assert inside.points.array.tolist() == [[0, -top], [top, 0], [1, 1]]
    for body in (f"{i} 0\n0 0\n", f"0 0\n0_0 {i}\n"):  # numpy's parse (while int64 holds i), then the line loop
        with pytest.raises(SetFileError, match=r"\|c\| < 2\*\*62"):
            load_setfile(f"kdom v1\n1 3 3 2\n{body}")
