"""Golden CLI outputs: the sha256 of the JSON that fixed commands write.

The digests pin every byte of ``solve``, ``check-tp``, ``verify-identity``,
``curve-sample`` and ``convexity-check`` output, so a change to the exact
pipeline that alters a number, a witness or the JSON layout fails here.  Inputs are rebuilt
from seeds: ``random_tp_instance`` for ``solve`` (plus one input for each
other branch of the solver), and for ``check-tp``
single-entry changes of such instances whose first non-positive maximal
minor sits early, in the middle or late in the lexicographic order, or is
exactly zero, plus permuted blocks and a singular [W3 W4].  The curve
commands run on the moment curve and on quartics (1, t, t^2, t^3 + c t^4):
convex for c = -1/10 and -1/4, not convex for c = -1.
"""
import hashlib
from fractions import Fraction

import pytest

from fourlines import (
    ConfigBlocks,
    CurveSpec,
    MatQ,
    blocks_of_canonical,
    random_tp_instance,
    tangent_block,
    tangent_config,
)
from fourlines import serialize as ser
from fourlines.cli import run

from conftest import AT_INFINITY_X, SQUARE_X, swap_w3_columns

SOLVE_DIGESTS = {
    (10, 0): "fb7d5dca1a05abea7687cd6be5565ed52c8492534c513bfba85fc073a510dbbc",
    (10, 1): "a0f433f5f4ebda35b027dc1d7a21b94a71834fd32da73c9e88f1935984889e0b",
    (10, 2): "854f48231e6da6554b0cd737ae15e9b9e910834f10663a6c9b4833d59518652a",
    (10, 3): "c590a655a5250ff64a4ca54340d3c544549255c37148e5b58d9a0425f130db93",
    (10, 4): "7cc573a99afaebd3f057071b4d510a085de1e94059e7e2986b144bf27d8b25fb",
    (10, 5): "35763faa4719f8ad0e755c702144fc4ff8fb458168196836fa1bfc8dbc3e9e3c",
    (10, 6): "33aebbdceaee05a33f4fc6be0ecee2bcd3cc434a9fbe615af542c8c5b92dfa7a",
    (10, 7): "0dcb53d8ab83b802cda10a5c3812d652739d3a6f0906e870074ed4ddce4ea844",
    (10, 8): "e045a24f68958c8ffd271b816cda8f449192ae3ea3ad3c54ae5dee8db0be6a33",
    (10, 9): "8e622690e865c7534d29851f799f78c3e12442cec2c9d62dc34abcb00605cced",
    (10, 10): "bbfdb5efcb380537c19ded0302ec7272d5fc9396338acbc556e2ff30a265289e",
    (10, 11): "aae6bd22900af4ca9abd18a8f764d3d289868938809c4fa4bf2bda4aca864b8b",
    (10, 12): "93b490d5b4493381e0e732a0d1e65d155fe126d851fa642de349e152ce0bddc1",
    (10, 13): "55d0fca401cc8b41629178512a2b7998b65dc64bfe09c4d0d915144cf48c5444",
    (10, 14): "b4abdfe8d718c5c658a6fef7fc8f5eb94fdc9f0baed1e8687dc3f8da654fd5e2",
    (10, 15): "5ab360916ef74f44ff7606038031b1a97da524e5240c1aa6aefc3b034207a87d",
    (10, 16): "730490c89c475b18ea3f3509e11a8115a2a5596af0c302ffb1b7a407e953994c",
    (10, 17): "472b1a47c8f2de58480e74a5c2772bdebee0ab389e7a951d27c0b1d255e7396f",
    (10, 18): "750bedf173db9b772865be0811f0045f7d223c775d3ef51334171a7632b5a301",
    (10, 19): "0458c07a52465718bead9e4f3f0c0a7df11677d20c6348b873b996dc98100bbf",
    (10**30, 0): "292294c70082d6702e6d3cbc9b5b7a04284a19e0720d2c101813507e324737ca",
    (10**30, 1): "ea3a6b8464c003d73352aa82a544274219a016d9970b056419ae0fe53c77af04",
    (10**30, 2): "baed604227c2fc3a2b4507f453875fcd1371c4339651398c82f0e1a3abf35124",
    (10**30, 3): "09682d2b23f31119a5a9d0a46b6e09a789cbb06c964138123384acb195e0cf03",
}

#: The parameters of the golden moment-curve tangent lines.
TANGENT_TS = (Fraction(1, 20), Fraction(37, 100), Fraction(9, 10), Fraction(49, 50))
#: name -> (input, digest) for ``solve`` on the branches that random TP
#: instances do not take
SOLVE_BRANCHES = {
    # D = 966^2: both roots and both lines rational
    "perfect-square": (lambda: blocks_of_canonical(MatQ(SQUARE_X)),
                       "127e8bbe4893ba931e73686af7284c7d306e4235f4eae6ae8c352129ebddc140"),
    # A = 0: one finite root and the limit line, solution-at-infinity
    "at-infinity": (lambda: blocks_of_canonical(MatQ(AT_INFINITY_X)),
                    "980d3b7a491bcd59e3a234169c19709f082fbebf07e8df9e119429e449fd2bdb"),
    # det[W3 W4] < 0: canonical-basis-orientation-flipped
    "orientation-flipped": (lambda: swap_w3_columns(random_tp_instance(0)[1]),
                            "604483119108dc472f6b4a119785ddcf605955f9f86a814ef46dec95a3f87b96"),
    # the (value, derivative) tangent blocks of the moment curve: not
    # totally positive, a conjugate pair
    "moment-tangent": (lambda: ConfigBlocks(*(tangent_block(CurveSpec.moment(), t) for t in TANGENT_TS)),
                       "2937f913eccebabe84b2e83c05409e97fa7ce1e4ed744005572975cd7a8380d8"),
    # the same tangent lines as tangent_config's certified sample blocks:
    # totally positive, no warning
    "moment-tangent-sample": (lambda: tangent_config(CurveSpec.moment(), TANGENT_TS),
                              "371619f9343a52d4b1176616b479b0d9de00415f800b6e57b578dad17db632af"),
}

#: name -> (seed, block, row, column, new entry, witness columns, digest)
MUTATIONS = {
    "early": (0, 0, 0, 0, "0", (1, 2, 3, 4),
              "b3fe826035a813960ffbd01d368df9979ec73f71b3e367b07164b85a82349d49"),
    "middle": (0, 0, 0, 1, "0", (2, 3, 4, 5),
               "f01946a089aa2a93f52eec46fe5e5eb4ff58e8533f9fbcf76e083e821129c14d"),
    "late": (2, 1, 0, 0, "17/45", (3, 4, 5, 6),
             "7aed76d3d7561faaa20380a5ce6a77e4433bf2c5d408990b1e1bbba2db9b6331"),
    "zero": (4, 3, 3, 1, "1", (1, 2, 7, 8),
             "5885893865a7c8c5b92d1443111e85db804b1305a9837b739ada0e6cafe2cb28"),
}
PERMUTED_DIGEST = "304c0afa15f01c63a148a819c45fe5f9e72a5bb4558753e3a86916c4ca2a4016"
SINGULAR_DIGEST = "402deb61e1d2db353c5e8baaff0de27431536248ae595b3b36e1a2a66efeb5e1"
IDENTITY_DIGEST = "7f6867b1337b376d80a8c748e7e625d6dc36207565f47bcb84b60ab8beeca368"
#: verify-identity arguments -> digest, for spots at seeded rational points
#: (``--spots 1`` above evaluates only the all-ones point)
IDENTITY_SPOT_DIGESTS = {
    ("--spots", "5"): "2b2e79f18265d97d4194699666627784b54580466801f679b79e13252312d14b",
    ("--spots", "9", "--seed", "3"): "b3f7398648203e8077507f4c6a7749bff7d0ae8ca5363a6d448a81a9d463ce01",
}

#: name -> (quartic c or None for the moment curve, ts, epsilon, exit code, digest)
CURVE_SAMPLES = {
    "moment-auto": (None, "1/10,3/10,5/10,7/10", "auto", 0,
                    "b629768fdfd336f2264fceb87247bb7ad91b340e74e203e0ab78878ed29c3b02"),
    "quartic-1/10-auto": ("-1/10", "3/100,21/100,47/100,88/100", "auto", 0,
                          "2e09caeb2ac8c31843c7f517aeeb38792f4fc4a5a2e096241a6954d114f7861f"),
    "quartic-1/4-auto": ("-1/4", "1/10,3/10,5/10,7/10", "auto", 0,
                         "0131584d6720446d0095fca9eaa3284da9216ea961768f9e0f8cd0c5e5dd0b49"),
    "moment-explicit": (None, "1/10,3/10,5/10,7/10", "1/40", 0,
                        "bb449e65cdc480ab10ef06f6e64303b3b4d1a31efdd10fc5a1c1440b7079dd9f"),
    "quartic-1-explicit": ("-1", "1/10,3/10,5/10,9/10", "1/40", 3,
                           "097764f5d82894a72749478232a4cad11a21e1046006592d271289ed24cfbe7d"),
    "quartic-1-refused": ("-1", "1/10,3/10,5/10,9/10", "auto", 3, None),
}
#: name -> (quartic c or None, grid size, exit code, digest)
CONVEXITY = {
    "moment": (None, 12, 0, "d3bf440c0731e6260e96760e0e8e68f427fccc7b0a8ada77fbfad76691219ede"),
    "quartic-1": ("-1", 12, 3, "a3ca5220860552754c940d22cbc3d6cc567a7c44c9f2b1ee7ddd82eaa41664cd"),
}


def cli_digest(tmp_path, argv) -> tuple:
    """Exit code and sha256 of the file the command writes."""
    out = tmp_path / "out.json"
    code = run(argv + ["--output", str(out)])
    return code, hashlib.sha256(out.read_bytes()).hexdigest()


def write_blocks(tmp_path, blocks) -> str:
    path = tmp_path / "in.json"
    path.write_text(ser.dumps(ser.blocks_to_obj(blocks)))
    return str(path)


def mutated(seed, block, row, col, value) -> ConfigBlocks:
    _, blocks = random_tp_instance(seed)
    ws = [[list(r) for r in w.entries()] for w in blocks.blocks()]
    ws[block][row][col] = Fraction(value)
    return ConfigBlocks(*(MatQ(w) for w in ws))


@pytest.mark.parametrize("bound, seed", sorted(SOLVE_DIGESTS))
def test_solve(tmp_path, bound, seed):
    _, blocks = random_tp_instance(seed, bound)
    argv = ["solve", "--input", write_blocks(tmp_path, blocks)]
    assert cli_digest(tmp_path, argv) == (0, SOLVE_DIGESTS[bound, seed])


@pytest.mark.parametrize("name", sorted(SOLVE_BRANCHES))
def test_solve_branch(tmp_path, name):
    blocks, digest = SOLVE_BRANCHES[name]
    argv = ["solve", "--input", write_blocks(tmp_path, blocks())]
    assert cli_digest(tmp_path, argv) == (0, digest)


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_check_tp_witness(tmp_path, name):
    *change, cols, digest = MUTATIONS[name]
    path = write_blocks(tmp_path, mutated(*change))
    assert cli_digest(tmp_path, ["check-tp", "--input", path]) == (3, digest)
    witness = ser.loads((tmp_path / "out.json").read_text())["witness"]
    assert tuple(witness["cols"]) == cols
    assert (witness["minor"] == "0") == (name == "zero")


def test_check_tp_permuted_blocks(tmp_path):
    _, b = random_tp_instance(1)
    path = write_blocks(tmp_path, ConfigBlocks(b.w2, b.w1, b.w3, b.w4))
    assert cli_digest(tmp_path, ["check-tp", "--input", path]) == (3, PERMUTED_DIGEST)


def test_check_tp_singular_w34(tmp_path):
    _, b = random_tp_instance(1)
    path = write_blocks(tmp_path, ConfigBlocks(b.w1, b.w2, b.w3, b.w3))
    assert cli_digest(tmp_path, ["check-tp", "--input", path]) == (3, SINGULAR_DIGEST)


def test_verify_identity(tmp_path):
    assert cli_digest(tmp_path, ["verify-identity", "--spots", "1"]) == (0, IDENTITY_DIGEST)


@pytest.mark.parametrize("args", sorted(IDENTITY_SPOT_DIGESTS), ids=" ".join)
def test_verify_identity_spots(tmp_path, args):
    assert cli_digest(tmp_path, ["verify-identity", *args]) == (0, IDENTITY_SPOT_DIGESTS[args])


def curve_args(tmp_path, c) -> list:
    """``--curve`` for the quartic (1, t, t^2, t^3 + c t^4); none for the moment curve."""
    if c is None:
        return []
    path = tmp_path / "curve.json"
    path.write_text(ser.dumps({"kind": "polynomial",
                               "components": [["1"], ["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1", c]]}))
    return ["--curve", str(path)]


@pytest.mark.parametrize("name", sorted(CURVE_SAMPLES))
def test_curve_sample(tmp_path, name):
    c, ts, eps, code, digest = CURVE_SAMPLES[name]
    argv = ["curve-sample", "--ts", ts, "--epsilon", eps] + curve_args(tmp_path, c)
    if digest is None:
        # refused: no certifying epsilon, nothing written
        assert run(argv + ["--output", str(tmp_path / "out.json")]) == code
        assert not (tmp_path / "out.json").exists()
    else:
        assert cli_digest(tmp_path, argv) == (code, digest)


@pytest.mark.parametrize("name", sorted(CONVEXITY))
def test_convexity_check(tmp_path, name):
    c, grid, code, digest = CONVEXITY[name]
    argv = ["convexity-check", "--grid", str(grid)] + curve_args(tmp_path, c)
    assert cli_digest(tmp_path, argv) == (code, digest)
