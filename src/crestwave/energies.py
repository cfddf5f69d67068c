"""The energy functionals.

* ``sigma``   capillary-gravity energy; thirteen terms (nine in the first
              group, four velocity terms), those with a power of sigma as
              their weight vanish identically at sigma = 0
* ``high``    higher-order energy of the zero-surface-tension solution
* ``aux``     auxiliary zero-surface-tension energy (the coupling partner)
* ``delta``   difference energy between a sigma > 0 solution (a) and a
              sigma = 0 solution (b), subtracted in Lagrangian labels via
              Delta(f) = f_a - U(f_b), plus the coupling term sigma * aux(b)
* ``f_delta`` uniqueness-grade difference norm (seven first-power terms)

Each family is a table of terms (column name, norm, field builder) in the
order of its components, which the CSV header reads too; a term's weight
lives in its field builder, and totals are sums of the components.  The
families of one solution come from one pass (state_energies) kept on the
state, the two pair families from one record pass kept on the PairState;
each pass builds the energy blocks it reads and drops them at its end.
Half-integer powers of Z_ap use the continuous branch of log Z_ap on the
band, whose angle is seed_angle of Z_ap,band.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import spectral
from .errors import SOLUTION_TAGS
from .evolution import derive_states, seed_angle, theta_form


@dataclass
class EnergyReport:
    family: str
    time: float
    components: dict = field(default_factory=dict)

    @property
    def total(self):
        return float(sum(self.components.values()))

    @property
    def columns(self):
        """The component names of the family, from its term table; a family
        without a table names its own components."""
        table = _TABLES.get(self.family)
        return tuple(self.components) if table is None else tuple(c for c, _, _ in table)

    def to_json_dict(self):
        components = {k: float(v) for k, v in self.components.items()}
        return {"family": self.family, "time": self.time, "components": components,
                "total": self.total}


# the symbols dealias D^j, j = 0..3, of the derivative ladders of the blocks
_LADDER = ("dealias", "dealias_deriv", "dealias_deriv2", "dealias_deriv3")


def _build_blocks(states):
    """Blocks of each of states from three rounds of Fourier multipliers on
    stacks of all states: the band Z_ap,band = 1 + dealias(Z_ap - 1) and
    the ladder dealias D^j of conj(Z_t) (j = 1..3) from one FFT pair, the
    ladder dealias D^j of 1/Z_ap,band (j = 0..3) from one forward
    transform, and H q, then the powers pw of Z_ap,band the families
    read.  Each row is bit-identical to its own multiply_symbol call.  The
    numerical solution lives on the dealiased band, so every nonlinear
    ingredient is rebuilt band-limited before derivatives are taken: the
    ringing that pointwise division leaves above the filter cutoff is
    representation debris, and the k^3-amplified norms of Z_ap powers would
    otherwise be dominated by it on marginally resolved states."""
    grid, m = states[0].grid, len(states)
    table = grid.symbol_table(_LADDER)
    rows = np.empty((2 * m, grid.n), dtype=np.complex128)
    rows[:m] = [st.Zp for st in states]
    rows[:m] -= 1.0
    np.conj([st.Zt for st in states], out=rows[m:])
    spec = spectral._fft(rows, out=rows)
    # symbol 0 (dealias) on Z_ap - 1, symbols 1..3 on conj(Z_t)
    products = np.empty((4, m, grid.n), dtype=np.complex128)
    np.multiply(table[0], spec[:m], out=products[0])
    np.multiply(table[1:, None], spec[m:], out=products[1:])
    band, Ztb1, Ztb2, Ztb3 = spectral._ifft(products, out=products)
    Zp_band = 1.0 + band
    products = np.multiply(table[:, None], spectral._fft(1.0 / Zp_band))
    inv, d1, d2, d3 = spectral._ifft(products, out=products)
    # Theta of q = omega D 1/Z_ap,band
    abs_band = np.abs(Zp_band)
    omega = Zp_band / abs_band
    Theta = theta_form(grid, omega * d1)
    # the powers Z_ap^p of the families, p = 1/2, -1/2, ..., -7/2, on the
    # continuous branch of log Z_ap: Z_ap^(1/2) is the one exp, Z_ap^(-1/2)
    # its reciprocal, Z_ap^-1 the square of that, and each lower power
    # Z_ap^-1 times the power one above it
    log_Zp = np.log(abs_band) + 1j * seed_angle(Zp_band)
    root = np.exp(0.5 * log_Zp)
    pw = {0.5: root, -0.5: 1.0 / root}
    pw[-1.0] = pw[-0.5] * pw[-0.5]
    for p in (-1.5, -2.0, -2.5, -3.0, -3.5):
        pw[p] = pw[-1.0] * pw[p + 1.0]
    names = ("inv", "d1", "d2", "d3", "Ztb1", "Ztb2", "Ztb3", "omega", "Theta")
    rows = (inv, d1, d2, d3, Ztb1, Ztb2, Ztb3, omega, Theta)
    return [{"grid": grid, "pw": dict(zip(pw, powers)), **dict(zip(names, fields))}
            for fields, powers in zip(zip(*rows), zip(*pw.values()))]


# a term is (sum of the norms kinds of its field) ** power; a weight lives
# in the field builder
_NORMS = {
    "L2": (("L2",), 1), "L2sq": (("L2",), 2), "L2p6": (("L2",), 6),
    "Hhalf": (("Hhalf",), 1), "Hhalfsq": (("Hhalf",), 2), "Linfsq": (("Linf",), 2),
    "(Linf + Hhalf)sq": (("Linf", "Hhalf"), 2),
}
# the families of one state: a builder reads its blocks, the powers pw of
# Z_ap among them, and its sigma s
_SIGMA = (
    ("dap_invZp_L2sq", "L2sq", lambda x: x.d1),
    ("invZp_dap_invZp_Hhalfsq", "Hhalfsq", lambda x: x.inv * x.d1),
    ("sigma_dap_Theta_Hhalfsq", "Hhalfsq", lambda x: x.s * x.grid.deriv(x.Theta)),
    ("sigma16_Zp12_dap_invZp_L2p6", "L2p6", lambda x: x.s ** (1 / 6) * x.pw[0.5] * x.d1),
    ("sigma12_Zp12_dap_invZp_Linfsq", "Linfsq", lambda x: np.sqrt(x.s) * x.pw[0.5] * x.d1),
    ("sigma12_invZp12_dap2_invZp_L2sq", "L2sq", lambda x: np.sqrt(x.s) * x.pw[-0.5] * x.d2),
    ("sigma12_invZp32_dap2_invZp_Hhalfsq", "Hhalfsq", lambda x: np.sqrt(x.s) * x.pw[-1.5] * x.d2),
    ("sigma_invZp_dap3_invZp_L2sq", "L2sq", lambda x: x.s * x.inv * x.d3),
    ("sigma_invZp2_dap3_invZp_Hhalfsq", "Hhalfsq", lambda x: x.s * x.pw[-2.0] * x.d3),
    ("Ztapbar_L2sq", "L2sq", lambda x: x.Ztb1),
    ("invZp2_dap_Ztapbar_L2sq", "L2sq", lambda x: x.pw[-2.0] * x.Ztb2),
    ("sigma12_invZp12_dap_Ztapbar_L2sq", "L2sq", lambda x: np.sqrt(x.s) * x.pw[-0.5] * x.Ztb2),
    ("sigma12_invZp52_dap2_Ztapbar_L2sq", "L2sq", lambda x: np.sqrt(x.s) * x.pw[-2.5] * x.Ztb3),
)
_HIGH = (
    ("dap_invZp_L2sq", "L2sq", lambda x: x.d1),
    ("invZp2_dap2_invZp_L2sq", "L2sq", lambda x: x.pw[-2.0] * x.d2),
    ("Ztapbar_L2sq", "L2sq", lambda x: x.Ztb1),
    ("invZp2_dap_Ztapbar_L2sq", "L2sq", lambda x: x.pw[-2.0] * x.Ztb2),
    ("invZp3_dap_Ztapbar_Hhalfsq", "Hhalfsq", lambda x: x.pw[-3.0] * x.Ztb2),
)
_AUX = (
    ("Zp12_dap_invZp_Linfsq", "Linfsq", lambda x: x.pw[0.5] * x.d1),
    ("invZp12_dap2_invZp_L2sq", "L2sq", lambda x: x.pw[-0.5] * x.d2),
    ("invZp52_dap3_invZp_L2sq", "L2sq", lambda x: x.pw[-2.5] * x.d3),
    ("invZp12_dap_Ztapbar_L2sq", "L2sq", lambda x: x.pw[-0.5] * x.Ztb2),
    ("invZp52_dap2_Ztapbar_L2sq", "L2sq", lambda x: x.pw[-2.5] * x.Ztb3),
    ("invZp72_dap2_Ztapbar_Hhalfsq", "Hhalfsq", lambda x: x.pw[-3.5] * x.Ztb3),
)
# the difference energy in the order of the display: its own terms, of the
# fields that energy_delta prepares, those of energy_sigma(a) ("sigma(a)")
# by their column there, and the coupling sigma_a E_aux(b)
_DELTA = (
    ("d0_delta_omega_Linfsq", "Linfsq", lambda x: x.omega),
    ("d0_htilap_minus1_LinfHhalfsq", "(Linf + Hhalf)sq", lambda x: x.dev_j),
    ("d0_Dapa_htilap_minus1_L2sq", "L2sq", lambda x: x.grid.deriv(x.dev_j) / x.abs_a),
    ("d0_absZpa_Util_invabsZpb_minus1_Linfsq", "Linfsq", lambda x: x.abs_a * x.inv_abs - 1.0),
    ("d1_delta_dap_invZp_L2sq", "L2sq", lambda x: x.d1),
    ("d1_delta_invZp_dap_invZp_Hhalfsq", "Hhalfsq", lambda x: x.inv_d1),
    *(("d1_a_" + name, "sigma(a)", name) for name in (
        "sigma16_Zp12_dap_invZp_L2p6", "sigma12_Zp12_dap_invZp_Linfsq",
        "sigma12_invZp12_dap2_invZp_L2sq", "sigma12_invZp32_dap2_invZp_Hhalfsq",
        "sigma_dap_Theta_Hhalfsq", "sigma_invZp_dap3_invZp_L2sq",
        "sigma_invZp2_dap3_invZp_Hhalfsq")),
    ("d2_delta_Ztapbar_L2sq", "L2sq", lambda x: x.Ztb1),
    ("d2_delta_invZp2_dap_Ztapbar_L2sq", "L2sq", lambda x: x.Ztb2),
    *(("d2_a_" + name, "sigma(a)", name) for name in (
        "sigma12_invZp12_dap_Ztapbar_L2sq", "sigma12_invZp52_dap2_Ztapbar_L2sq")),
    ("coupling_sigma_aux_b", "coupling", None),
)
# the uniqueness-grade norm, of the differences that f_delta_norm prepares
_F_DELTA = (
    ("fd_delta_Zt_Hhalf", "Hhalf", lambda x: x.Zt),
    ("fd_delta_Ztt_Hhalf", "Hhalf", lambda x: x.Ztt),
    ("fd_delta_invZp_Hhalf", "Hhalf", lambda x: x.invZp),
    ("fd_delta_halpha_L2", "L2", lambda x: x.halpha),
    ("fd_delta_DapZt_L2", "L2", lambda x: x.DapZt),
    ("fd_delta_A1_L2", "L2", lambda x: x.A1),
    ("fd_delta_bap_L2", "L2", lambda x: x.bap),
)
_TABLES = {"sigma": _SIGMA, "high": _HIGH, "aux": _AUX, "delta": _DELTA, "f_delta": _F_DELTA}


def _evaluate(grid, families, pair_jobs=(), built=()):
    """The components of each of families, (state, family name) pairs, and
    of each of pair_jobs, (terms, x) with x what the builders of terms read,
    from one pass over the pair jobs and the families not yet kept on their
    states, which are then kept.  built holds (state, blocks) pairs the
    caller has built; the other states those families read get theirs from
    one _build_blocks pass, one row per distinct state.  All L2 norms come
    from one stacked l2_norm call, all H^1/2 norms from one hhalf_norm call
    and all L-infinity norms from one sup_norm call, whose rows give the
    bits of single-field calls."""
    new = [(st, name) for st, name in families if "energy_" + name not in vars(st)]
    blocks = dict(built)
    missing = list(dict.fromkeys(st for st, _ in new if st not in blocks))
    blocks.update(zip(missing, _build_blocks(missing) if missing else ()))
    jobs = [*pair_jobs, *((_TABLES[name], SimpleNamespace(**blocks[st], s=st.sigma))
                          for st, name in new)]
    terms = [(j, column, *_NORMS[norm], build(x))
             for j, (table, x) in enumerate(jobs) for column, norm, build in table]
    stacked = {}
    for kind, norm_of in (("L2", grid.l2_norm), ("Hhalf", grid.hhalf_norm),
                          ("Linf", grid.sup_norm)):
        fields = [f for _, _, kinds, _, f in terms if kind in kinds]
        stacked[kind] = iter(norm_of(np.array(fields)).tolist() if fields else ())
    comps = [{} for _ in jobs]
    for j, column, kinds, power, _ in terms:
        comps[j][column] = sum(next(stacked[kind]) for kind in kinds) ** power
    for (st, name), comp in zip(new, comps[len(pair_jobs):]):
        vars(st)["energy_" + name] = comp
    return [vars(st)["energy_" + name] for st, name in families], comps[: len(pair_jobs)]


# the families of one solution, which `simulate` records and [output] lists
STATE_FAMILIES = ("sigma", "high", "aux")


def state_energies(state, families):
    """The reports of families, names of STATE_FAMILIES, of one solution
    from one _evaluate pass (one block build); ValueError for other names."""
    if not set(families) <= set(STATE_FAMILIES):
        raise ValueError(f"state_energies takes families of {STATE_FAMILIES}, got {families}")
    comps, _ = _evaluate(state.grid, [(state, f) for f in families])
    return [EnergyReport(f, state.time, dict(comp)) for f, comp in zip(families, comps)]


def energy_sigma(state):
    """The thirteen-term capillary-gravity energy of one solution."""
    return state_energies(state, ("sigma",))[0]


def _pair_record(pair):
    """The components of the delta and f_delta families of pair, from one
    pass that is kept on the pair, in its instance dict as htilde is: one
    derive_states of both states, tagged with their solutions, one
    pull-back of the fields of b of both families through htilde as one
    stack, which rides along the solve that builds htilde
    (PairState._pull_back), and one _evaluate of the terms of both
    families with those of the sigma family of a and the aux family of b,
    which stay kept on their states.  The energy blocks of both states are
    built once, read here and passed to _evaluate, and dropped at its end."""
    if "record" in vars(pair):
        return vars(pair)["record"]
    a, b = pair.state_a, pair.state_b
    derived = derive_states((a, b), SOLUTION_TAGS)
    # b_ap = D_a b of both states from one stacked derivative: each row has
    # the bits of grid.deriv(der.b).real of its state alone
    b_ap = a.grid.deriv(np.array([der.b for der in derived])).real
    blocks = _build_blocks([a, b])
    fa, fb = ({"omega": B["omega"], "d1": B["d1"], "inv_d1": B["inv"] * B["d1"], "Ztb1": B["Ztb1"],
               "Ztb2": B["pw"][-2.0] * B["Ztb2"], "Zt": st.Zt, "Ztt": der.Ztt,
               "invZp": 1.0 / st.Zp, "DapZt": der.Ztap / st.Zp, "A1": der.A1, "bap": bap,
               "halpha": 1.0 / k.jac}
              for st, der, bap, k, B in zip((a, b), derived, b_ap, (pair.k_a, pair.k_b), blocks))
    fb["inv_abs"] = 1.0 / np.abs(b.Zp)
    htil, pulled = pair._pull_back(list(fb.values()))
    # Delta(f) = f_a - f_b o htilde by name; a field of b without a partner
    # in fa stays f_b o htilde
    x = SimpleNamespace(**{name: np.subtract(fa[name], f_b, out=f_b) if name in fa else f_b
                           for name, f_b in zip(fb, pulled)})
    x.grid, x.abs_a, x.dev_j = a.grid, np.abs(a.Zp), htil.jac - 1.0
    own_terms = [term for term in _DELTA if term[1] in _NORMS]
    (sigma_a, aux_b), (own, f_delta) = _evaluate(
        a.grid, [(a, "sigma"), (b, "aux")], [(own_terms, x), (_F_DELTA, x)], zip((a, b), blocks)
    )
    own["coupling_sigma_aux_b"] = a.sigma * sum(aux_b.values())
    delta = {c: sigma_a[name] if norm == "sigma(a)" else own[c] for c, norm, name in _DELTA}
    vars(pair)["record"] = delta, f_delta
    return delta, f_delta


def energy_delta(pair):
    """Full difference energy for a (sigma, 0) solution pair.  Delta-terms
    subtract in Lagrangian labels through the composed map (Delta(f) = f_a
    - f_b o htilde); the htilde-terms live on the composed map itself, and
    the coupling term is sigma_a times the auxiliary energy of solution b.
    The components come from the pair's record pass (_pair_record), which
    the first of energy_delta and f_delta_norm runs and the other reads."""
    delta, _ = _pair_record(pair)
    return EnergyReport("delta", pair.time, dict(delta))


def f_delta_norm(pair, derived_a=None, derived_b=None):
    """Uniqueness-grade difference norm in the conformal frame of solution a.

    Seven first-power components: H^1/2 of Delta(Z_t), Delta(Z_tt),
    Delta(1/Z_ap); L2 of Delta(h_alpha o h^-1) (with k = h^{-1}, the map
    the pair holds, h_alpha o h^{-1} = 1 / k_alpha on the grid),
    Delta(D_a Z_t), Delta(A1) and Delta(b_ap).  The components come from
    the pair's record pass (_pair_record), which the first of energy_delta
    and f_delta_norm runs and the other reads; it takes the compute_derived
    fields that derive_states keeps on the states.  derived_a and
    derived_b, the compute_derived fields of the pair's states, may be
    passed by a caller that holds them; they are given together or not at
    all, and ValueError is raised otherwise, or if either is not the object
    that derive_states returns for its state, such as the fields of a
    state that shares its arrays but not its sigma.
    """
    if (derived_a is None) != (derived_b is None):
        raise ValueError("f_delta_norm takes derived_a and derived_b together or neither")
    if derived_a is not None:
        kept = derive_states((pair.state_a, pair.state_b), SOLUTION_TAGS)
        for name, der, own in zip(("derived_a", "derived_b"), (derived_a, derived_b), kept):
            if der is not own:
                raise ValueError(f"{name} holds the derived fields of another state")
    _, f_delta = _pair_record(pair)
    return EnergyReport("f_delta", pair.time, dict(f_delta))

