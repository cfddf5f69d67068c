"""The energy functionals.

* ``sigma``   capillary-gravity energy; thirteen weighted terms (nine in the
              first group, four velocity terms), sigma-weighted ones vanish
              identically at sigma = 0
* ``high``    higher-order energy of the zero-surface-tension solution
* ``aux``     auxiliary zero-surface-tension energy (the coupling partner)
* ``delta``   difference energy between a sigma > 0 solution (a) and a
              sigma = 0 solution (b), subtracted in Lagrangian labels via
              Delta(f) = f_a - U(f_b), plus the coupling term sigma * aux(b)
* ``f_delta`` uniqueness-grade difference norm (seven first-power terms)

Each family is a table of terms (column name, norm, field builder) in the
order of its components, which the CSV header reads too; totals are sums of
the components.  The two pair families come from one record pass per pair,
kept on the PairState.  Fractional powers of Z_ap use the continuous branch
of log Z_ap on the band, whose angle is seed_angle of Z_ap,band.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .brackets import compose_map_apply
from .evolution import derive_states, seed_angle


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

    def csv_header(self):
        return "time," + ",".join(self.components) + ",total"

    def csv_row(self):
        vals = [self.time, *self.components.values(), self.total]
        return ",".join("%.17g" % v for v in vals)

    def to_json_dict(self):
        components = {k: float(v) for k, v in self.components.items()}
        return {"family": self.family, "time": self.time, "components": components,
                "total": self.total}


def _state_blocks(*states):
    """Shared ingredients of all families for states on one grid, kept on
    each state; those not yet kept are built in one stacked pass, and each
    state's are bit-identical to building it alone.  The numerical solution
    lives on the dealiased band, so every nonlinear ingredient is rebuilt
    band-limited before derivatives are taken: the ringing that pointwise
    division leaves above the filter cutoff is representation debris, and
    the k^3-amplified weighted norms would otherwise be dominated by it on
    marginally resolved states."""
    new = [st for st in states if "energy_blocks" not in st._memo]
    for st, blocks in zip(new, _build_blocks(new) if new else ()):
        st._memo["energy_blocks"] = blocks
    return [st._memo["energy_blocks"] for st in states]


# the symbols dealias D^j, j = 0..3, of the derivative ladders of the blocks
_LADDER = ("dealias", "dealias_deriv", "dealias_deriv2", "dealias_deriv3")


def _build_blocks(states):
    """Blocks of each of states from three rounds of Fourier multipliers on
    stacks of all states: the band Z_ap,band = 1 + dealias(Z_ap - 1) and
    the ladder dealias D^j of conj(Z_t) (j = 1..3) from one FFT pair, the
    ladder dealias D^j of 1/Z_ap,band (j = 0..3) from one forward
    transform, and H q.  Each row is bit-identical to its own multiply_symbol
    call."""
    grid, m = states[0].grid, len(states)
    table = grid.symbol_table(_LADDER)
    rows = np.empty((2 * m, grid.n), dtype=np.complex128)
    rows[:m] = [st.Zp for st in states]
    rows[:m] -= 1.0
    np.conj([st.Zt for st in states], out=rows[m:])
    spec = np.fft.fft(rows)
    # symbol 0 (dealias) on Z_ap - 1, symbols 1..3 on conj(Z_t)
    products = np.empty((4, m, grid.n), dtype=np.complex128)
    np.multiply(table[0], spec[:m], out=products[0])
    np.multiply(table[1:, None], spec[m:], out=products[1:])
    band, Ztb1, Ztb2, Ztb3 = np.fft.ifft(products)
    Zp_band = 1.0 + band
    inv, d1, d2, d3 = grid.multiply_symbol(1.0 / Zp_band, table[:, None])
    # H q, q = omega D 1/Z_ap,band
    omega = Zp_band / np.abs(Zp_band)
    q = omega * d1
    Theta = 1j * q - 1j * (q - grid.hilbert(q)).real
    g_band = np.array([seed_angle(grid, row) for row in Zp_band])
    log_Zp = np.log(np.abs(Zp_band)) + 1j * g_band
    names = ("inv", "d1", "d2", "d3", "Ztb1", "Ztb2", "Ztb3", "omega", "Theta", "log_Zp")
    rows = (inv, d1, d2, d3, Ztb1, Ztb2, Ztb3, omega, Theta, log_Zp)
    return [{"grid": grid, "powers": {}, **dict(zip(names, fields))} for fields in zip(*rows)]


def _powers(B):
    """p -> Z_ap^p on the band, through the continuous branch of log Z_ap;
    each power is computed once and kept in the blocks."""
    log_Zp, kept = B["log_Zp"], B["powers"]

    def power(p):
        if p not in kept:
            kept[p] = np.exp(p * log_Zp)
        return kept[p]

    return power


# a term is w * (sum of the norms kinds of its field) ** power, w the sigma
# of its state if weighted, else 1; a zero weight takes no norm
_NORMS = {
    "L2": (("L2",), 1, False), "L2sq": (("L2",), 2, False), "L2p6": (("L2",), 6, False),
    "Hhalf": (("Hhalf",), 1, False), "Hhalfsq": (("Hhalf",), 2, False),
    "Linfsq": (("Linf",), 2, False), "sigma Linfsq": (("Linf",), 2, True),
    "(Linf + Hhalf)sq": (("Linf", "Hhalf"), 2, False),
}
# the families of one state: a builder reads its blocks, its sigma s and
# its powers pw of Z_ap
_SIGMA = (
    ("dap_invZp_L2sq", "L2sq", lambda x: x.d1),
    ("invZp_dap_invZp_Hhalfsq", "Hhalfsq", lambda x: x.inv * x.d1),
    ("sigma_dap_Theta_Hhalfsq", "Hhalfsq", lambda x: x.s * x.grid.deriv(x.Theta)),
    ("sigma16_Zp12_dap_invZp_L2p6", "L2p6", lambda x: x.s ** (1 / 6) * x.pw(0.5) * x.d1),
    ("sigma12_Zp12_dap_invZp_Linfsq", "sigma Linfsq", lambda x: x.pw(0.5) * x.d1),
    ("sigma12_invZp12_dap2_invZp_L2sq", "L2sq", lambda x: np.sqrt(x.s) * x.pw(-0.5) * x.d2),
    ("sigma12_invZp32_dap2_invZp_Hhalfsq", "Hhalfsq", lambda x: np.sqrt(x.s) * x.pw(-1.5) * x.d2),
    ("sigma_invZp_dap3_invZp_L2sq", "L2sq", lambda x: x.s * x.inv * x.d3),
    ("sigma_invZp2_dap3_invZp_Hhalfsq", "Hhalfsq", lambda x: x.s * x.pw(-2.0) * x.d3),
    ("Ztapbar_L2sq", "L2sq", lambda x: x.Ztb1),
    ("invZp2_dap_Ztapbar_L2sq", "L2sq", lambda x: x.pw(-2.0) * x.Ztb2),
    ("sigma12_invZp12_dap_Ztapbar_L2sq", "L2sq", lambda x: np.sqrt(x.s) * x.pw(-0.5) * x.Ztb2),
    ("sigma12_invZp52_dap2_Ztapbar_L2sq", "L2sq", lambda x: np.sqrt(x.s) * x.pw(-2.5) * x.Ztb3),
)
_HIGH = (
    ("dap_invZp_L2sq", "L2sq", lambda x: x.d1),
    ("invZp2_dap2_invZp_L2sq", "L2sq", lambda x: x.pw(-2.0) * x.d2),
    ("Ztapbar_L2sq", "L2sq", lambda x: x.Ztb1),
    ("invZp2_dap_Ztapbar_L2sq", "L2sq", lambda x: x.pw(-2.0) * x.Ztb2),
    ("invZp3_dap_Ztapbar_Hhalfsq", "Hhalfsq", lambda x: x.pw(-3.0) * x.Ztb2),
)
_AUX = (
    ("Zp12_dap_invZp_Linfsq", "Linfsq", lambda x: x.pw(0.5) * x.d1),
    ("invZp12_dap2_invZp_L2sq", "L2sq", lambda x: x.pw(-0.5) * x.d2),
    ("invZp52_dap3_invZp_L2sq", "L2sq", lambda x: x.pw(-2.5) * x.d3),
    ("invZp12_dap_Ztapbar_L2sq", "L2sq", lambda x: x.pw(-0.5) * x.Ztb2),
    ("invZp52_dap2_Ztapbar_L2sq", "L2sq", lambda x: x.pw(-2.5) * x.Ztb3),
    ("invZp72_dap2_Ztapbar_Hhalfsq", "Hhalfsq", lambda x: x.pw(-3.5) * x.Ztb3),
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


def _evaluate(grid, families, pair_jobs=()):
    """The components of each of families, (state, family name) pairs, and
    of each of pair_jobs, (terms, x) with x what the builders of terms read,
    from one pass over the pair jobs and the families not yet kept on their
    states, which are then kept: all L2 norms from one stacked l2_norm call,
    all H^1/2 norms from one stacked hhalf_norm call and all L-infinity
    norms from one stacked sup_norm call, whose rows give the bits of
    single-field calls."""
    new = [(st, name) for st, name in families if "energy_" + name not in st._memo]
    jobs = [*pair_jobs, *((_TABLES[name], SimpleNamespace(**B, s=st.sigma, pw=_powers(B)))
                          for (st, name), B in zip(new, _state_blocks(*(st for st, _ in new))))]
    terms = []
    for j, (table, x) in enumerate(jobs):
        for column, norm, build in table:
            kinds, power, weighted = _NORMS[norm]
            w = x.s if weighted else 1.0
            terms.append((j, column, kinds if w else (), power, w, build(x) if w else None))
    stacked = {}
    for kind, norm_of in (("L2", grid.l2_norm), ("Hhalf", grid.hhalf_norm),
                          ("Linf", grid.sup_norm)):
        fields = [f for _, _, kinds, _, _, f in terms if kind in kinds]
        stacked[kind] = iter(norm_of(np.array(fields)).tolist() if fields else ())
    comps = [{} for _ in jobs]
    for j, column, kinds, power, w, f in terms:
        v = sum(next(stacked[kind]) for kind in kinds)
        comps[j][column] = w * v ** power
    for (st, name), comp in zip(new, comps[len(pair_jobs):]):
        st._memo["energy_" + name] = comp
    return [st._memo["energy_" + name] for st, name in families], comps[: len(pair_jobs)]


def _state_report(state, family):
    (comp,), _ = _evaluate(state.grid, [(state, family)])
    return EnergyReport(family, state.time, dict(comp))


def energy_sigma(state):
    """The thirteen-term capillary-gravity energy of one solution."""
    return _state_report(state, "sigma")


def energy_high(state):
    """Five-term higher-order energy for zero surface tension."""
    return _state_report(state, "high")


def energy_aux(state):
    """Six-term auxiliary energy for the zero-surface-tension solution."""
    return _state_report(state, "aux")


# the families of one solution by name, which `simulate` records and [output] lists
STATE_FAMILIES = {"sigma": energy_sigma, "high": energy_high, "aux": energy_aux}


def _differences(grid, fields_a, fields_b, htil):
    """Delta(f) = f_a - f_b o htilde by name, as a namespace; a field of b
    without a partner in fields_a comes back as f_b o htilde.  The fields of
    b go through htilde in one stacked pull-back of real rows, a complex one
    as its real and its imaginary row, a real one as one row, so each comes
    back bit for bit as pulled back alone."""
    rows = [r for f in fields_b.values()
            for r in ((f.real, f.imag) if np.iscomplexobj(f) else (f,))]
    pulled = iter(compose_map_apply(grid, np.array(rows), htil))
    x = SimpleNamespace(grid=grid)
    for name, f in fields_b.items():
        f_b = next(pulled) + 1j * next(pulled) if np.iscomplexobj(f) else next(pulled)
        setattr(x, name, fields_a[name] - f_b if name in fields_a else f_b)
    return x


def _pair_record(pair):
    """The components of the delta and f_delta families of pair, from one
    pass that is kept on the pair: one derive_states of both states, one
    _differences that pulls the fields of b of both families back through
    htilde as one stack, and one _evaluate of the terms of both families
    with those of energy_sigma(a) and energy_aux(b), which stay kept on
    their states."""
    memo = pair._memo
    if "record" in memo:
        return memo["record"]
    a, b = pair.state_a, pair.state_b
    htil = pair.map_tilde
    derived = derive_states((a, b))
    # b_ap = D_a b of both states from one stacked derivative: each row has
    # the bits of grid.deriv(der.b).real of its state alone
    b_ap = a.grid.deriv(np.array([der.b for der in derived])).real
    fa, fb = ({"omega": B["omega"], "d1": B["d1"], "inv_d1": B["inv"] * B["d1"], "Ztb1": B["Ztb1"],
               "Ztb2": _powers(B)(-2.0) * B["Ztb2"], "Zt": st.Zt, "Ztt": der.Ztt,
               "invZp": 1.0 / st.Zp, "DapZt": der.Ztap / st.Zp, "A1": der.A1, "bap": bap,
               "halpha": 1.0 / k.jacobian()}
              for st, der, bap, k, B in zip((a, b), derived, b_ap, (pair.k_a, pair.k_b),
                                            _state_blocks(a, b)))
    fb["inv_abs"] = 1.0 / np.abs(b.Zp)
    x = _differences(a.grid, fa, fb, htil)
    x.abs_a, x.dev_j = np.abs(a.Zp), htil.jacobian() - 1.0
    own_terms = [term for term in _DELTA if term[1] in _NORMS]
    (sigma_a, aux_b), (own, f_delta) = _evaluate(
        a.grid, [(a, "sigma"), (b, "aux")], [(own_terms, x), (_F_DELTA, x)]
    )
    own["coupling_sigma_aux_b"] = a.sigma * sum(aux_b.values())
    delta = {c: sigma_a[name] if norm == "sigma(a)" else own[c] for c, norm, name in _DELTA}
    memo["record"] = delta, f_delta
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
    all, and ValueError is raised otherwise, or if they belong to other
    states.
    """
    a, b = pair.state_a, pair.state_b
    if (derived_a is None) != (derived_b is None):
        raise ValueError("f_delta_norm takes derived_a and derived_b together or neither")
    if derived_a is not None:
        for name, st, der in (("derived_a", a, derived_a), ("derived_b", b, derived_b)):
            if der.Zp is not st.Zp or der.Zt is not st.Zt:
                raise ValueError(f"{name} holds the derived fields of another state")
    _, f_delta = _pair_record(pair)
    return EnergyReport("f_delta", pair.time, dict(f_delta))


def write_reports_csv(path, reports):
    """One CSV per family: header comment with the schema version, then one
    row per time with the named components in stable order.  The reports
    must all be of one family and carry its columns in order, so the header
    is the family's term table; this is checked before the file is opened,
    so a refused list writes nothing."""
    reports = list(reports)
    if not reports:
        raise ValueError("no reports to write")
    family, columns = reports[0].family, reports[0].columns
    for r in reports:
        if r.family != family or tuple(r.components) != columns:
            raise ValueError(f"a {family} CSV takes {family} reports with its columns only, "
                             f"not the {r.family} report at t = {r.time:.6g}")
    with open(path, "w") as fh:
        fh.write(f"# crestwave-csv v1 family={family}\n")
        fh.write(reports[0].csv_header() + "\n")
        for r in reports:
            fh.write(r.csv_row() + "\n")
